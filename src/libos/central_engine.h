// Centralized scheduling engine (paper Fig. 2b, §5.2).
//
// A dedicated dispatcher core, the one after the last worker core,
// maintains the global runqueue (owned by the policy), hands tasks to idle
// workers (sched_poll), and preempts workers whose quantum expired by
// sending user IPIs with SENDUIPI. The dispatcher is a serial resource: its
// per-dispatch occupancy bounds maximum throughput, which is how ghOSt's
// heavier kernel-transaction dispatch shows up in Fig. 7.
//
// With `core_alloc` enabled the engine also implements Shenango's core
// allocation policy (§5.2 "Multiple workloads"): a congestion check every
// 5 us reclaims cores from the best-effort application when the LC queue
// backs up, and grants idle cores to it when the LC application is quiet.
#ifndef SRC_LIBOS_CENTRAL_ENGINE_H_
#define SRC_LIBOS_CENTRAL_ENGINE_H_

#include <vector>

#include "src/libos/engine.h"
#include "src/uintr/upid.h"

namespace skyloft {

struct CentralizedEngineConfig {
  EngineConfig base;

  // Preemption quantum for LC tasks; 0 disables quantum preemption.
  DurationNs quantum = Micros(30);

  enum class Mech {
    kUserIpi,   // Skyloft: SENDUIPI through the UINTR chip model
    kModelled,  // fixed delivery/receive costs (Shinjuku posted IPIs, ghOSt)
    kNone,      // no preemption mechanism
  };
  Mech mech = Mech::kUserIpi;
  DurationNs preempt_delivery_ns = 0;  // kModelled only
  DurationNs preempt_receive_ns = 0;   // kModelled only

  // Worker-side cost of accepting a dispatched task (cache-line handoff;
  // Shinjuku reports ~100 ns).
  DurationNs dispatch_ns = 100;
  // Dispatcher-side serial occupancy per dispatch decision.
  DurationNs dispatch_occupancy_ns = 50;

  // Shenango-style core allocation (Fig. 7b/7c).
  bool core_alloc = false;
};

class CentralizedEngine : public Engine {
 public:
  CentralizedEngine(Machine* machine, UintrChip* chip, KernelSim* kernel, SchedPolicy* policy,
                    CentralizedEngineConfig config);

  void Start() override;

  // Registers `app` as the co-located best-effort application. Its work is
  // an endless stream of 1 ms chunks on whatever cores the allocator
  // grants. Requires core_alloc (otherwise the app never runs, reproducing
  // Shinjuku's zero BE share in Fig. 7c).
  void AttachBestEffortApp(App* app);

  // Number of workers currently owned by the best-effort app.
  int BestEffortWorkers() const;

  std::uint64_t preempts_sent() const { return preempts_sent_; }

 protected:
  void OnWorkerFree(int worker, DurationNs overhead_ns) override;
  void OnTaskAvailable(int worker_hint) override;
  void OnAssigned(int worker) override;
  void OnUnassigned(int worker) override;

 private:
  enum class Owner { kLc, kBe };

  bool Dispatch(int worker, DurationNs overhead_ns);
  void ArmQuantum(int worker);
  void QuantumExpired(int worker, std::uint64_t gen);
  void SendPreempt(int worker);
  void OnPreemptIpi(int worker, const UintrFrame& frame);
  void AllocatorTick();
  void GrantCore(int worker);
  void ReclaimCore(int worker);
  void ResumeBatch(int worker, DurationNs overhead_ns);
  DurationNs DispatcherOccupy(DurationNs occupancy_ns);

  CentralizedEngineConfig ccfg_;
  const CoreId dispatcher_core_;
  std::vector<Upid> preempt_upids_;
  std::vector<int> preempt_uitt_;
  std::vector<std::uint64_t> assign_gen_;
  std::vector<std::uint64_t> preempt_target_gen_;
  std::vector<EventId> quantum_ev_;
  std::vector<Owner> owner_;
  std::vector<Task*> be_tasks_;
  App* be_app_ = nullptr;
  TimeNs dispatcher_free_at_ = 0;
  std::uint64_t preempts_sent_ = 0;
};

}  // namespace skyloft

#endif  // SRC_LIBOS_CENTRAL_ENGINE_H_
