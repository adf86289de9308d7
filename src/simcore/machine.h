// Simulated machine topology.
//
// Mirrors the paper's server: two sockets, 24 cores each, 2.0 GHz. Only the
// pieces relevant to scheduling are modeled: core ids, NUMA placement (user
// IPI costs differ across sockets, Table 6), and the shared cost model.
//
// A Machine is scoped to one Simulation: every event the machine's
// components schedule lands on that simulation's queue.
#ifndef SRC_SIMCORE_MACHINE_H_
#define SRC_SIMCORE_MACHINE_H_

#include <vector>

#include "src/base/logging.h"
#include "src/simcore/cost_model.h"
#include "src/simcore/simulation.h"

namespace skyloft {

using CoreId = int;
inline constexpr CoreId kInvalidCore = -1;

struct MachineConfig {
  int num_cores = 24;
  int cores_per_socket = 24;
  CostModel costs;
};

class Machine {
 public:
  Machine(Simulation* sim, MachineConfig config) : sim_(sim), config_(config) {
    SKYLOFT_CHECK(config.num_cores > 0);
    SKYLOFT_CHECK(config.cores_per_socket > 0);
  }

  Simulation& sim() { return *sim_; }
  const MachineConfig& config() const { return config_; }
  const CostModel& costs() const { return config_.costs; }
  int num_cores() const { return config_.num_cores; }

  int SocketOf(CoreId core) const {
    SKYLOFT_DCHECK(core >= 0 && core < config_.num_cores);
    return core / config_.cores_per_socket;
  }

  bool CrossNuma(CoreId a, CoreId b) const { return SocketOf(a) != SocketOf(b); }

 private:
  Simulation* sim_;
  MachineConfig config_;
};

}  // namespace skyloft

#endif  // SRC_SIMCORE_MACHINE_H_
