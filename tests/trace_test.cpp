// Tests for the cross-layer scheduling tracer: ring semantics, chrome-trace
// JSON emission (golden strings), sim-engine integration, and host-runtime
// integration (including the preemption signal path).
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstring>
#include <memory>
#include <string>

#include "src/simcore/simulation.h"
#include "src/base/trace.h"
#include "src/libos/percpu_engine.h"
#include "src/policies/round_robin.h"
#include "src/runtime/uthread.h"

namespace skyloft {
namespace {

TEST(TracerTest, RecordsInOrder) {
  SchedTracer tracer(16);
  tracer.Record(10, TraceEventType::kAssign, 0, 1, 0);
  tracer.Record(20, TraceEventType::kPreempt, 0, 1, 0);
  const auto events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].when, 10);
  EXPECT_EQ(events[1].type, TraceEventType::kPreempt);
  EXPECT_EQ(tracer.total_recorded(), 2u);
}

TEST(TracerTest, RingOverwritesOldest) {
  SchedTracer tracer(4);
  for (int i = 0; i < 10; i++) {
    tracer.Record(i, TraceEventType::kAssign, 0, static_cast<std::uint64_t>(i), 0);
  }
  const auto events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().when, 6);
  EXPECT_EQ(events.back().when, 9);
  EXPECT_EQ(tracer.total_recorded(), 10u);
}

TEST(TracerTest, WrapAroundAccounting) {
  // Retained window vs lifetime count: 6 events through a 4-slot ring.
  SchedTracer tracer(4);
  for (int i = 0; i < 6; i++) {
    tracer.Record(i, i % 2 == 0 ? TraceEventType::kAssign : TraceEventType::kPreempt, 0,
                  static_cast<std::uint64_t>(i), 0);
  }
  EXPECT_EQ(tracer.total_recorded(), 6u);
  EXPECT_EQ(tracer.size(), 4u);
  // CountOf covers only the retained window: events 2..5 (two of each type).
  EXPECT_EQ(tracer.CountOf(TraceEventType::kAssign), 2u);
  EXPECT_EQ(tracer.CountOf(TraceEventType::kPreempt), 2u);
  // Snapshot is oldest-retained-first across the wrap seam.
  const auto events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < events.size(); i++) {
    EXPECT_EQ(events[i].when, static_cast<TimeNs>(i + 2));
  }
}

TEST(TracerTest, ClearResets) {
  SchedTracer tracer(4);
  tracer.Record(1, TraceEventType::kAssign, 0, 1, 0);
  tracer.Clear();
  EXPECT_TRUE(tracer.Snapshot().empty());
  EXPECT_EQ(tracer.total_recorded(), 0u);
}

// ---- JSON emission (golden strings) ----

TEST(TracerJsonTest, InstantGoldenString) {
  // Instants must carry the mandatory "s" scope and fractional-µs "ts" —
  // chrome://tracing drops scopeless instants and integer-µs timestamps
  // collapse sub-µs events onto each other.
  TraceEvent event;
  event.when = 1500;  // 1.5 µs
  event.type = TraceEventType::kAssign;
  event.worker = 2;
  event.task_id = 7;
  event.app_id = 1;
  char buf[256];
  EXPECT_STREQ(TraceEventToJson(event, buf, sizeof(buf)),
               "{\"name\":\"assign\",\"ph\":\"i\",\"s\":\"t\",\"ts\":1.500,"
               "\"pid\":1,\"tid\":2,\"args\":{\"task\":7}}");
}

TEST(TracerJsonTest, SubMicrosecondTimestampIsNotTruncated) {
  // Regression: ts was previously when/1000 in integer arithmetic, so a
  // 999 ns event serialized as ts:0 — indistinguishable from time zero.
  TraceEvent event;
  event.when = 999;
  event.type = TraceEventType::kFault;
  event.worker = 0;
  event.task_id = 1;
  event.app_id = 0;
  char buf[256];
  const std::string json = TraceEventToJson(event, buf, sizeof(buf));
  EXPECT_NE(json.find("\"ts\":0.999"), std::string::npos) << json;
}

TEST(TracerJsonTest, SpanGoldenString) {
  TraceEvent event;
  event.when = 2000;
  event.dur = 500;
  event.type = TraceEventType::kRun;
  event.worker = 0;
  event.task_id = 42;
  event.app_id = 3;
  char buf[256];
  EXPECT_STREQ(TraceEventToJson(event, buf, sizeof(buf)),
               "{\"name\":\"run\",\"ph\":\"X\",\"ts\":2.000,\"dur\":0.500,"
               "\"pid\":3,\"tid\":0,\"args\":{\"task\":42}}");
}

TEST(TracerJsonTest, RingWrapGoldenString) {
  // After overflow, ToJson must emit only the retained window, oldest first.
  SchedTracer tracer(2);
  tracer.Record(1000, TraceEventType::kAssign, 0, 1, 0);
  tracer.Record(2000, TraceEventType::kAssign, 0, 2, 0);
  tracer.Record(3000, TraceEventType::kAssign, 0, 3, 0);
  EXPECT_EQ(tracer.ToJson(),
            "[{\"name\":\"assign\",\"ph\":\"i\",\"s\":\"t\",\"ts\":2.000,"
            "\"pid\":0,\"tid\":0,\"args\":{\"task\":2}},"
            "{\"name\":\"assign\",\"ph\":\"i\",\"s\":\"t\",\"ts\":3.000,"
            "\"pid\":0,\"tid\":0,\"args\":{\"task\":3}}]");
}

TEST(TracerTest, JsonIsWellFormedIsh) {
  SchedTracer tracer(8);
  tracer.Record(1000, TraceEventType::kAppSwitch, 2, 7, 1);
  const std::string json = tracer.ToJson();
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_NE(json.find("\"app_switch\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\":2"), std::string::npos);
  EXPECT_NE(json.find("\"task\":7"), std::string::npos);
}

// ---- Sim-engine integration ----

struct Rig {
  Rig() {
    MachineConfig mcfg;
    mcfg.num_cores = 1;
    machine = std::make_unique<Machine>(&sim, mcfg);
    chip = std::make_unique<UintrChip>(machine.get());
    kernel = std::make_unique<KernelSim>(machine.get(), chip.get());
  }
  Simulation sim;
  std::unique_ptr<Machine> machine;
  std::unique_ptr<UintrChip> chip;
  std::unique_ptr<KernelSim> kernel;
};

TEST(TracerTest, EngineEmitsLifecycleEvents) {
  Rig rig;
  RoundRobinPolicy policy(Micros(50));
  PerCpuEngineConfig cfg;
  cfg.base.worker_cores = {0};
  cfg.timer_hz = 100'000;
  cfg.tick_path = TickPath::kUserTimer;
  PerCpuEngine engine(rig.machine.get(), rig.chip.get(), rig.kernel.get(), &policy, cfg);
  App* app_a = engine.CreateApp("a");
  App* app_b = engine.CreateApp("b");
  engine.Start();
  SchedTracer tracer;
  engine.SetTracer(&tracer);

  // Two CPU hogs from different apps on one core: expect assigns, preempts
  // (RR slices), app switches, and occupancy spans.
  engine.Submit(engine.NewTask(app_a, Millis(1)));
  engine.Submit(engine.NewTask(app_b, Millis(1)));
  rig.sim.RunUntil(Millis(5));

  EXPECT_GT(tracer.CountOf(TraceEventType::kAssign), 10u);
  EXPECT_GT(tracer.CountOf(TraceEventType::kPreempt), 10u);
  EXPECT_GT(tracer.CountOf(TraceEventType::kAppSwitch), 10u);
  EXPECT_GT(tracer.CountOf(TraceEventType::kRun), 10u);
  EXPECT_EQ(tracer.CountOf(TraceEventType::kSegmentEnd), 2u);

  // Instant timestamps must be monotonically non-decreasing. Spans are
  // excluded: a kRun span is recorded when the segment ENDS but carries the
  // segment's start time, so it legitimately sorts before nearby instants.
  const auto events = tracer.Snapshot();
  TimeNs last_instant = 0;
  for (const TraceEvent& event : events) {
    if (event.dur >= 0) {
      EXPECT_GE(event.dur, 0);
      continue;
    }
    EXPECT_LE(last_instant, event.when);
    last_instant = event.when;
  }
}

TEST(TracerTest, FaultEventsTraced) {
  Rig rig;
  RoundRobinPolicy policy(kInfiniteSlice);
  PerCpuEngineConfig cfg;
  cfg.base.worker_cores = {0};
  cfg.tick_path = TickPath::kNone;
  PerCpuEngine engine(rig.machine.get(), rig.chip.get(), rig.kernel.get(), &policy, cfg);
  App* app = engine.CreateApp("a");
  engine.Start();
  SchedTracer tracer;
  engine.SetTracer(&tracer);
  engine.Submit(engine.NewTask(app, Millis(1)));
  rig.sim.ScheduleAt(Micros(100), [&] { engine.InjectPageFault(0, Micros(200)); });
  rig.sim.RunUntil(Millis(10));
  EXPECT_EQ(tracer.CountOf(TraceEventType::kFault), 1u);
  EXPECT_EQ(tracer.CountOf(TraceEventType::kFaultDone), 1u);
  // The stall also shows up as one duration span covering the fault latency.
  EXPECT_EQ(tracer.CountOf(TraceEventType::kFaultStall), 1u);
  for (const TraceEvent& event : tracer.Snapshot()) {
    if (event.type == TraceEventType::kFaultStall) {
      EXPECT_EQ(event.dur, Micros(200));
    }
  }
}

// ---- Host-runtime integration ----

TEST(TracerHostTest, RuntimeEmitsAssignRunAndSignalEvents) {
  SchedTracer tracer(1 << 14);
  RuntimeOptions opts{.workers = 1, .preempt_period_us = 2000};
  opts.tracer = &tracer;
  Runtime rt(opts);
  std::atomic<bool> hog_running{true};
  rt.Run([&] {
    UThread* hog = Runtime::Spawn([&] {
      volatile std::uint64_t x = 0;
      while (hog_running.load(std::memory_order_relaxed)) {
        x = x + 1;
      }
    });
    UThread* other = Runtime::Spawn([&] { hog_running.store(false); });
    Runtime::Join(other);
    Runtime::Join(hog);
  });
  // Run() joined all workers, so reads are quiesced. The hog can only have
  // been broken by a preemption, which implies the full signal-path chain:
  // an accepted signal instant, a preempt instant, and occupancy spans.
  EXPECT_GT(rt.preemptions(), 0u);
  EXPECT_GT(tracer.CountOf(TraceEventType::kAssign), 0u);
  EXPECT_GT(tracer.CountOf(TraceEventType::kRun), 0u);
  EXPECT_GT(tracer.CountOf(TraceEventType::kPreempt), 0u);
  EXPECT_GT(tracer.CountOf(TraceEventType::kSignal), 0u);
  for (const TraceEvent& event : tracer.Snapshot()) {
    if (event.type == TraceEventType::kRun) {
      EXPECT_GE(event.dur, 0);
    }
  }
}

// ---- Cross-substrate trace document ----

// Minimal recursive-descent JSON validator: enough of RFC 8259 to prove the
// emitted document parses (objects, arrays, strings, numbers, literals).
class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text)
      : p_(text.c_str()), end_(p_ + text.size()) {}
  bool Validate() {
    SkipWs();
    if (!Value()) {
      return false;
    }
    SkipWs();
    return p_ == end_;
  }

 private:
  bool Value() {
    SkipWs();
    if (p_ == end_) {
      return false;
    }
    switch (*p_) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }
  bool Object() {
    ++p_;
    SkipWs();
    if (p_ != end_ && *p_ == '}') {
      ++p_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!String()) {
        return false;
      }
      SkipWs();
      if (p_ == end_ || *p_ != ':') {
        return false;
      }
      ++p_;
      if (!Value()) {
        return false;
      }
      SkipWs();
      if (p_ == end_) {
        return false;
      }
      if (*p_ == ',') {
        ++p_;
        continue;
      }
      if (*p_ == '}') {
        ++p_;
        return true;
      }
      return false;
    }
  }
  bool Array() {
    ++p_;
    SkipWs();
    if (p_ != end_ && *p_ == ']') {
      ++p_;
      return true;
    }
    while (true) {
      if (!Value()) {
        return false;
      }
      SkipWs();
      if (p_ == end_) {
        return false;
      }
      if (*p_ == ',') {
        ++p_;
        continue;
      }
      if (*p_ == ']') {
        ++p_;
        return true;
      }
      return false;
    }
  }
  bool String() {
    if (p_ == end_ || *p_ != '"') {
      return false;
    }
    ++p_;
    while (p_ != end_ && *p_ != '"') {
      if (*p_ == '\\') {
        ++p_;
        if (p_ == end_) {
          return false;
        }
      }
      ++p_;
    }
    if (p_ == end_) {
      return false;
    }
    ++p_;
    return true;
  }
  bool Number() {
    const char* start = p_;
    if (p_ != end_ && *p_ == '-') {
      ++p_;
    }
    while (p_ != end_ && (std::isdigit(static_cast<unsigned char>(*p_)) != 0 || *p_ == '.' ||
                          *p_ == 'e' || *p_ == 'E' || *p_ == '+' || *p_ == '-')) {
      ++p_;
    }
    return p_ != start;
  }
  bool Literal(const char* lit) {
    const std::size_t n = std::strlen(lit);
    if (static_cast<std::size_t>(end_ - p_) < n || std::strncmp(p_, lit, n) != 0) {
      return false;
    }
    p_ += n;
    return true;
  }
  void SkipWs() {
    while (p_ != end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r')) {
      ++p_;
    }
  }
  const char* p_;
  const char* end_;
};

TEST(TracerCrossSubstrateTest, CombinedTraceIsValidChromeJson) {
  // Sim slice: RR engine with two competing apps emits spans and instants.
  SchedTracer sim_tracer;
  {
    Rig rig;
    RoundRobinPolicy policy(Micros(50));
    PerCpuEngineConfig cfg;
    cfg.base.worker_cores = {0};
    cfg.timer_hz = 100'000;
    cfg.tick_path = TickPath::kUserTimer;
    PerCpuEngine engine(rig.machine.get(), rig.chip.get(), rig.kernel.get(), &policy, cfg);
    App* app_a = engine.CreateApp("a");
    App* app_b = engine.CreateApp("b");
    engine.Start();
    engine.SetTracer(&sim_tracer);
    engine.Submit(engine.NewTask(app_a, Millis(1)));
    engine.Submit(engine.NewTask(app_b, Millis(1)));
    rig.sim.RunUntil(Millis(3));
  }
  // Host slice: preemptible runtime with the same tracer type.
  SchedTracer host_tracer(1 << 14);
  {
    RuntimeOptions opts{.workers = 1, .preempt_period_us = 2000};
    opts.tracer = &host_tracer;
    Runtime rt(opts);
    std::atomic<bool> hog_running{true};
    rt.Run([&] {
      UThread* hog = Runtime::Spawn([&] {
        volatile std::uint64_t x = 0;
        while (hog_running.load(std::memory_order_relaxed)) {
          x = x + 1;
        }
      });
      UThread* other = Runtime::Spawn([&] { hog_running.store(false); });
      Runtime::Join(other);
      Runtime::Join(hog);
    });
  }

  const std::string sim_json = sim_tracer.ToJson();
  const std::string host_json = host_tracer.ToJson();
  // Duration events must come from BOTH substrates.
  EXPECT_NE(sim_json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(host_json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_TRUE(JsonValidator(sim_json).Validate());
  EXPECT_TRUE(JsonValidator(host_json).Validate());

  // Splice both arrays into one combined trace document, as trace_demo does.
  ASSERT_GT(sim_json.size(), 2u);
  ASSERT_GT(host_json.size(), 2u);
  std::string combined = "[";
  combined.append(sim_json, 1, sim_json.size() - 2).append(",");
  combined.append(host_json, 1, host_json.size() - 2).append("]");
  EXPECT_TRUE(JsonValidator(combined).Validate());
}

}  // namespace
}  // namespace skyloft
