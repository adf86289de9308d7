// perfbench: the repository benchmark's measuring binary (see README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <file>]
//
// Untraced (--trace 0), it runs one workload and prints every end-to-end
// metric. Traced (--trace 1), it runs the workload untraced and then traced
// for half of --seconds each (their difference is the tracing overhead),
// traces a short run of every other workload, and prints every per-layer
// metric, each taken from the workload that owns it. Before the result it
// prints a meta line; the last line is the result object.
#include <sched.h>
#include <sys/utsname.h>

#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/common.h"

namespace perfbench {
namespace {

// Client threads plus server workers of each workload; the benchmark
// refuses a workload whose sum exceeds the host's hardware threads.
struct Footprint {
  int client_threads;
  int server_workers;
  int connections;
};

struct Workload {
  const char* name;
  Outcome (*run)(const RunSpec&, SpanLog*);
  int setup_reps;
  Footprint footprint;
  // Tracing overhead is the relative loss on this metric of the workload's
  // Outcome::e2e: the open loop's throughput is its offered rate, so it uses
  // p50 latency, and the simulation's throughput is modelled, so it uses the
  // simulator's wall-clock speed.
  const char* overhead_metric;
  bool overhead_higher_is_better;
};

const Workload kWorkloads[] = {
    {"kv-get-closed", RunKvGetClosed, 3, {1, 2, 1}, "throughput_per_s", true},
    {"kv-mix-open", RunKvMixOpen, 3, {1, 1, 4}, "p50_us", false},
    {"uthread-ring", RunUthreadRing, 15, {0, 2, 0}, "throughput_per_s", true},
    {"sim-dispersive", RunSimDispersive, 9, {1, 0, 0}, "wall_rps", true},
};

struct Metric {
  const char* name;
  const char* unit;
  const char* owner;  // per-layer: the workload it is measured on
};

const Metric kEndToEnd[] = {
    {"throughput_per_s", "1/s", nullptr},
    {"p50_us", "us", nullptr},
    {"p99_us", "us", nullptr},
    {"setup_s", "s", nullptr},
    {"rss_mb", "MB", nullptr},
};

// An owner of nullptr means the workload named by --workload.
const Metric kPerLayer[] = {
    {"client.send_ns.p50", "ns", "kv-get-closed"},
    {"client.recv_ns.p50", "ns", "kv-get-closed"},
    {"client.late_us.max", "us", "kv-mix-open"},
    {"client.late_frac", "ratio", "kv-mix-open"},
    {"frame.encode_ns.p50", "ns", "kv-get-closed"},
    {"frame.decode_ns.p50", "ns", "kv-get-closed"},
    {"io.syscalls_per_req", "count", "kv-get-closed"},
    {"io.mix.syscalls_per_req", "count", "kv-mix-open"},
    {"kv.get_ns.p50", "ns", "kv-get-closed"},
    {"kv.get_ns.p99", "ns", "kv-get-closed"},
    {"kv.replay.get_ns.p50", "ns", "kv-get-closed"},
    {"kv.mix.get_ns.p50", "ns", "kv-mix-open"},
    {"kv.set_ns.p50", "ns", "kv-mix-open"},
    {"kv.set_ns.p99", "ns", "kv-mix-open"},
    {"kv.scan_ns.p50", "ns", "kv-mix-open"},
    {"kv.scan_ns.p99", "ns", "kv-mix-open"},
    {"kv.replay.scan_ns.p50", "ns", "kv-mix-open"},
    {"kv.scan_keys_per_reply", "count", "kv-mix-open"},
    {"kv.preload_s", "s", "kv-get-closed"},
    {"rt.steals_per_req", "count", "kv-get-closed"},
    {"rt.unpark_ns.p50", "ns", "uthread-ring"},
    {"rt.wake_ns.p50", "ns", "uthread-ring"},
    {"rt.wake_ns.p99", "ns", "uthread-ring"},
    {"rt.steals_per_op", "count", "uthread-ring"},
    {"rt.spawn_ns.p50", "ns", "uthread-ring"},
    {"rt.join_ns.p50", "ns", "uthread-ring"},
    {"sim.events_per_req", "count", "sim-dispersive"},
    {"sim.ns_per_event", "ns", "sim-dispersive"},
    {"sim.preempts_per_req", "count", "sim-dispersive"},
    {"sim.achieved_frac", "ratio", "sim-dispersive"},
    {"sim.wall_rps", "1/s", "sim-dispersive"},
    {"e2e.p999_us", "us", nullptr},
    {"trace.overhead_frac", "ratio", nullptr},
};

constexpr double kProbeSeconds = 1.0;

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--spans <file>]\nworkloads:",
               why);
  for (const Workload& w : kWorkloads) {
    std::fprintf(stderr, " %s", w.name);
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

const Workload* Find(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

int HardwareThreads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return 1;
  }
  return CPU_COUNT(&set);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

int Main(int argc, char** argv) {
  std::string workload_name;
  std::string spans_path;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  bool have_seed = false;
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      Usage(("missing value for " + arg).c_str());
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload_name = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value, &end, 10);
      have_seed = *end == '\0';
    } else if (arg == "--seconds") {
      seconds = std::strtod(value, &end);
      if (*end != '\0') {
        seconds = 0;
      }
    } else if (arg == "--trace") {
      trace = std::strcmp(value, "0") == 0 ? 0 : std::strcmp(value, "1") == 0 ? 1 : -1;
    } else if (arg == "--spans") {
      spans_path = value;
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  const Workload* workload = Find(workload_name);
  if (workload == nullptr || !have_seed || !(seconds > 0 && seconds <= 60) || trace < 0) {
    Usage("bad or missing arguments");
  }
  // A traced run also runs every other workload.
  const int hw_threads = HardwareThreads();
  for (const Workload& w : kWorkloads) {
    const Footprint& need = w.footprint;
    if ((&w == workload || trace == 1) &&
        need.client_threads + need.server_workers > hw_threads) {
      std::fprintf(stderr,
                   "perfbench: %s needs %d client threads + %d server workers, more than the "
                   "%d hardware threads here; refusing to oversubscribe\n",
                   w.name, need.client_threads, need.server_workers, hw_threads);
      return 3;
    }
  }
  const Footprint& fp = workload->footprint;

  std::vector<Outcome> outcomes;
  outcomes.reserve(std::size(kWorkloads) + 1);  // references into it stay valid
  std::map<std::string, double> metrics;
  if (trace == 0) {
    outcomes.push_back(workload->run({seed, seconds, false, workload->setup_reps}, nullptr));
    metrics = outcomes.back().e2e;
  } else {
    // The selected workload: untraced, then traced, half of --seconds each.
    // Each traced run keeps its own span log.
    std::vector<std::pair<const char*, SpanLog>> logs(std::size(kWorkloads));
    outcomes.push_back(workload->run({seed, seconds / 2, false, 1}, nullptr));
    const Outcome& untraced = outcomes.back();
    metrics["e2e.p999_us"] = untraced.e2e.at("p999_us");
    logs[0].first = workload->name;
    outcomes.push_back(workload->run({seed, seconds / 2, true, 1}, &logs[0].second));
    const Outcome& traced = outcomes.back();
    const std::string om = workload->overhead_metric;
    const double loss = (traced.e2e.at(om) - untraced.e2e.at(om)) / untraced.e2e.at(om);
    metrics["trace.overhead_frac"] = workload->overhead_higher_is_better ? -loss : loss;
    std::map<std::string, const Outcome*> by_owner = {{workload->name, &traced}};
    // Every other workload: a short traced run for the metrics it owns.
    std::size_t next_log = 1;
    for (const Workload& other : kWorkloads) {
      if (&other == workload) {
        continue;
      }
      logs[next_log].first = other.name;
      outcomes.push_back(other.run({seed, kProbeSeconds, true, 1}, &logs[next_log].second));
      next_log++;
      by_owner[other.name] = &outcomes.back();
    }
    for (const Metric& m : kPerLayer) {
      if (m.owner == nullptr) {
        continue;
      }
      const auto& layer = by_owner.at(m.owner)->layer;
      const auto it = layer.find(m.name);
      if (it == layer.end()) {
        std::fprintf(stderr, "perfbench: %s did not report %s\n", m.owner, m.name);
        return 4;
      }
      metrics[m.name] = it->second;
    }
    if (!spans_path.empty()) {
      std::FILE* f = std::fopen(spans_path.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "perfbench: cannot write spans to %s\n", spans_path.c_str());
        return 4;
      }
      for (const auto& [run, log] : logs) {
        log.WriteJsonLines(f, run);
      }
      std::fclose(f);
    }
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;
  for (const Outcome& o : outcomes) {
    attempted += o.attempted;
    failed += o.failed;
    wrong += o.wrong;
    if (o.wrong > 0) {
      std::fprintf(stderr, "perfbench: wrong output (%llu): %s\n",
                   static_cast<unsigned long long>(o.wrong), o.first_wrong.c_str());
    }
  }

  utsname uts{};
  uname(&uts);
  const Outcome& main_run = outcomes.front();
  std::string meta = "{\"workload\":" + JsonString(workload->name) +
                     ",\"seed\":" + std::to_string(seed) + ",\"seconds\":" + Number(seconds) +
                     ",\"trace\":" + std::to_string(trace) +
                     ",\"hw_threads\":" + std::to_string(hw_threads) +
                     ",\"build_type\":" + JsonString(PERFBENCH_BUILD_TYPE) +
                     ",\"kernel\":" + JsonString(uts.release) +
                     ",\"client_threads\":" + std::to_string(fp.client_threads) +
                     ",\"server_workers\":" + std::to_string(fp.server_workers) +
                     ",\"connections\":" + std::to_string(fp.connections);
  for (const auto& [key, value] : main_run.meta) {
    meta += ',';
    meta += JsonString(key);
    meta += ':';
    meta += JsonString(value);
  }
  meta += "}";
  std::printf("meta %s\n", meta.c_str());
  if (trace == 0) {
    for (const auto& [key, value] : metrics) {
      std::printf("%-18s %s\n", key.c_str(), Number(value).c_str());
    }
  }

  std::string result = "{\"correct\":" + std::string(wrong == 0 ? "true" : "false") +
                       ",\"attempted\":" + std::to_string(std::max<std::uint64_t>(1, attempted)) +
                       ",\"failed\":" + std::to_string(failed) + ",\"metrics\":{";
  bool first = true;
  for (const Metric& m : trace == 0 ? std::vector<Metric>(std::begin(kEndToEnd),
                                                          std::end(kEndToEnd))
                                    : std::vector<Metric>(std::begin(kPerLayer),
                                                          std::end(kPerLayer))) {
    result += std::string(first ? "" : ",") + JsonString(m.name) +
              ":{\"value\":" + Number(metrics.at(m.name)) + ",\"unit\":" + JsonString(m.unit) +
              "}";
    first = false;
  }
  result += "}}";
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return wrong == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
