// Table 4: lines of code per scheduling policy.
//
// The paper's point: against Skyloft's Table 2 operations, each policy is a
// few hundred lines (vs thousands inside the Linux kernel or ghOSt agents).
// This benchmark counts the actual implementation lines of this repository's
// policies (headers + sources, excluding blanks and pure comment lines) and
// prints them next to the paper's numbers.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"

#ifndef SKYLOFT_SOURCE_DIR
#define SKYLOFT_SOURCE_DIR "."
#endif

namespace {

skyloft::BenchReporter* g_reporter = nullptr;

int CountLoc(const std::vector<std::string>& files) {
  int loc = 0;
  for (const std::string& file : files) {
    std::ifstream in(std::string(SKYLOFT_SOURCE_DIR) + "/" + file);
    if (!in) {
      // A missing file would silently shrink its row.
      std::fprintf(stderr, "error: cannot open %s\n", file.c_str());
      std::exit(1);
    }
    std::string line;
    bool in_block_comment = false;
    while (std::getline(in, line)) {
      std::size_t i = line.find_first_not_of(" \t");
      if (i == std::string::npos) {
        continue;  // blank
      }
      if (in_block_comment) {
        if (line.find("*/") != std::string::npos) {
          in_block_comment = false;
        }
        continue;
      }
      if (line.compare(i, 2, "//") == 0) {
        continue;  // comment line
      }
      if (line.compare(i, 2, "/*") == 0 && line.find("*/") == std::string::npos) {
        in_block_comment = true;
        continue;
      }
      loc++;
    }
  }
  return loc;
}

void Row(const char* name, int paper_loc, int ours) {
  std::printf("%-38s %10d %12d\n", name, paper_loc, ours);
  g_reporter->AddRow().Str("scheduler", name).Int("paper_loc", paper_loc).Int("repo_loc", ours);
}

}  // namespace

int main() {
  skyloft::BenchReporter reporter("table4_loc");
  g_reporter = &reporter;
  std::printf("=== Table 4: lines of code per scheduler ===\n");
  std::printf("%-38s %10s %12s\n", "scheduler", "paper LOC", "this repo");
  Row("Linux CFS (kernel/sched/fair.c)", 6592, 0);
  Row("Linux RT (kernel/sched/rt.c)", 1939, 0);
  Row("Linux EEVDF (v6.8 fair.c)", 7102, 0);
  Row("ghOSt Shinjuku", 710, 0);
  Row("ghOSt Shinjuku-Shenango", 727, 0);
  Row("Skyloft Round-Robin",
      141, CountLoc({"src/policies/round_robin.h", "src/policies/round_robin.cpp"}));
  Row("Skyloft CFS", 430, CountLoc({"src/policies/cfs.h", "src/policies/cfs.cpp"}));
  Row("Skyloft EEVDF", 579, CountLoc({"src/policies/eevdf.h", "src/policies/eevdf.cpp"}));
  Row("Skyloft Shinjuku",
      192, CountLoc({"src/policies/shinjuku.h", "src/policies/shinjuku.cpp"}));
  Row("Skyloft Shinjuku-Shenango (policy+alloc)", 444,
      CountLoc({"src/policies/shinjuku.h", "src/policies/shinjuku.cpp",
                "src/libos/central_engine.h"}));
  Row("Skyloft Work-Stealing (Preemptive)", 150,
      CountLoc({"src/policies/work_stealing.h", "src/policies/work_stealing.cpp"}));
  // Not a policy: the substrate-neutral Table 2 interface every policy above
  // is written against (SchedItem + SchedPolicy/EngineView). The paper gives
  // no LOC for it; the point is that under 100 lines of interface buy both
  // the simulated engines and the real host runtime.
  Row("Table 2 interface (shared src/sched)", 0,
      CountLoc({"src/sched/sched_item.h", "src/sched/policy.h"}));
  std::printf(
      "\nShape check: every Skyloft policy lands in the hundreds of lines,\n"
      "one to two orders of magnitude below the kernel implementations.\n"
      "The same policy sources count for BOTH substrates: they include only\n"
      "src/sched and link into the simulator and the host runtime unchanged.\n");
  reporter.WriteFile();
  return 0;
}
