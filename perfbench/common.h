// Shared pieces of the repository benchmark (see README.md here): the run
// specification, the per-workload outcome, exact-percentile sample sets, the
// input digest, and the in-memory span log used by traced runs.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Peak resident set of this process so far, in MB. Workloads read it when
// set-up ends, before the benchmark's own sample buffers grow.
inline double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

// What one workload run is asked to do.
struct RunSpec {
  std::uint64_t seed = 1;
  double seconds = 10;  // measured span (wall, or the sim's wall-calibrated span)
  bool traced = false;  // record spans and per-layer metrics
  int setup_reps = 1;   // set-up repetitions; setup_s is their median
};

// Everything a workload run reports. `e2e` holds the end-to-end metrics
// (throughput_per_s, p50_us, p99_us, setup_s, rss_mb) plus the whole-run
// p999_us and, for the simulation, its wall-clock speed wall_rps; `layer`
// holds the per-layer metrics the workload owns, filled only when traced.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;       // resets, shed or unanswered requests
  std::uint64_t wrong = 0;        // replies that fail the output checks
  std::string first_wrong;        // description of the first wrong output
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  std::map<std::string, std::string> meta;

  void Wrong(const std::string& what) {
    if (wrong++ == 0) {
      first_wrong = what;
    }
  }
};

// A set of timing samples with exact order statistics.
class Samples {
 public:
  void Add(std::int64_t x) {
    v_.push_back(x);
    sorted_ = false;
  }
  void Append(const Samples& other) {
    v_.insert(v_.end(), other.v_.begin(), other.v_.end());
    sorted_ = false;
  }
  std::size_t size() const { return v_.size(); }

  // Nearest-rank percentile, q in [0, 1]; 0 when empty.
  double Percentile(double q) {
    if (v_.empty()) {
      return 0;
    }
    if (!sorted_) {
      std::sort(v_.begin(), v_.end());
      sorted_ = true;
    }
    const auto last = static_cast<double>(v_.size() - 1);
    return static_cast<double>(v_[static_cast<std::size_t>(q * last + 0.5)]);
  }
  double Max() { return Percentile(1.0); }

 private:
  std::vector<std::int64_t> v_;
  bool sorted_ = true;
};

// Median of a small set of values (set-up repetitions, window rates).
inline double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Latency samples split into 100 ms windows of the measured span. A
// percentile is the median over windows of that window's percentile: a
// millisecond-scale host stall (vCPU steal) inflates the tail of the few
// windows it lands in, not the reported value. At the benchmark's request
// rates a window still holds at least ten samples beyond its p99.
class WindowedSamples {
 public:
  static constexpr std::int64_t kWindowNs = 100'000'000;

  WindowedSamples(std::int64_t start_ns, double seconds)
      : start_ns_(start_ns),
        windows_(std::max<std::size_t>(1, static_cast<std::size_t>(seconds * 1e9 / kWindowNs))) {}

  // Records latency `x` of a request due (or completed) at `at_ns`.
  void Add(std::int64_t at_ns, std::int64_t x) {
    const auto w = static_cast<std::size_t>(std::max<std::int64_t>(0, at_ns - start_ns_) /
                                            kWindowNs);
    windows_[std::min(w, windows_.size() - 1)].Add(x);
    all_.Add(x);
  }

  double Percentile(double q) {
    std::vector<double> per_window;
    for (Samples& w : windows_) {
      if (w.size() > 0) {
        per_window.push_back(w.Percentile(q));
      }
    }
    return Median(per_window);
  }
  Samples& all() { return all_; }

 private:
  std::int64_t start_ns_;
  std::vector<Samples> windows_;
  Samples all_;
};

// FNV-1a digest of a generated input stream: two runs with the same seed
// print the same digest.
class Digest {
 public:
  void Add(std::string_view bytes) {
    for (const char c : bytes) {
      h_ = (h_ ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    }
  }
  void Add(std::uint64_t x) {
    for (int i = 0; i < 8; i++) {
      h_ = (h_ ^ ((x >> (8 * i)) & 0xff)) * 1099511628211ull;
    }
  }
  std::string Hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

// In-memory span log of a traced run. A span is one call into a layer's
// public function, timed from the benchmark side; spans of one request share
// `req` and point at the request's root span through `parent`. Recording is
// a vector append; statistics and the file are produced after the run.
class SpanLog {
 public:
  static constexpr std::uint64_t kNoParent = 0;
  static constexpr std::size_t kMaxWritten = 50'000;  // per run, in the file

  // Reserves an id for a span whose children are recorded before it ends.
  std::uint64_t NextId() { return ++last_id_; }

  // `name` must be a string literal (it is stored, not copied).
  void Add(const char* name, std::int64_t start, std::int64_t end, std::uint64_t req,
           std::uint64_t parent, std::uint64_t id = 0) {
    spans_.push_back(Span{name, id != 0 ? id : NextId(), parent, req, start, end});
  }

  // Exact percentile of the durations of every span named `name`.
  double DurationPercentile(std::string_view name, double q) const {
    Samples durations;
    for (const Span& s : spans_) {
      if (name == s.name) {
        durations.Add(s.end - s.start);
      }
    }
    return durations.Percentile(q);
  }

  // Writes the first kMaxWritten spans to `f`, one JSON object per line,
  // tagged with `run`.
  void WriteJsonLines(std::FILE* f, const char* run) const {
    const std::size_t n = std::min(spans_.size(), kMaxWritten);
    for (std::size_t i = 0; i < n; i++) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"run\":\"%s\",\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,\"req\":%llu,"
                   "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   run, s.name, static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.req), static_cast<long long>(s.start),
                   static_cast<long long>(s.end));
    }
    if (spans_.size() > n) {
      std::fprintf(f, "{\"run\":\"%s\",\"unwritten_spans\":%zu}\n", run, spans_.size() - n);
    }
  }

 private:
  struct Span {
    const char* name;
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t req;
    std::int64_t start;
    std::int64_t end;
  };

  std::vector<Span> spans_;
  std::uint64_t last_id_ = 0;
};

// Workload entry points. `spans` is null unless spec.traced.
Outcome RunKvGetClosed(const RunSpec& spec, SpanLog* spans);
Outcome RunKvMixOpen(const RunSpec& spec, SpanLog* spans);
Outcome RunUthreadRing(const RunSpec& spec, SpanLog* spans);
Outcome RunSimDispersive(const RunSpec& spec, SpanLog* spans);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
