// Shared pieces of the perfbench program: a seeded PRNG, order statistics,
// the result line, and the in-memory span log of the traced run.
//
// Everything here sits outside the optimizer: the benchmark times its own
// calls into each layer's public functions and adds no code to the program.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double NsToUs(int64_t ns) { return static_cast<double>(ns) / 1e3; }
inline double NsToS(int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// splitmix64: the same seed gives the same stream on every platform and
/// standard library, unlike the <random> distributions.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }

  /// Uniform in [lo, hi].
  int Range(int lo, int hi) {
    return lo + static_cast<int>(Below(static_cast<uint64_t>(hi - lo + 1)));
  }

  bool Chance(double p) {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53 < p;
  }

  template <class T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[Below(i)]);
  }

 private:
  uint64_t state_;
};

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) {
  return Quantile(std::move(v), 0.5);
}

/// Where the calm-host estimators read, as a share of a run's samples from
/// the fast end: its 100-ms windows for the time metrics, its set-up
/// samples for setup_s. The shared host switches every few seconds between
/// a calm state and one in which all code runs up to 1.8x slower (README.md,
/// "Host noise"), so the fast end of many short samples is the program's
/// own speed, while a whole-run figure mostly tells how long the host was
/// calm.
constexpr double kCalmWindowQuantile = 0.02;
constexpr double kCalmSetUpQuantile = 0.1;

/// The timed phase of an untraced run: whole rounds of ops until the
/// deadline, cut at round ends into windows of at least kWindowNs of timed
/// rounds. Each window yields its ops per second and its per-op latency
/// p50 and p90; a run reports, for each, the value of its calmest windows
/// (kCalmWindowQuantile from the fast end over the run's windows). Window
/// latencies go to a fixed, pre-touched buffer, so the benchmark's own
/// memory does not grow with the op count and peak_rss_mb measures the
/// program.
class TimedPhase {
 public:
  static constexpr int64_t kWindowNs = 100'000'000;
  /// EndRound reports a checkpoint after each kCheckpointNs of timed
  /// rounds; the runs take one more set-up sample there.
  static constexpr int64_t kCheckpointNs = 1'000'000'000;
  /// A window also ends once it holds half this many ops.
  static constexpr size_t kWindowCapacity = size_t{1} << 15;

  explicit TimedPhase(double seconds);

  bool More() const { return NowNs() < deadline_ns_; }
  void StartRound() { round_start_ns_ = prev_ns_ = NowNs(); }
  void OpDone();
  /// Ends a round; returns true at a checkpoint.
  bool EndRound();
  /// After the last round: keeps the partial last window only if no window
  /// closed (a run shorter than one window).
  void Finish() {
    if (p50_us_.empty()) CloseWindow();
  }

  /// Ops per second of timed rounds, in the calm windows.
  double OpsPerSecond() const;
  /// Per-op latency p50 and p90, in the calm windows.
  double P50Us() const;
  double P90Us() const;

 private:
  void CloseWindow();

  int64_t deadline_ns_;
  int64_t round_start_ns_ = 0;
  int64_t prev_ns_ = 0;
  int64_t window_ns_ = 0;
  int64_t since_checkpoint_ns_ = 0;
  size_t window_ops_ = 0;
  std::vector<double> window_us_;  // latencies of the open window
  std::vector<double> ops_per_s_, p50_us_, p90_us_;  // one per closed window
};

/// Process peak resident set size.
double PeakRssMb();

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 0.0;  ///< required: BENCHMARK.json run_seconds
  bool trace = false;
  std::string spans_path;  ///< traced run: spans file ("" = not written)
};

/// The result line: correctness accounting plus named metrics.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  bool Has(const std::string& name) const;

  /// Counts ops against the run: every op is attempted, a failed one is
  /// also counted failed.
  void Op(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }

  /// A whole-run gate (digest, plan validity, ...) that is not an op.
  void Gate(bool ok, const std::string& what);

  std::string Json() const;

  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool gates_ok = true;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
};

/// One set-up sample for setup_s: runs `set_up` in a child process, so the
/// set-up's memory never counts toward this process's peak RSS, and appends
/// the seconds `set_up` measured to `samples` (a failed child sets a
/// whole-run gate instead). The child has only the calling thread, so call it
/// between rounds, when every request has been answered and no other
/// thread of this process is inside the program.
void SampleSetUp(const std::function<double()>& set_up,
                 std::vector<double>* samples, Report* report);

/// In-memory spans of the traced run: name, start, end, parent span and
/// request id. Written out at exit; summarized into per-layer self time.
class SpanLog {
 public:
  using Id = int32_t;
  static constexpr Id kNone = -1;

  /// Opens a span whose parent is the innermost open span.
  Id Begin(const char* name, uint64_t request);
  void End(Id id);

  /// Records an already-finished span with explicit timestamps (used for
  /// times taken on another thread).
  Id Add(const char* name, int64_t start_ns, int64_t end_ns, Id parent,
         uint64_t request);

  /// Durations in microseconds of every span called `name`.
  std::vector<double> DurationsUs(std::string_view name) const;

  /// Per span name: count, total and p50 self time (duration minus the part
  /// covered by direct children).
  void PrintSummary(FILE* out) const;

  /// One JSON object per line.
  bool Write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    Id parent;
    uint64_t request;
  };
  std::vector<Span> spans_;
  std::vector<Id> open_;
};

/// RAII span on an optional log (null = untraced, no cost beyond a branch).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t request)
      : log_(log), id_(log ? log->Begin(name, request) : SpanLog::kNone) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  SpanLog::Id id_;
};

// --- workloads (one closed-loop client each) --------------------------------

void RunServeHot(const Args& args, Report* report);
void RunServeChurn(const Args& args, Report* report);
void RunTpchExec(const Args& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
