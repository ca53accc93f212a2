#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>

#include <sys/wait.h>
#include <unistd.h>

namespace perfbench {

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  size_t idx = rank == 0 ? 0 : std::min(rank - 1, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + idx, v.end());
  return v[idx];
}

TimedPhase::TimedPhase(double seconds)
    : deadline_ns_(NowNs() + static_cast<int64_t>(seconds * 1e9)),
      window_us_(kWindowCapacity) {
  size_t windows = static_cast<size_t>(seconds * 1e9 / kWindowNs) + 1;
  ops_per_s_.reserve(windows);
  p50_us_.reserve(windows);
  p90_us_.reserve(windows);
}

void TimedPhase::OpDone() {
  int64_t now = NowNs();
  if (window_ops_ < kWindowCapacity) {
    window_us_[window_ops_++] = NsToUs(now - prev_ns_);
  }
  prev_ns_ = now;
}

bool TimedPhase::EndRound() {
  window_ns_ += prev_ns_ - round_start_ns_;
  since_checkpoint_ns_ += prev_ns_ - round_start_ns_;
  if (window_ns_ >= kWindowNs || window_ops_ >= kWindowCapacity / 2) {
    CloseWindow();
  }
  if (since_checkpoint_ns_ < kCheckpointNs) return false;
  since_checkpoint_ns_ = 0;
  return true;
}

void TimedPhase::CloseWindow() {
  if (window_ops_ == 0) return;
  std::vector<double> us(window_us_.begin(), window_us_.begin() + window_ops_);
  ops_per_s_.push_back(static_cast<double>(window_ops_) / NsToS(window_ns_));
  p50_us_.push_back(Quantile(us, 0.5));
  p90_us_.push_back(Quantile(std::move(us), 0.9));
  window_ops_ = 0;
  window_ns_ = 0;
}

double TimedPhase::OpsPerSecond() const {
  return Quantile(ops_per_s_, 1.0 - kCalmWindowQuantile);
}

double TimedPhase::P50Us() const {
  return Quantile(p50_us_, kCalmWindowQuantile);
}

double TimedPhase::P90Us() const {
  return Quantile(p90_us_, kCalmWindowQuantile);
}

void SampleSetUp(const std::function<double()>& set_up,
                 std::vector<double>* samples, Report* report) {
  int fds[2];
  if (pipe(fds) != 0) {
    report->Gate(false, "cannot open a pipe for a set-up child");
    return;
  }
  std::fflush(nullptr);  // the child must not flush this process's buffers
  pid_t pid = fork();
  if (pid == 0) {
    close(fds[0]);
    double s = set_up();
    bool sent = write(fds[1], &s, sizeof(s)) == sizeof(s);
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  double s = 0.0;
  bool got = pid > 0 && read(fds[0], &s, sizeof(s)) == sizeof(s);
  close(fds[0]);
  int status = 0;
  bool exited = pid > 0 && waitpid(pid, &status, 0) == pid &&
                WIFEXITED(status) && WEXITSTATUS(status) == 0;
  report->Gate(got && exited, "a set-up child process failed");
  if (got && exited) samples->push_back(s);
}

double PeakRssMb() {
  // VmHWM belongs to this process image; getrusage's ru_maxrss would also
  // carry the high-water mark of whatever process exec'd this one.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    Gate(false, "metric " + name + " is not finite");
    value = 0.0;
  }
  for (Entry& e : metrics_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  metrics_.push_back(Entry{name, value, unit});
}

bool Report::Has(const std::string& name) const {
  for (const Entry& e : metrics_) {
    if (e.name == name) return true;
  }
  return false;
}

void Report::Gate(bool ok, const std::string& what) {
  if (ok) return;
  gates_ok = false;
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

std::string Report::Json() const {
  std::string out = "{\"correct\": ";
  out += gates_ok && failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Entry& e = metrics_[i];
    std::snprintf(buf, sizeof(buf), "%.17g", e.value);
    if (i > 0) out += ", ";
    out += "\"" + e.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           e.unit + "\"}";
  }
  out += "}}";
  return out;
}

SpanLog::Id SpanLog::Begin(const char* name, uint64_t request) {
  Id parent = open_.empty() ? kNone : open_.back();
  Id id = static_cast<Id>(spans_.size());
  spans_.push_back(Span{name, NowNs(), 0, parent, request});
  open_.push_back(id);
  return id;
}

void SpanLog::End(Id id) {
  spans_[id].end_ns = NowNs();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

SpanLog::Id SpanLog::Add(const char* name, int64_t start_ns, int64_t end_ns,
                         Id parent, uint64_t request) {
  Id id = static_cast<Id>(spans_.size());
  spans_.push_back(Span{name, start_ns, end_ns, parent, request});
  return id;
}

std::vector<double> SpanLog::DurationsUs(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(NsToUs(s.end_ns - s.start_ns));
  }
  return out;
}

void SpanLog::PrintSummary(FILE* out) const {
  std::vector<int64_t> child(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent != kNone) child[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, std::vector<double>> self_us;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self_us[s.name].push_back(NsToUs(s.end_ns - s.start_ns - child[i]));
  }
  std::fprintf(out, "%-22s %9s %14s %12s\n", "span", "count", "self_total_us",
               "self_p50_us");
  for (const auto& [name, v] : self_us) {
    double total = 0.0;
    for (double x : v) total += x;
    std::fprintf(out, "%-22s %9zu %14.1f %12.3f\n", name.c_str(), v.size(),
                 total, Median(v));
  }
}

bool SpanLog::Write(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %d, \"request\": %llu}\n",
                 i, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
