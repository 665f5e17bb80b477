#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

/// \file
/// Measurement plumbing shared by the workloads: clocks, process counters,
/// the in-memory span recorder of the traced run, and the result report.

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsBetween(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

/// Global operator-new calls since process start (alloc_counter.cc).
uint64_t AllocCount();

/// Process-wide counters from getrusage plus the allocation counter.
struct ProcSample {
  double cpu_s = 0.0;
  int64_t ctx_switches = 0;
  uint64_t allocs = 0;

  static ProcSample Now();
};

/// Peak resident set of this process, MiB.
double PeakRssMib();

/// Median of a small sample (copied; 0 when empty).
double Median(std::vector<double> values);

/// Spans of the traced run, kept in memory and written out at the end. One
/// recorder per thread; storage is reserved up front so recording does not
/// allocate. A span's self time is its duration minus its children's.
class SpanRecorder {
 public:
  static constexpr uint32_t kNone = 0xFFFFFFFFu;

  /// `capacity` spans are reserved when `enabled`; a disabled recorder
  /// records nothing and costs one branch per call.
  SpanRecorder(bool enabled, size_t capacity);

  /// Opens a span (`name` must be a string literal). Returns its id, or
  /// kNone when disabled or full.
  uint32_t Begin(const char* name, uint64_t request, uint32_t parent = kNone);
  void End(uint32_t id);
  /// Records an already-timed span.
  uint32_t Add(const char* name, uint64_t request, int64_t start_ns,
               int64_t end_ns, uint32_t parent = kNone);

  /// Durations (us) of every span called `name`.
  std::vector<double> DurationsUs(const char* name) const;

  struct Layer {
    std::string name;
    int64_t count = 0;
    double total_us = 0.0;
    double self_us = 0.0;
  };
  /// Per-name totals and self times, merged over `recorders`.
  static std::vector<Layer> Layers(
      const std::vector<const SpanRecorder*>& recorders);
  /// Appends every span as one JSON line to `path`.
  static bool WriteJsonl(const std::vector<const SpanRecorder*>& recorders,
                         const std::string& path);

  size_t dropped() const { return dropped_; }

 private:
  struct Span {
    const char* name;
    uint32_t parent;
    uint64_t request;
    int64_t start_ns;
    int64_t end_ns;
  };
  bool enabled_;
  size_t dropped_ = 0;
  std::vector<Span> spans_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, uint64_t request,
             uint32_t parent = SpanRecorder::kNone)
      : recorder_(recorder),
        id_(recorder->Begin(name, request, parent)) {}
  ~ScopedSpan() { recorder_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  uint32_t id_;
};

/// What one run measured and checked. Printed as human-readable lines and a
/// final JSON line that the launcher turns into the benchmark's result.
class Report {
 public:
  void Metric(const std::string& name, double value, const char* unit);
  /// A human-readable line (not part of the JSON).
  void Note(const std::string& line);
  /// Counts `checked` answers, `wrong` of them wrong.
  void Check(int64_t checked, int64_t wrong);
  /// A failed check that is not an answer (e.g. a lost session).
  void Fail(const std::string& why);
  /// proc.cpu_us_per_query, proc.ctx_switches_per_query and
  /// proc.allocs_per_query between two samples.
  void ProcMetrics(const ProcSample& before, const ProcSample& after,
                   double queries);
  /// Notes each span name's count, total and self time, and writes the
  /// spans to `path` (unless empty).
  void Spans(const std::vector<const SpanRecorder*>& recorders,
             const std::string& path);

  void set_digest(uint64_t digest) { digest_ = digest; }
  bool correct() const { return failed_ == 0 && attempted_ > 0; }

  void Print(const std::string& workload, uint64_t seed, bool trace) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::vector<std::string> notes_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  uint64_t digest_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
