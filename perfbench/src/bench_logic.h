#ifndef PERFBENCH_BENCH_LOGIC_H_
#define PERFBENCH_BENCH_LOGIC_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

/// \file
/// The benchmark's pure decision rules, kept free of I/O so the unit tests
/// can pin them down: the percentile rule, the capacity-ladder walk, and the
/// open-loop arrival schedule.

namespace perfbench {

/// Nearest-rank percentile of an ascending sample (`q` in [0, 1]); 0 for an
/// empty sample.
double Percentile(std::span<const double> sorted, double q);

/// The reported percentiles, lowest first.
inline constexpr double kReportedPercentiles[] = {0.5, 0.9, 0.99, 0.999,
                                                  0.9999};

/// The highest of kReportedPercentiles that has at least `min_beyond`
/// samples beyond it in a sample of `n` (a tail percentile resting on fewer
/// samples is noise). 0 when not even the median qualifies.
double HighestSupportedPercentile(size_t n, size_t min_beyond = 10);

/// True when a sample of `n` supports percentile `q` by the rule above.
bool SupportsPercentile(size_t n, double q, size_t min_beyond = 10);

/// Median, tail percentile and sample count of one latency sample.
struct LatencySummary {
  size_t n = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  /// HighestSupportedPercentile(n) and the value there.
  double tail_q = 0.0;
  double tail = 0.0;
};

/// Sorts `samples` in place and summarizes them.
LatencySummary Summarize(std::vector<double>* samples);

/// Offered rates of the capacity ladder: `count` rungs from `base_qps`, each
/// `step` times the previous one.
std::vector<double> LadderRates(double base_qps, double step, int count);

/// Walks a ladder of `count` rungs for the highest one `passes`, assuming
/// passing is monotone (every rung below a passing rung passes). Starts at
/// `start`, gallops upward with doubling strides until a rung fails, then
/// bisects between the last pass and the first failure; when `start` fails
/// it bisects below it instead. Each rung is probed at most once. Returns
/// the highest passing rung, or -1 when rung 0 fails. `probed`, when
/// non-null, receives the rungs in probe order.
int WalkLadder(int count, int start, const std::function<bool(int)>& passes,
               std::vector<int>* probed = nullptr);

/// Open-loop due times, seconds after the run starts, of `count` requests
/// offered at `rate_qps`: the Poisson arrival times `times` (ascending, any
/// unit) are rescaled so their mean rate is `rate_qps`, and replayed
/// cyclically when `count` exceeds them — the cycle period keeps one mean
/// gap between the last arrival and the next cycle's first, so a whole
/// number of cycles offers exactly `rate_qps`.
std::vector<double> RescaledArrivals(std::span<const double> times,
                                     double rate_qps, size_t count);

/// One FNV-1a pass over `size` bytes, continuing from `hash`.
uint64_t Fnv1a(uint64_t hash, const uint8_t* data, size_t size);
inline constexpr uint64_t kFnvOffset = 1469598103934665603ull;

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_LOGIC_H_
