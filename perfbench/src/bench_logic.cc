#include "bench_logic.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Percentile(std::span<const double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  // Nearest rank: the smallest value with at least q * n samples at or
  // below it.
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

bool SupportsPercentile(size_t n, double q, size_t min_beyond) {
  // Samples strictly beyond the nearest-rank position.
  const double at = std::ceil(q * static_cast<double>(n));
  return static_cast<double>(n) - at >= static_cast<double>(min_beyond);
}

double HighestSupportedPercentile(size_t n, size_t min_beyond) {
  double best = 0.0;
  for (const double q : kReportedPercentiles) {
    if (SupportsPercentile(n, q, min_beyond)) best = q;
  }
  return best;
}

LatencySummary Summarize(std::vector<double>* samples) {
  std::sort(samples->begin(), samples->end());
  LatencySummary s;
  s.n = samples->size();
  s.p50 = Percentile(*samples, 0.5);
  s.p99 = Percentile(*samples, 0.99);
  s.tail_q = HighestSupportedPercentile(s.n);
  s.tail = s.tail_q > 0.0 ? Percentile(*samples, s.tail_q) : 0.0;
  return s;
}

std::vector<double> LadderRates(double base_qps, double step, int count) {
  std::vector<double> rates;
  rates.reserve(static_cast<size_t>(std::max(count, 0)));
  double rate = base_qps;
  for (int i = 0; i < count; ++i) {
    rates.push_back(rate);
    rate *= step;
  }
  return rates;
}

int WalkLadder(int count, int start, const std::function<bool(int)>& passes,
               std::vector<int>* probed) {
  if (count <= 0) return -1;
  start = std::clamp(start, 0, count - 1);
  const auto probe = [&](int rung) {
    if (probed != nullptr) probed->push_back(rung);
    return passes(rung);
  };
  // Invariant: `lo` passes (or is the virtual rung -1), `hi` fails (or is
  // the virtual rung `count`).
  int lo = -1;
  int hi = count;
  if (probe(start)) {
    lo = start;
    for (int stride = 1; lo + stride < count; stride *= 2) {
      const int rung = lo + stride;
      if (!probe(rung)) {
        hi = rung;
        break;
      }
      lo = rung;
    }
  } else {
    hi = start;
  }
  while (hi - lo > 1) {
    const int mid = lo + (hi - lo) / 2;
    if (probe(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

std::vector<double> RescaledArrivals(std::span<const double> times,
                                     double rate_qps, size_t count) {
  std::vector<double> due;
  if (times.empty() || rate_qps <= 0.0) return due;
  due.reserve(count);
  const size_t n = times.size();
  const double span = times.back() - times.front();
  if (n < 2 || span <= 0.0) {
    // No arrival process to follow: evenly spaced requests.
    for (size_t i = 0; i < count; ++i) {
      due.push_back(static_cast<double>(i) / rate_qps);
    }
    return due;
  }
  // One cycle lasts n mean gaps.
  const double period =
      span * static_cast<double>(n) / static_cast<double>(n - 1);
  const double scale = static_cast<double>(n) / (rate_qps * period);
  for (size_t i = 0; i < count; ++i) {
    const double offset = times[i % n] - times.front();
    due.push_back(scale * (offset + static_cast<double>(i / n) * period));
  }
  return due;
}

uint64_t Fnv1a(uint64_t hash, const uint8_t* data, size_t size) {
  for (size_t i = 0; i < size; ++i) {
    hash ^= data[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

}  // namespace perfbench
