#pragma once

// Pure helpers of the benchmark harness: percentile summaries with the
// tail rule, the seeded open-loop arrival schedule, span self-time
// arithmetic and the metric-name rule. Header-only and free of the vlacnn
// library so tests/test_bench_util.cpp can pin them in isolation.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Samples that must lie beyond the tail percentile.
inline constexpr int kTailBeyond = 10;

/// The highest percentile with at least kTailBeyond of `n` samples beyond
/// it: 1 - 10/n, so exactly ten samples lie above it. Below 20 samples that
/// percentile would fall under the median, so the tail is the maximum
/// (returns 1.0).
inline double tail_percentile(std::size_t n) {
  if (n < 2 * static_cast<std::size_t>(kTailBeyond)) return 1.0;
  return 1.0 - static_cast<double>(kTailBeyond) / static_cast<double>(n);
}

/// Linear-interpolation percentile (numpy "linear"); 0 for no samples.
inline double quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

/// Median and tail of one sample set, with the percentile the tail used.
struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_p = 1.0;  ///< 1.0 = maximum (fewer than 20 samples)
  double mean = 0.0;
};

inline Summary summarize(const std::vector<double>& v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  s.p50 = quantile(v, 0.5);
  s.tail_p = tail_percentile(v.size());
  s.tail = quantile(v, s.tail_p);
  double sum = 0.0;
  for (double x : v) sum += x;
  s.mean = sum / static_cast<double>(v.size());
  return s;
}

/// "p90", "p87.5", or "max" for a tail percentile (two decimals at most).
inline std::string percentile_label(double p) {
  if (p >= 1.0) return "max";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", p * 100.0);
  std::string s = buf;
  s.erase(s.find_last_not_of('0') + 1);
  if (s.back() == '.') s.pop_back();
  return "p" + s;
}

/// splitmix64: the schedule's own generator, so the arrival stream depends
/// on the seed alone.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : x_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (x_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t x_;
};

/// One open-loop request: when it is due (seconds after the schedule
/// starts) and which pre-generated input it carries.
struct Arrival {
  double due_s = 0.0;
  int input = 0;
};

/// Poisson arrivals at a fixed absolute rate, conditioned on their count:
/// `count` = round(rate * seconds) due times drawn uniformly on
/// [0, count / rate) and sorted — a homogeneous Poisson process given its
/// number of events. Fixing the count fixes the sample size (so the tail
/// percentile never changes between seeds) and the schedule length. Each
/// request draws its input uniformly from a pool of `pool` inputs. The same
/// (seed, rate, seconds, pool) gives the identical schedule.
inline std::vector<Arrival> poisson_schedule(std::uint64_t seed, double rate,
                                             double seconds, int pool) {
  const auto count =
      static_cast<std::size_t>(std::max(1.0, std::round(rate * seconds)));
  const double horizon = static_cast<double>(count) / rate;
  SplitMix rng(seed ^ 0x5eed5c4edULL);
  std::vector<double> due(count);
  for (double& t : due) t = rng.uniform() * horizon;
  std::sort(due.begin(), due.end());
  std::vector<Arrival> out(count);
  for (std::size_t i = 0; i < count; ++i) {
    out[i].due_s = due[i];
    out[i].input = static_cast<int>(rng.next() % static_cast<std::uint64_t>(pool));
  }
  return out;
}

/// Self time of a span [begin, end): its duration minus the part of it the
/// child intervals cover (overlapping children count once; the parts of a
/// child outside the parent do not count).
inline double self_time(double begin, double end,
                        std::vector<std::pair<double, double>> children) {
  std::sort(children.begin(), children.end());
  double covered = 0.0;
  double cur_b = 0.0, cur_e = 0.0;
  bool open = false;
  for (auto [b, e] : children) {
    b = std::max(b, begin);
    e = std::min(e, end);
    if (e <= b) continue;
    if (open && b <= cur_e) {
      cur_e = std::max(cur_e, e);
      continue;
    }
    if (open) covered += cur_e - cur_b;
    cur_b = b;
    cur_e = e;
    open = true;
  }
  if (open) covered += cur_e - cur_b;
  return (end - begin) - covered;
}

/// Metric names: one or more of [A-Za-z0-9_.-].
inline bool valid_metric_name(const std::string& name) {
  if (name.empty()) return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

}  // namespace perfbench
