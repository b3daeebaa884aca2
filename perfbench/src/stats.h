// Statistics helpers shared by every perfbench workload.
//
// Percentiles are nearest-rank (the smallest sample with at least p% of
// the sample at or below it), so every reported value was observed. A
// timing is reported as its median plus the highest percentile on the
// ladder below that still has at least ten samples beyond it.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of `values` (need not be sorted). 0 on empty.
double percentile(std::vector<double> values, double pct);

/// Median (the nearest-rank p50). 0 on empty.
double median(const std::vector<double>& values);

/// Geometric mean of positive values. 0 on empty or any value <= 0.
double geomean(const std::vector<double>& values);

/// The nearest-rank `pct` percentile of each input's samples, in input
/// order.
std::vector<double> percentiles(
    const std::map<std::size_t, std::vector<double>>& per_input, double pct);

/// Number of samples strictly beyond the nearest-rank `pct` percentile of
/// `n` samples: n - ceil(pct / 100 * n).
std::size_t samples_beyond(std::size_t n, double pct);

/// Highest of 99.9, 99, 95, 90, 75, 50 with at least ten samples beyond
/// it; 0 when even the median has fewer than ten (n < 20).
double tail_percentile(std::size_t n);

/// One timing as the benchmark reports it.
struct Summary {
  std::size_t n = 0;
  double p50 = 0;
  double tail_pct = 0;  // tail_percentile(n); 0 = no qualifying tail
  double tail = 0;      // value at tail_pct (0 when tail_pct == 0)
  double p99 = 0;       // nearest-rank p99, whatever n is
};
Summary summarize(const std::vector<double>& values);

/// "p50 1.23 ms, p95 4.56 ms (n=200)".
std::string describe(const Summary& s, std::string_view unit);

/// Metric and workload names: 1..64 of [A-Za-z0-9_.-], starting with a
/// letter or digit.
bool valid_name(std::string_view name);

}  // namespace perfbench
