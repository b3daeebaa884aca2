#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

/// Nearest rank ceil(pct / 100 * n), guarded against the binary rounding of
/// pct (99.9 / 100 * 10000 is 9990.000000000002, not 9990).
std::size_t nearest_rank(std::size_t n, double pct) {
  return static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9));
}

}  // namespace

double percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t rank =
      std::clamp<std::size_t>(nearest_rank(values.size(), pct), 1, values.size());
  return values[rank - 1];
}

double median(const std::vector<double>& values) {
  return percentile(values, 50);
}

std::vector<double> percentiles(
    const std::map<std::size_t, std::vector<double>>& per_input, double pct) {
  std::vector<double> out;
  for (const auto& [input, samples] : per_input) {
    out.push_back(percentile(samples, pct));
  }
  return out;
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (const double v : values) {
    if (!(v > 0)) return 0;
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

std::size_t samples_beyond(std::size_t n, double pct) {
  const std::size_t at = nearest_rank(n, pct);
  return n > at ? n - at : 0;
}

double tail_percentile(std::size_t n) {
  for (const double pct : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (samples_beyond(n, pct) >= 10) return pct;
  }
  return 0;
}

Summary summarize(const std::vector<double>& values) {
  Summary s;
  s.n = values.size();
  s.p50 = median(values);
  s.p99 = percentile(values, 99);
  s.tail_pct = tail_percentile(s.n);
  if (s.tail_pct > 0) s.tail = percentile(values, s.tail_pct);
  return s;
}

std::string describe(const Summary& s, std::string_view unit) {
  char buf[160];
  if (s.tail_pct > 0) {
    std::snprintf(buf, sizeof buf, "p50 %.4f %.*s, p%g %.4f %.*s (n=%zu)",
                  s.p50, static_cast<int>(unit.size()), unit.data(),
                  s.tail_pct, s.tail, static_cast<int>(unit.size()),
                  unit.data(), s.n);
  } else {
    std::snprintf(buf, sizeof buf, "p50 %.4f %.*s, no tail (n=%zu)", s.p50,
                  static_cast<int>(unit.size()), unit.data(), s.n);
  }
  return buf;
}

bool valid_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

}  // namespace perfbench
