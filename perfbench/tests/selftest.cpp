// Self-tests of the benchmark's statistics helpers. run.py runs this
// binary after every build and refuses to measure when it fails.
#include <cmath>
#include <cstdio>
#include <map>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

}  // namespace

int main() {
  using namespace perfbench;

  // Nearest-rank percentiles return observed samples.
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  expect(near(percentile(v, 50), 50), "p50 of 1..100 is 50");
  expect(near(percentile(v, 99), 99), "p99 of 1..100 is 99");
  expect(near(percentile(v, 100), 100), "p100 is the max");
  expect(near(median({3, 1, 2}), 2), "median of an odd sample");
  expect(near(median({}), 0), "median of nothing is 0");

  // Per-input percentiles, in input order.
  std::map<std::size_t, std::vector<double>> per_input;
  for (int i = 1; i <= 20; ++i) per_input[0].push_back(i);
  per_input[1] = {5, 3, 4};
  const std::vector<double> p10 = percentiles(per_input, 10);
  expect(p10.size() == 2 && near(p10[0], 2) && near(p10[1], 3),
         "p10 of 1..20 is 2; of three samples, the smallest");
  expect(near(percentiles(per_input, 50)[1], 4), "per-input median");

  // The >=10-beyond rule picks the highest qualifying percentile.
  expect(samples_beyond(1000, 99) == 10, "1000 samples: 10 beyond p99");
  expect(near(tail_percentile(1000), 99), "1000 samples report p99");
  expect(near(tail_percentile(999), 95), "999 samples fall back to p95");
  expect(near(tail_percentile(10000), 99.9), "10000 samples report p99.9");
  expect(near(tail_percentile(200), 95), "200 samples report p95");
  expect(near(tail_percentile(40), 75), "40 samples report p75");
  expect(near(tail_percentile(19), 0), "19 samples have no tail");
  const Summary s = summarize(v);
  expect(s.n == 100 && near(s.tail_pct, 90) && near(s.tail, 90),
         "summary of 100 samples reports p90");

  // Geometric mean.
  expect(near(geomean({1, 100}), 10), "geomean of 1 and 100 is 10");
  expect(near(geomean({2, 8, 4}), 4), "geomean of 2, 8, 4 is 4");
  expect(near(geomean({1, 0}), 0), "a zero makes the geomean 0");
  expect(near(geomean({}), 0), "geomean of nothing is 0");

  // Name validation: [A-Za-z0-9_.-], first a letter or digit, <= 64.
  expect(valid_name("served_p99_ms.high"), "dotted metric name");
  expect(valid_name("compile_ms.geomean"), "geomean name");
  expect(valid_name("0rate-x"), "leading digit and dash");
  expect(!valid_name(""), "empty name");
  expect(!valid_name(".hidden"), "leading dot");
  expect(!valid_name("_x"), "leading underscore");
  expect(!valid_name("a b"), "space");
  expect(!valid_name("a/b"), "slash");
  expect(valid_name(std::string(64, 'a')), "64 characters");
  expect(!valid_name(std::string(65, 'a')), "65 characters");

  if (failures == 0) std::printf("selftest: all stats checks passed\n");
  return failures == 0 ? 0 : 1;
}
