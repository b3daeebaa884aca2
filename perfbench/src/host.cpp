#include "host.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <thread>
#include <unordered_map>
#include <vector>

#include "support/rng.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double now_s() { return static_cast<double>(now_ns()) / 1e9; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

/// The yardstick's fixed inputs, built once.
struct YardstickData {
  std::vector<std::uint64_t> keys;
  YardstickData() : keys(1 << 14) {
    parmem::support::SplitMix64 rng(0x9a7d5);
    for (std::uint64_t& k : keys) k = rng.next();
  }
};

/// One unit of yardstick work; returns a value that depends on all of it.
std::uint64_t yardstick_unit(const YardstickData& d) {
  std::uint64_t acc = 0;
  std::vector<std::uint64_t> sorted = d.keys;
  std::sort(sorted.begin(), sorted.end());
  acc += sorted[sorted.size() / 2];
  std::unordered_map<std::uint64_t, std::uint32_t> hash;
  for (std::uint32_t i = 0; i < 3000; ++i) hash[d.keys[i]] = i;
  for (std::uint32_t i = 0; i < 6000; ++i) acc += hash.count(d.keys[i]);
  // A random graph of 1500 vertices and 8000 edges, colored greedily.
  parmem::support::SplitMix64 rng(77);
  constexpr std::uint32_t kVertices = 1500;
  std::vector<std::vector<std::uint32_t>> adj(kVertices);
  for (int e = 0; e < 8000; ++e) {
    const auto u = static_cast<std::uint32_t>(rng.below(kVertices));
    const auto v = static_cast<std::uint32_t>(rng.below(kVertices));
    adj[u].push_back(v);
    adj[v].push_back(u);
  }
  std::vector<int> color(kVertices, -1);
  std::vector<char> used;
  for (std::uint32_t u = 0; u < kVertices; ++u) {
    used.assign(64, 0);
    for (const std::uint32_t v : adj[u]) {
      if (color[v] >= 0) used[static_cast<std::size_t>(color[v])] = 1;
    }
    int c = 0;
    while (c < 63 && used[static_cast<std::size_t>(c)]) ++c;
    color[u] = c;
    acc += static_cast<std::uint64_t>(c);
  }
  std::map<std::uint32_t, std::uint32_t> ordered;
  for (std::uint32_t u = 0; u < kVertices; ++u) {
    ordered[static_cast<std::uint32_t>(rng.next())] = u;
  }
  return acc + ordered.size();
}

double timed_unit_ms() {
  static const YardstickData data;
  const std::uint64_t t0 = now_ns();
  const std::uint64_t v = yardstick_unit(data);
  const double ms = static_cast<double>(now_ns() - t0) / 1e6;
  if (v == 0) std::abort();  // never true; keeps the work observable
  return ms;
}

}  // namespace

void Yardstick::run(int units) {
  for (int i = 0; i < units; ++i) ms_ += timed_unit_ms();
  units_ += units;
}

double Yardstick::unit_ms() const {
  return units_ == 0 ? 0 : ms_ / units_;
}

double Yardstick::ratio() const {
  return units_ == 0 ? 1 : kReferenceMs / unit_ms();
}

double Yardstick::scale() const { return std::pow(ratio(), kExponent); }

double calibration_ms(int units) {
  std::vector<double> ms;
  for (int i = 0; i < units; ++i) ms.push_back(timed_unit_ms());
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

std::string host_record(const std::string& commit, double calibration) {
  double load[3] = {0, 0, 0};
  if (getloadavg(load, 3) != 3) load[0] = load[1] = load[2] = -1;
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"nproc\": %u, \"loadavg\": [%.2f, %.2f, %.2f], "
                "\"build_type\": \"%s\", \"compiler\": \"%s\", "
                "\"commit\": \"%s\", \"calibration_ms\": %.3f}",
                std::thread::hardware_concurrency(), load[0], load[1], load[2],
                PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, commit.c_str(),
                calibration);
  return buf;
}

}  // namespace perfbench
