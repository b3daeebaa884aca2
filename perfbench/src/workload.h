// What every perfbench workload takes and returns.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "host.h"
#include "stats.h"

namespace perfbench {

struct RunConfig {
  /// Drives the order of inputs in each pass. The inputs' content (and
  /// served_mix's request sequence) comes from the pinned seeds below, so
  /// runs under different --seed values compile the same programs and
  /// streams and serve the same requests.
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  /// Content seeds of the synthetic streams (pinned defaults; override to
  /// re-check a claim on inputs not used while building it).
  std::uint64_t mono_seed = 0xabc3;     // syn_mono, as in assign_hotpath
  std::uint64_t modular_seed = 0xabc3;  // syn_modular, as in incremental_recompile
  std::uint64_t served_seed = 0x5e7ed;  // served_mix pool and requests
  /// Directory for on-disk journals (inside the checkout); emptied first.
  std::string work_dir = ".bench_run";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Outcome of one workload run: the result line plus the
/// human-readable report printed before it.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// False when any output was wrong or a deterministic count differed
  /// between repetitions or thread counts.
  bool correct = true;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Overwrites the value of an already added metric.
  void set(const std::string& name, double value) {
    for (Metric& m : metrics) {
      if (m.name == name) m.value = value;
    }
  }
  /// Records one failed operation with its reason (printed to stderr).
  void fail_op(const std::string& why) {
    ++failed;
    std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
  }
  /// Records a wrong result that invalidates the whole run.
  void wrong(const std::string& why) {
    correct = false;
    std::fprintf(stderr, "perfbench: WRONG: %s\n", why.c_str());
  }
};

/// Prints one human-readable report line ("perfbench: ...") on stdout.
void note(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;

/// Yardstick units run before and after each set-up to scale it.
constexpr int kSetupUnits = 4;

/// Runs set-up `reps` times (the callee keeps the last state) and returns
/// the median set-up time in seconds at the reference host speed: each
/// set-up's wall time is scaled by the yardstick units around it.
template <typename Fn>
double timed_setups(int reps, Fn&& setup) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    Yardstick ys;
    ys.run(kSetupUnits);
    const double t0 = now_s();
    setup();
    const double wall = now_s() - t0;
    ys.run(kSetupUnits);
    times.push_back(wall * ys.scale());
  }
  return median(times);
}

Outcome run_paper_compile(const RunConfig& cfg);
Outcome run_stream_assign(const RunConfig& cfg);
Outcome run_served_mix(const RunConfig& cfg);

}  // namespace perfbench

