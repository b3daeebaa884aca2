// Host facts and clocks: the host record printed before each workload, the
// yardstick that measures the host's speed, peak RSS and the run's wall
// clock.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

/// steady_clock, in nanoseconds and in seconds.
std::uint64_t now_ns();
double now_s();

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

/// A fixed piece of compile-like work, the same on every host and build:
/// sorting, hash-map inserts and lookups, adjacency lists and a greedy
/// coloring of a fixed random graph, and an ordered map. One unit takes a
/// few milliseconds.
///
/// On a shared host the speed a single thread gets drifts by up to 1.5x
/// over tens of seconds (other tenants' load on the same physical cores and
/// caches), and a compile slows with it. Run between compiles, the
/// yardstick slows alike: over a 110 s run of paper_compile passes, pass
/// time and the yardstick time interleaved with it correlate at 0.9, while
/// a dependency-chained integer loop correlates at 0.4. The compile slows
/// faster than the yardstick: regressing log pass time on log yardstick
/// time gave slopes of 1.3-1.5 over three such runs (larger yardsticks, up
/// to a 4 MB working set, gave the same slope). Each timing metric is
/// therefore wall time scaled to a reference host speed:
///     reported = wall * (kReferenceMs / mean unit time of the span)^kExponent
/// so a slow host phase cancels and a change in the code does not.
class Yardstick {
 public:
  /// One unit's time on the reference host, in ms: about its time on an
  /// unloaded 4-vCPU Xeon (Sapphire Rapids class) guest, so reported times
  /// read close to wall times there.
  static constexpr double kReferenceMs = 2.5;
  /// How much faster than the yardstick the timed work slows (see above).
  static constexpr double kExponent = 1.4;

  /// Runs `units` units and adds their time to the current span.
  void run(int units);
  /// kReferenceMs / the span's mean unit time (1 before any unit ran).
  double ratio() const;
  /// ratio()^kExponent: multiply a wall time measured over the span by it.
  double scale() const;
  /// The span's mean unit time in ms (0 before any unit ran).
  double unit_ms() const;

 private:
  double ms_ = 0;
  int units_ = 0;
};

/// The median time of `units` yardstick units, in ms: the host's speed when
/// the workload starts, so a slow host shows up apart from a slow change.
double calibration_ms(int units = 40);

/// One JSON object: nproc, load average, build type, compiler, commit and
/// calibration time.
std::string host_record(const std::string& commit, double calibration);

}  // namespace perfbench
