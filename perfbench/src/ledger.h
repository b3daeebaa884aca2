// Per-layer ledger: span totals drained from the telemetry trace session.
//
// Spans come from two places: the library's own (`pipeline.*`, `assign.*`,
// `sim.*`, `pool.task`) and the benchmark's, recorded around its calls into
// each layer's public functions (`frontend.parse`, `graph.mcs_m`, ...). A
// span's self time is its duration minus the part covered by its direct
// child spans on the same thread.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/session.h"

namespace perfbench {

struct SpanTotal {
  std::uint64_t count = 0;
  double incl_ms = 0;
  double self_ms = 0;
};

class Ledger {
 public:
  /// Adds every span event of `lanes` to the totals.
  void absorb(const std::vector<parmem::telemetry::Lane>& lanes);
  /// Drains the global trace session into the totals.
  void drain();
  /// Totals for `name` (all zero when the span never fired).
  SpanTotal span(std::string_view name) const;
  void merge(const Ledger& other);
  /// Ring-full drops seen while draining; a drop makes the ledger
  /// incomplete, so callers treat it as a failed run.
  std::uint64_t dropped() const { return dropped_; }
  /// span | count | incl ms | self ms, sorted by inclusive time.
  std::string table() const;

 private:
  std::map<std::string, SpanTotal, std::less<>> spans_;
  std::map<std::uint32_t, std::uint64_t> lane_dropped_;
  std::uint64_t dropped_ = 0;
};

}  // namespace perfbench
