#include "ledger.h"

#include <algorithm>
#include <cstdio>

#include "telemetry/event.h"

namespace perfbench {

using parmem::telemetry::EventKind;
using parmem::telemetry::Lane;
using parmem::telemetry::TraceEvent;

void Ledger::absorb(const std::vector<Lane>& lanes) {
  for (const Lane& lane : lanes) {
    // The sink's drop count is cumulative over the thread's lifetime.
    std::uint64_t& seen = lane_dropped_[lane.id];
    if (lane.dropped > seen) {
      dropped_ += lane.dropped - seen;
      seen = lane.dropped;
    }
    std::vector<const TraceEvent*> spans;
    for (const TraceEvent& e : lane.events) {
      if (e.kind == EventKind::kSpan) spans.push_back(&e);
    }
    // Start order, outer span first on ties: a stack then holds the chain
    // of open ancestors of each span.
    std::sort(spans.begin(), spans.end(),
              [](const TraceEvent* a, const TraceEvent* b) {
                return a->t0_ns != b->t0_ns ? a->t0_ns < b->t0_ns
                                            : a->t1_ns > b->t1_ns;
              });
    std::vector<std::uint64_t> child_ns(spans.size(), 0);
    std::vector<std::size_t> open;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      while (!open.empty() && spans[open.back()]->t1_ns <= spans[i]->t0_ns) {
        open.pop_back();
      }
      const std::uint64_t dur = spans[i]->t1_ns - spans[i]->t0_ns;
      if (!open.empty()) child_ns[open.back()] += dur;
      open.push_back(i);
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const double dur_ms =
          static_cast<double>(spans[i]->t1_ns - spans[i]->t0_ns) / 1e6;
      SpanTotal& t = spans_[spans[i]->name];
      ++t.count;
      t.incl_ms += dur_ms;
      t.self_ms += std::max(0.0, dur_ms - static_cast<double>(child_ns[i]) / 1e6);
    }
  }
}

void Ledger::drain() {
  absorb(parmem::telemetry::TraceSession::global().take());
}

SpanTotal Ledger::span(std::string_view name) const {
  const auto it = spans_.find(name);
  return it == spans_.end() ? SpanTotal{} : it->second;
}

void Ledger::merge(const Ledger& other) {
  for (const auto& [name, t] : other.spans_) {
    SpanTotal& mine = spans_[name];
    mine.count += t.count;
    mine.incl_ms += t.incl_ms;
    mine.self_ms += t.self_ms;
  }
  dropped_ += other.dropped_;
}

std::string Ledger::table() const {
  std::vector<std::pair<std::string, SpanTotal>> rows(spans_.begin(),
                                                      spans_.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.incl_ms > b.second.incl_ms;
  });
  std::string out;
  char buf[160];
  std::snprintf(buf, sizeof buf, "%-26s %8s %12s %12s\n", "span", "count",
                "incl ms", "self ms");
  out += buf;
  for (const auto& [name, t] : rows) {
    std::snprintf(buf, sizeof buf, "%-26s %8llu %12.3f %12.3f\n", name.c_str(),
                  static_cast<unsigned long long>(t.count), t.incl_ms,
                  t.self_ms);
    out += buf;
  }
  return out;
}

}  // namespace perfbench
