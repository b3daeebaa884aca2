// Persistent atom-granular memo store for incremental recompilation.
//
// AtomCache is the durable backend behind assign::AtomMemoStore: every
// per-unit memo the assigner produces (decomposition, per-atom coloring
// delta, per-atom duplication delta, seen-marker) is journaled so the
// *next* compile — in this process or after a daemon restart — can replay
// the untouched units verbatim and recolor only the dirty ones.
//
// The store is a support::Journal whose kinds are the assign::MemoKind
// values; the journal supplies the crash-safe format, the check-hash guard
// and the LRU bound. Any corrupt, truncated or check-mismatched entry is a
// memo miss, never a wrong answer: the assigner re-derives and re-stores.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "assign/incremental.h"
#include "support/journal.h"

namespace parmem::cache {

class AtomCache final : public assign::AtomMemoStore {
 public:
  /// Memory-only when `dir` is empty; see support::Journal.
  explicit AtomCache(std::string dir = "", std::size_t max_entries = 0)
      : journal_(std::move(dir), max_entries) {}

  // assign::AtomMemoStore. Thread-safe.
  std::optional<std::string> lookup(assign::MemoKind kind, std::uint64_t key,
                                    std::uint64_t check) override {
    return journal_.lookup(static_cast<std::uint8_t>(kind), key, check);
  }
  void store(assign::MemoKind kind, std::uint64_t key, std::uint64_t check,
             std::string_view payload) override {
    journal_.store(static_cast<std::uint8_t>(kind), key, check, payload);
  }

  std::size_t size() const { return journal_.size(); }
  support::Journal::Stats stats() const { return journal_.stats(); }
  /// The backing journal, for its directory and entry paths.
  const support::Journal& journal() const { return journal_; }

 private:
  support::Journal journal_;
};

}  // namespace parmem::cache
