// Crash-safe, bounded, one-file-per-entry key-value journal. It backs both
// the compile service's result cache (service/server.h) and the atom memo
// store (cache/atom_cache.h); each user partitions the key space by `kind`.
//
// An entry is addressed by (kind, key) and carries a secondary `check`
// hash: a lookup whose check differs from the stored one is a miss, never
// the wrong payload (callers without a second hash pass 0). Persistence is
//
//   <dir>/<2-hex-kind><16-hex-key>.jnl
//
// written via support::write_file_atomic (write temp sibling, fsync,
// rename), with a one-line header
//
//   "parmem-journal 1 <kind> <16-hex-check> <len> <16-hex-checksum>\n"
//
// whose checksum is fnv1a64 of the payload. A warm restart loads exactly
// the entries that were fully published: a process killed mid-store leaves
// either no file or a `.tmp-*` orphan. Orphans, foreign files (including
// journals written in an older format), and corrupt, truncated or
// mis-named entries are skipped and counted in Stats::load_errors, never
// fatal: the journal is an accelerator, and a damaged one degrades to a
// cold start. An unusable directory degrades to memory-only.
//
// Capacity is bounded by `max_entries` (0 = unbounded) with LRU eviction:
// lookups and stores refresh recency, and an evicted entry's file is
// unlinked. On warm restart recency is rebuilt from file mtimes, so a
// restarted process evicts the same cold tail a surviving one would.
//
// The `cache.journal` fault site wraps each entry read and each persist.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace parmem::support {

/// The (kind, key) address an entry file name encodes.
struct JournalName {
  std::uint8_t kind = 0;
  std::uint64_t key = 0;
};

/// "<2-hex-kind><16-hex-key>.jnl": the file name of entry (kind, key).
std::string journal_entry_name(std::uint8_t kind, std::uint64_t key);

/// Inverse of journal_entry_name. nullopt for any other name: temp
/// siblings, older-format entries, stray files.
std::optional<JournalName> parse_journal_entry_name(std::string_view name);

class Journal {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t check_mismatches = 0;  // key found, check hash differed
    std::uint64_t stores = 0;
    std::uint64_t store_errors = 0;  // persist failures (entry stays in RAM)
    std::uint64_t loaded = 0;        // entries recovered at construction
    std::uint64_t load_errors = 0;   // corrupt/foreign/orphaned files skipped
    std::uint64_t evicted = 0;       // LRU victims dropped (file unlinked)
  };

  /// Memory-only when `dir` is empty; otherwise creates `dir` as needed and
  /// warm-loads every valid entry (oldest mtime first, so in-memory recency
  /// matches on-disk age). `max_entries` caps the entry count with LRU
  /// eviction, 0 = unbounded.
  explicit Journal(std::string dir = "", std::size_t max_entries = 0);

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// The payload stored under (kind, key) with a matching check, or
  /// nullopt. Thread-safe.
  std::optional<std::string> lookup(std::uint8_t kind, std::uint64_t key,
                                    std::uint64_t check);

  /// First-writer-wins insert: (kind, key) is only ever bound to one
  /// payload, so replays stay byte-identical; a repeated store still counts
  /// as recent use. Persists when a dir is configured; a persist failure
  /// keeps the in-memory entry and counts store_errors. Thread-safe.
  void store(std::uint8_t kind, std::uint64_t key, std::uint64_t check,
             std::string_view payload);

  std::size_t size() const;
  const std::string& dir() const { return dir_; }
  Stats stats() const;

  /// File path of entry (kind, key), "" for a memory-only journal.
  std::string entry_path(std::uint8_t kind, std::uint64_t key) const;

 private:
  struct Key {
    std::uint8_t kind;
    std::uint64_t key;
    bool operator==(const Key& o) const {
      return kind == o.kind && key == o.key;
    }
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return static_cast<std::size_t>(
          k.key ^ (static_cast<std::uint64_t>(k.kind) << 56));
    }
  };
  struct Entry {
    std::uint64_t check = 0;
    std::string payload;
    std::uint64_t seq = 0;  // recency stamp; larger = more recent
  };
  using Entries = std::unordered_map<Key, Entry, KeyHash>;

  void load();
  /// Moves `it` to the back of the recency order. Caller holds mu_.
  void touch(Entries::iterator it);
  /// Evicts LRU entries until size <= max_entries_; returns the files to
  /// unlink. Caller holds mu_.
  std::vector<std::string> evict_locked();

  std::string dir_;
  std::size_t max_entries_ = 0;
  mutable std::mutex mu_;
  Entries entries_;
  std::map<std::uint64_t, Key> recency_;  // seq -> key, oldest first
  std::uint64_t next_seq_ = 1;
  Stats stats_;
};

}  // namespace parmem::support
