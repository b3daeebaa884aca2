#include "support/journal.h"

#include <algorithm>
#include <cstdio>

#include "support/fault_injection.h"
#include "support/file_io.h"
#include "support/text.h"

namespace parmem::support {
namespace {

constexpr std::string_view kSuffix = ".jnl";
constexpr std::size_t kHexDigits = 18;  // 2 kind + 16 key

std::string encode_entry(std::uint8_t kind, std::uint64_t check,
                         std::string_view payload) {
  char head[96];
  std::snprintf(head, sizeof head, "parmem-journal 1 %u %016llx %zu %016llx\n",
                static_cast<unsigned>(kind),
                static_cast<unsigned long long>(check), payload.size(),
                static_cast<unsigned long long>(fnv1a64(payload)));
  std::string out(head);
  out.append(payload);
  return out;
}

struct DecodedEntry {
  unsigned kind;
  std::uint64_t check;
  std::string payload;
};

/// Validates and strips the entry header. nullopt on any mismatch.
std::optional<DecodedEntry> decode_entry(const std::string& bytes) {
  const std::size_t nl = bytes.find('\n');
  if (nl == std::string::npos) return std::nullopt;
  char tag[16] = {};
  unsigned kind = 0;
  unsigned long long check = 0, sum = 0;
  std::size_t len = 0;
  if (std::sscanf(bytes.c_str(), "parmem-journal %15s %u %llx %zu %llx", tag,
                  &kind, &check, &len, &sum) != 5 ||
      std::string_view(tag) != "1") {
    return std::nullopt;
  }
  if (bytes.size() - nl - 1 != len) return std::nullopt;
  std::string payload = bytes.substr(nl + 1);
  if (fnv1a64(payload) != sum) return std::nullopt;
  return DecodedEntry{kind, check, std::move(payload)};
}

}  // namespace

std::string journal_entry_name(std::uint8_t kind, std::uint64_t key) {
  char name[32];
  std::snprintf(name, sizeof name, "%02x%016llx.jnl",
                static_cast<unsigned>(kind),
                static_cast<unsigned long long>(key));
  return name;
}

std::optional<JournalName> parse_journal_entry_name(std::string_view name) {
  if (name.size() != kHexDigits + kSuffix.size() ||
      name.substr(kHexDigits) != kSuffix) {
    return std::nullopt;
  }
  std::uint64_t kind = 0, key = 0;
  for (std::size_t i = 0; i < kHexDigits; ++i) {
    const char ch = name[i];
    std::uint64_t d;
    if (ch >= '0' && ch <= '9') d = static_cast<std::uint64_t>(ch - '0');
    else if (ch >= 'a' && ch <= 'f') d = static_cast<std::uint64_t>(ch - 'a') + 10;
    else return std::nullopt;
    if (i < 2) kind = (kind << 4) | d;
    else key = (key << 4) | d;
  }
  return JournalName{static_cast<std::uint8_t>(kind), key};
}

Journal::Journal(std::string dir, std::size_t max_entries)
    : dir_(std::move(dir)), max_entries_(max_entries) {
  if (!dir_.empty()) {
    if (ensure_directory(dir_)) {
      load();
    } else {
      // An unusable directory degrades to memory-only; the owner keeps
      // serving and persistence failures show up in stats().
      ++stats_.load_errors;
      dir_.clear();
    }
  }
}

void Journal::load() {
  // Load oldest-mtime first so the rebuilt recency order matches on-disk
  // age: a restarted process evicts the same cold tail a surviving one
  // would have.
  struct Candidate {
    std::int64_t mtime;
    std::string name;
    JournalName addr;
  };
  std::vector<Candidate> files;
  for (const std::string& name : list_directory(dir_)) {
    const auto addr = parse_journal_entry_name(name);
    if (!addr.has_value()) {
      // `.tmp-*` orphans from a killed store, or foreign files: skipped and
      // counted, so a test can see the crash left debris rather than a torn
      // entry.
      ++stats_.load_errors;
      continue;
    }
    const auto mt = file_mtime(dir_ + "/" + name);
    files.push_back(Candidate{mt.value_or(0), name, *addr});
  }
  std::stable_sort(files.begin(), files.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.mtime < b.mtime;
                   });
  for (const Candidate& f : files) {
    std::optional<DecodedEntry> entry;
    try {
      PARMEM_FAULT_POINT("cache.journal", nullptr);
      const auto bytes = read_file(dir_ + "/" + f.name);
      if (bytes.has_value()) entry = decode_entry(*bytes);
    } catch (...) {
      // An injected (or real) fault while reading one entry costs that
      // entry, not the warm start.
      entry.reset();
    }
    if (!entry.has_value() || entry->kind != f.addr.kind) {
      ++stats_.load_errors;
      continue;
    }
    const Key k{f.addr.kind, f.addr.key};
    Entry e;
    e.check = entry->check;
    e.payload = std::move(entry->payload);
    e.seq = next_seq_++;
    recency_.emplace(e.seq, k);
    entries_.emplace(k, std::move(e));
    ++stats_.loaded;
  }
  // Trim an over-capacity journal now (single-threaded here).
  for (const std::string& path : evict_locked()) remove_file(path);
}

std::string Journal::entry_path(std::uint8_t kind, std::uint64_t key) const {
  if (dir_.empty()) return "";
  return dir_ + "/" + journal_entry_name(kind, key);
}

void Journal::touch(Entries::iterator it) {
  recency_.erase(it->second.seq);
  it->second.seq = next_seq_++;
  recency_.emplace(it->second.seq, it->first);
}

std::vector<std::string> Journal::evict_locked() {
  std::vector<std::string> doomed;
  while (max_entries_ != 0 && entries_.size() > max_entries_ &&
         !recency_.empty()) {
    const auto oldest = recency_.begin();
    const Key victim = oldest->second;
    recency_.erase(oldest);
    entries_.erase(victim);
    ++stats_.evicted;
    if (!dir_.empty()) doomed.push_back(entry_path(victim.kind, victim.key));
  }
  return doomed;
}

std::optional<std::string> Journal::lookup(std::uint8_t kind,
                                           std::uint64_t key,
                                           std::uint64_t check) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = entries_.find(Key{kind, key});
  if (it == entries_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  if (it->second.check != check) {
    // The 64-bit key collided but the independent check hash disagrees:
    // a miss. First writer wins, so the stored entry stays.
    ++stats_.check_mismatches;
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  touch(it);
  return it->second.payload;
}

void Journal::store(std::uint8_t kind, std::uint64_t key, std::uint64_t check,
                    std::string_view payload) {
  std::string persist_path;
  std::string persist_bytes;
  std::vector<std::string> doomed;
  {
    std::lock_guard<std::mutex> lk(mu_);
    const Key k{kind, key};
    const auto [it, inserted] = entries_.emplace(k, Entry{});
    if (!inserted) {
      touch(it);
      return;
    }
    it->second.check = check;
    it->second.payload.assign(payload.data(), payload.size());
    it->second.seq = next_seq_++;
    recency_.emplace(it->second.seq, k);
    ++stats_.stores;
    if (!dir_.empty()) {
      persist_path = entry_path(kind, key);
      persist_bytes = encode_entry(kind, check, it->second.payload);
    }
    doomed = evict_locked();
  }
  for (const std::string& path : doomed) remove_file(path);
  if (persist_path.empty()) return;
  bool ok = false;
  try {
    PARMEM_FAULT_POINT("cache.journal", nullptr);
    ok = write_file_atomic(persist_path, persist_bytes);
  } catch (...) {
    ok = false;
  }
  if (!ok) {
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.store_errors;
  }
}

std::size_t Journal::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return entries_.size();
}

Journal::Stats Journal::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

}  // namespace parmem::support
