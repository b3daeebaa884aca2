// AtomCache semantics (cache/atom_cache.h): kind-partitioned keys with an
// independent check hash, first-writer-wins byte-identical replay, the
// atomic-rename journal, warm-restart recovery under every kind of on-disk
// damage (torn entries, truncation, temp orphans), LRU eviction with
// mtime-rebuilt recency, and the end-to-end assigner integration: a warm
// restart over the journal reproduces a from-scratch compile byte for byte.
#include "cache/atom_cache.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>

#include "assign/assigner.h"
#include "support/file_io.h"
#include "support/journal.h"
#include "support/rng.h"
#include "support/thread_pool.h"
#include "workloads/stream_gen.h"

namespace parmem::cache {
namespace {

namespace fs = std::filesystem;
using assign::MemoKind;

class AtomCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("parmem_atom_cache_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_str() const { return dir_.string(); }
  // dir_/<name of memo (kind, key)>, whether or not a cache is open on it.
  fs::path entry_file(MemoKind kind, std::uint64_t key) const {
    return dir_ /
           support::journal_entry_name(static_cast<std::uint8_t>(kind), key);
  }
  fs::path dir_;
};

TEST_F(AtomCacheTest, MemoryOnlyRoundTrip) {
  AtomCache cache;  // no dir
  EXPECT_FALSE(cache.lookup(MemoKind::kAtomColor, 7, 1).has_value());
  cache.store(MemoKind::kAtomColor, 7, 1, "delta-bytes");
  EXPECT_EQ(cache.lookup(MemoKind::kAtomColor, 7, 1).value(), "delta-bytes");
  EXPECT_TRUE(cache.journal()
                  .entry_path(static_cast<std::uint8_t>(MemoKind::kAtomColor),
                              7)
                  .empty());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.stores, 1u);
}

TEST_F(AtomCacheTest, KindsPartitionTheKeySpace) {
  AtomCache cache;
  cache.store(MemoKind::kAtomColor, 42, 1, "color");
  cache.store(MemoKind::kAtomDup, 42, 1, "dup");
  cache.store(MemoKind::kAtomSeen, 42, 42, "");
  EXPECT_EQ(cache.lookup(MemoKind::kAtomColor, 42, 1).value(), "color");
  EXPECT_EQ(cache.lookup(MemoKind::kAtomDup, 42, 1).value(), "dup");
  EXPECT_EQ(cache.lookup(MemoKind::kAtomSeen, 42, 42).value(), "");
  EXPECT_FALSE(cache.lookup(MemoKind::kDecomposition, 42, 1).has_value());
}

TEST_F(AtomCacheTest, CheckHashMismatchIsAMissNotACollision) {
  AtomCache cache;
  cache.store(MemoKind::kAtomColor, 9, /*check=*/111, "payload");
  // Same 64-bit key, different secondary hash: a key collision between two
  // different closures. Must read as a miss, never the wrong payload.
  EXPECT_FALSE(cache.lookup(MemoKind::kAtomColor, 9, 222).has_value());
  EXPECT_EQ(cache.stats().check_mismatches, 1u);
  // First writer wins: the stored entry is untouched.
  EXPECT_EQ(cache.lookup(MemoKind::kAtomColor, 9, 111).value(), "payload");
}

TEST_F(AtomCacheTest, FirstWriterWins) {
  AtomCache cache;
  cache.store(MemoKind::kAtomDup, 5, 1, "original");
  cache.store(MemoKind::kAtomDup, 5, 1, "imposter");
  EXPECT_EQ(cache.lookup(MemoKind::kAtomDup, 5, 1).value(), "original");
  EXPECT_EQ(cache.stats().stores, 1u);
}

TEST_F(AtomCacheTest, JournalSurvivesARestart) {
  const std::string payload(300, '\x5a');
  {
    AtomCache cache(dir_str());
    cache.store(MemoKind::kAtomColor, 0xabcdULL, 0xfeedULL, payload);
    cache.store(MemoKind::kDecomposition, 0x1111ULL, 0x2222ULL, "atoms");
    EXPECT_TRUE(fs::exists(entry_file(MemoKind::kAtomColor, 0xabcdULL)));
  }
  AtomCache warm(dir_str());
  EXPECT_EQ(warm.stats().loaded, 2u);
  EXPECT_EQ(warm.stats().load_errors, 0u);
  EXPECT_EQ(warm.lookup(MemoKind::kAtomColor, 0xabcdULL, 0xfeedULL).value(),
            payload);
  EXPECT_EQ(warm.lookup(MemoKind::kDecomposition, 0x1111ULL, 0x2222ULL).value(),
            "atoms");
  // The check hash survives persistence too: a mismatched probe still
  // misses after the restart.
  EXPECT_FALSE(warm.lookup(MemoKind::kAtomColor, 0xabcdULL, 0x0bad).has_value());
}

TEST_F(AtomCacheTest, TornAndTruncatedEntriesAreSkippedNotFatal) {
  {
    AtomCache cache(dir_str());
    cache.store(MemoKind::kAtomColor, 1, 1, "good");
    cache.store(MemoKind::kAtomColor, 2, 2, "will-be-truncated");
    cache.store(MemoKind::kAtomColor, 3, 3, "will-be-flipped");
  }
  // Garbage under a valid-looking name.
  std::ofstream(entry_file(MemoKind::kAtomColor, 0xff))
      << "not a journal entry";
  {
    // Truncate one published entry mid-payload (simulated torn write that
    // bypassed the atomic rename) and flip a byte in another.
    const std::string t = entry_file(MemoKind::kAtomColor, 2).string();
    const auto bytes = support::read_file(t).value();
    std::ofstream(t, std::ios::binary | std::ios::trunc)
        << bytes.substr(0, bytes.size() - 4);
    const std::string f = entry_file(MemoKind::kAtomColor, 3).string();
    std::fstream fd(f, std::ios::in | std::ios::out | std::ios::binary);
    fd.seekp(-1, std::ios::end);
    fd.put('X');
  }

  AtomCache warm(dir_str());
  EXPECT_EQ(warm.stats().loaded, 1u);
  EXPECT_EQ(warm.stats().load_errors, 3u);
  EXPECT_EQ(warm.lookup(MemoKind::kAtomColor, 1, 1).value(), "good");
  EXPECT_FALSE(warm.lookup(MemoKind::kAtomColor, 2, 2).has_value());
  EXPECT_FALSE(warm.lookup(MemoKind::kAtomColor, 3, 3).has_value());
}

TEST_F(AtomCacheTest, TempOrphansFromAKilledStoreAreIgnored) {
  {
    AtomCache cache(dir_str());
    cache.store(MemoKind::kAtomDup, 1, 1, "published");
  }
  std::ofstream(entry_file(MemoKind::kAtomDup, 1).string() + ".tmp-9999")
      << "torn";

  AtomCache warm(dir_str());
  EXPECT_EQ(warm.stats().loaded, 1u);
  EXPECT_EQ(warm.stats().load_errors, 1u);
  EXPECT_EQ(warm.lookup(MemoKind::kAtomDup, 1, 1).value(), "published");
}

TEST_F(AtomCacheTest, UnusableDirectoryDegradesToMemoryOnly) {
  std::ofstream blocker(dir_str());
  blocker << "not a directory";
  blocker.close();

  AtomCache cache(dir_str());
  EXPECT_TRUE(cache.journal().dir().empty());
  EXPECT_GE(cache.stats().load_errors, 1u);
  cache.store(MemoKind::kAtomColor, 9, 9, "ram only");
  EXPECT_EQ(cache.lookup(MemoKind::kAtomColor, 9, 9).value(), "ram only");
  fs::remove(dir_str());
}

TEST_F(AtomCacheTest, LruEvictionCapsEntriesAndUnlinksJournalFiles) {
  AtomCache cache(dir_str(), /*max_entries=*/3);
  for (std::uint64_t k = 1; k <= 5; ++k) {
    cache.store(MemoKind::kAtomColor, k, k, "entry");
  }
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.stats().evicted, 2u);
  EXPECT_FALSE(cache.lookup(MemoKind::kAtomColor, 1, 1).has_value());
  EXPECT_FALSE(cache.lookup(MemoKind::kAtomColor, 2, 2).has_value());
  EXPECT_TRUE(cache.lookup(MemoKind::kAtomColor, 5, 5).has_value());
  EXPECT_FALSE(fs::exists(entry_file(MemoKind::kAtomColor, 1)));
  EXPECT_TRUE(fs::exists(entry_file(MemoKind::kAtomColor, 3)));
}

TEST_F(AtomCacheTest, WarmRestartRebuildsRecencyFromMtime) {
  {
    AtomCache cache(dir_str());
    for (std::uint64_t k = 1; k <= 4; ++k) {
      cache.store(MemoKind::kAtomColor, k, k, "entry");
    }
    const auto now = fs::last_write_time(entry_file(MemoKind::kAtomColor, 2));
    fs::last_write_time(entry_file(MemoKind::kAtomColor, 1),
                        now + std::chrono::seconds(10));
    fs::last_write_time(entry_file(MemoKind::kAtomColor, 3),
                        now - std::chrono::seconds(10));
  }
  AtomCache warm(dir_str(), /*max_entries=*/2);
  EXPECT_EQ(warm.stats().loaded, 4u);
  EXPECT_EQ(warm.stats().evicted, 2u);
  EXPECT_TRUE(warm.lookup(MemoKind::kAtomColor, 1, 1).has_value());
  EXPECT_FALSE(warm.lookup(MemoKind::kAtomColor, 3, 3).has_value());
}

// End-to-end: a compile populates the journal; a *new process* (modelled by
// a fresh AtomCache over the same directory) recompiles an edited stream
// and must produce bytes identical to a from-scratch compile, reusing the
// clean atoms from disk.
TEST_F(AtomCacheTest, WarmRestartCompileIsByteIdenticalAndReusesAtoms) {
  workloads::ModularStreamOptions g;
  g.block_count = 6;
  g.values_per_block = 64;
  g.tuples_per_block = 150;
  support::SplitMix64 rng(0x5eedULL);
  const ir::AccessStream base = workloads::modular_stream(g, rng);

  // Edit: duplicate a handful of tuples from one block's interior. The
  // duplicates double some conflict weights inside the block without adding
  // edges, so only that block's atoms change content; the rest replay.
  ir::AccessStream edited = base;
  int added = 0;
  for (std::size_t t = 0; t < base.tuples.size() && added < 4; ++t) {
    bool inside = true;
    for (const ir::ValueId op : base.tuples[t].operands) {
      inside = inside && op >= 1 * 64 + 8 && op < 2 * 64 - 8;
    }
    if (inside) {
      edited.tuples.push_back(base.tuples[t]);
      ++added;
    }
  }
  ASSERT_EQ(added, 4);

  support::ThreadPool pool(1);
  assign::AssignOptions opts;
  opts.module_count = 4;
  opts.pool = &pool;

  const assign::AssignResult scratch = assign::assign_modules(edited, opts);

  {
    AtomCache cold(dir_str());
    assign::AssignOptions mo = opts;
    mo.memo_store = &cold;
    assign::assign_modules(base, mo);  // prime the journal
    EXPECT_GT(cold.stats().stores, 0u);
  }

  AtomCache warm(dir_str());
  EXPECT_GT(warm.stats().loaded, 0u);
  assign::AssignOptions mo = opts;
  mo.memo_store = &warm;
  const assign::AssignResult inc = assign::assign_modules(edited, mo);

  EXPECT_EQ(inc.placement, scratch.placement);
  EXPECT_EQ(inc.removed, scratch.removed);
  EXPECT_GT(inc.stats.memo_color_hits, 0u);
  EXPECT_GT(inc.stats.memo_dup_hits, 0u);
  // Most atoms are untouched by the single-block edit.
  EXPECT_GT(inc.stats.memo_color_hits, inc.stats.memo_color_misses);
}

}  // namespace
}  // namespace parmem::cache
