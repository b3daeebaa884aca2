// Result-cache semantics: the service's result cache is a support::Journal
// holding entries of kind kResultJournalKind with check 0. These cases pin
// that use: first-writer-wins byte-identical re-serving, the atomic-rename
// journal, warm-restart recovery, tolerance of every kind of on-disk damage
// (corrupt entries, temp-file orphans, an unusable directory), LRU eviction
// with recency refreshed on lookup and rebuilt from mtimes, and the entry
// naming the router's shard migration parses.
#include "support/journal.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>

#include "service/request.h"
#include "support/file_io.h"

namespace parmem::service {
namespace {

namespace fs = std::filesystem;

// The service's calls: every result is stored under (kResultJournalKind,
// key, 0).
std::optional<std::string> lookup(support::Journal& cache, std::uint64_t key) {
  return cache.lookup(kResultJournalKind, key, 0);
}
void store(support::Journal& cache, std::uint64_t key,
           std::string_view payload) {
  cache.store(kResultJournalKind, key, 0, payload);
}
std::string entry_path(const support::Journal& cache, std::uint64_t key) {
  return cache.entry_path(kResultJournalKind, key);
}
std::string entry_name(std::uint64_t key) {
  return support::journal_entry_name(kResultJournalKind, key);
}

class CacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("parmem_cache_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_str() const { return dir_.string(); }
  fs::path dir_;
};

TEST_F(CacheTest, MemoryOnlyStoreAndLookup) {
  support::Journal cache;  // no dir
  EXPECT_FALSE(lookup(cache, 1).has_value());
  store(cache, 1, "payload-one");
  EXPECT_EQ(lookup(cache, 1).value(), "payload-one");
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(entry_path(cache, 1).empty());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.stores, 1u);
}

TEST_F(CacheTest, FirstWriterWins) {
  support::Journal cache;
  store(cache, 5, "original");
  store(cache, 5, "imposter");
  // Byte-identical re-serving: a key is only ever bound to one value.
  EXPECT_EQ(lookup(cache, 5).value(), "original");
  EXPECT_EQ(cache.stats().stores, 1u);
}

TEST_F(CacheTest, JournalSurvivesARestart) {
  const std::string payload = "status ok\ndiag 0\n\nbody 3\nabc\n";
  {
    support::Journal cache(dir_str());
    store(cache, 0xabcdefULL, payload);
    store(cache, 0x123456ULL, "second entry");
    EXPECT_TRUE(fs::exists(entry_path(cache, 0xabcdefULL)));
  }
  // A fresh cache over the same directory warm-loads both entries and
  // serves the exact bytes.
  support::Journal warm(dir_str());
  EXPECT_EQ(warm.stats().loaded, 2u);
  EXPECT_EQ(warm.stats().load_errors, 0u);
  EXPECT_EQ(lookup(warm, 0xabcdefULL).value(), payload);
  EXPECT_EQ(lookup(warm, 0x123456ULL).value(), "second entry");
}

TEST_F(CacheTest, CorruptEntriesAreSkippedNotFatal) {
  {
    support::Journal cache(dir_str());
    store(cache, 1, "good");
  }
  // Damage a valid-looking sibling: right name shape, garbage content.
  std::ofstream(dir_ / entry_name(0xff)) << "not a journal entry";
  // And a checksum mismatch: valid header, flipped payload byte.
  {
    support::Journal probe(dir_str());
    const std::string path = entry_path(probe, 2);
    store(probe, 2, "tamper-me");
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-1, std::ios::end);
    f.put('X');
  }

  support::Journal warm(dir_str());
  EXPECT_EQ(lookup(warm, 1).value(), "good");
  EXPECT_FALSE(lookup(warm, 0xffULL).has_value());
  EXPECT_FALSE(lookup(warm, 2).has_value());
  EXPECT_EQ(warm.stats().loaded, 1u);
  EXPECT_EQ(warm.stats().load_errors, 2u);
}

TEST_F(CacheTest, TempOrphansFromAKilledStoreAreIgnored) {
  {
    support::Journal cache(dir_str());
    store(cache, 1, "published");
  }
  // Simulate a daemon killed between temp-write and rename.
  std::ofstream(dir_ / (entry_name(1) + ".tmp-12345")) << "torn write";

  support::Journal warm(dir_str());
  EXPECT_EQ(warm.stats().loaded, 1u);
  EXPECT_EQ(warm.stats().load_errors, 1u);  // the orphan, counted not fatal
  EXPECT_EQ(lookup(warm, 1).value(), "published");
}

TEST_F(CacheTest, UnusableDirectoryDegradesToMemoryOnly) {
  // Point the journal at a path that is a regular file.
  std::ofstream blocker(dir_str());
  blocker << "not a directory";
  blocker.close();

  support::Journal cache(dir_str());
  EXPECT_TRUE(cache.dir().empty());  // degraded
  EXPECT_GE(cache.stats().load_errors, 1u);
  // Still fully functional in memory.
  store(cache, 9, "ram only");
  EXPECT_EQ(lookup(cache, 9).value(), "ram only");
  fs::remove(dir_str());
}

TEST_F(CacheTest, EntryPathUsesSixteenHexDigits) {
  // Two hex digits of kind, then the sixteen of the cache key.
  support::Journal cache(dir_str());
  const std::string path = entry_path(cache, 0x1a2bULL);
  EXPECT_NE(path.find("000000000000001a2b.jnl"), std::string::npos);
  EXPECT_EQ(fs::path(path).filename().string(), entry_name(0x1a2bULL));
}

TEST_F(CacheTest, LruEvictionCapsEntriesAndUnlinksJournalFiles) {
  support::Journal cache(dir_str(), /*max_entries=*/3);
  for (std::uint64_t k = 1; k <= 5; ++k) {
    store(cache, k, "entry-" + std::to_string(k));
  }
  // Insertion order 1..5 with no lookups between: 1 and 2 are the LRU
  // victims; their journal files are gone too.
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.stats().evicted, 2u);
  EXPECT_FALSE(lookup(cache, 1).has_value());
  EXPECT_FALSE(lookup(cache, 2).has_value());
  EXPECT_EQ(lookup(cache, 5).value(), "entry-5");
  EXPECT_FALSE(fs::exists(entry_path(cache, 1)));
  EXPECT_FALSE(fs::exists(entry_path(cache, 2)));
  EXPECT_TRUE(fs::exists(entry_path(cache, 3)));
}

TEST_F(CacheTest, LookupRefreshesRecency) {
  support::Journal cache("", /*max_entries=*/2);
  store(cache, 1, "one");
  store(cache, 2, "two");
  // Touch 1 so 2 becomes the LRU victim when 3 arrives.
  EXPECT_TRUE(lookup(cache, 1).has_value());
  store(cache, 3, "three");
  EXPECT_TRUE(lookup(cache, 1).has_value());
  EXPECT_FALSE(lookup(cache, 2).has_value());
  EXPECT_TRUE(lookup(cache, 3).has_value());
}

TEST_F(CacheTest, WarmRestartRebuildsRecencyFromMtime) {
  {
    support::Journal cache(dir_str());
    for (std::uint64_t k = 1; k <= 4; ++k) {
      store(cache, k, "entry-" + std::to_string(k));
    }
    // Make entry 1 the *newest* on disk regardless of write order.
    const auto now = fs::last_write_time(entry_path(cache, 2));
    fs::last_write_time(entry_path(cache, 1), now + std::chrono::seconds(10));
    fs::last_write_time(entry_path(cache, 3), now - std::chrono::seconds(10));
  }
  // A capped warm restart loads everything, then evicts by mtime age:
  // 3 (oldest) goes first, 1 (newest) survives.
  support::Journal warm(dir_str(), /*max_entries=*/2);
  EXPECT_EQ(warm.stats().loaded, 4u);
  EXPECT_EQ(warm.stats().evicted, 2u);
  EXPECT_TRUE(lookup(warm, 1).has_value());
  EXPECT_FALSE(lookup(warm, 3).has_value());
  EXPECT_FALSE(fs::exists(entry_path(warm, 3)));
}

TEST_F(CacheTest, AtomicWriteHelperPublishesAllOrNothing) {
  // The underlying primitive: write_file_atomic leaves either the complete
  // new content or nothing — never a partial file under the final name.
  support::ensure_directory(dir_str());
  const std::string path = (dir_ / "artifact.bin").string();
  EXPECT_TRUE(support::write_file_atomic(path, "v1"));
  EXPECT_EQ(support::read_file(path).value(), "v1");
  EXPECT_TRUE(support::write_file_atomic(path, "version-two"));
  EXPECT_EQ(support::read_file(path).value(), "version-two");
  // No temp debris left behind after successful publishes.
  std::size_t files = 0;
  for (const std::string& name : support::list_directory(dir_str())) {
    EXPECT_EQ(name.find(".tmp-"), std::string::npos) << name;
    ++files;
  }
  EXPECT_EQ(files, 1u);
}

}  // namespace
}  // namespace parmem::service
