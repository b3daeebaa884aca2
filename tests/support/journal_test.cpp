// support::Journal's entry naming and its handling of journals written in
// an older format. The store itself (first-writer-wins replay, warm-restart
// recovery under on-disk damage, LRU eviction) is tested through its two
// users: the result cache in tests/service/cache_test.cpp (kind 0, check 0)
// and the atom memo store in tests/cache/atom_cache_test.cpp (kinds 1-4
// with a check hash).
#include "support/journal.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "support/file_io.h"

namespace parmem {
namespace {

namespace fs = std::filesystem;
using support::journal_entry_name;

// Kinds are opaque to the journal; 3 is assign::MemoKind::kAtomDup.
constexpr std::uint8_t kDup = 3;

class Journal : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("parmem_journal_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_str() const { return dir_.string(); }
  fs::path dir_;
};

TEST(JournalName, RoundTripsAndRejectsOtherNames) {
  EXPECT_EQ(journal_entry_name(kDup, 0x1a2bULL), "030000000000001a2b.jnl");
  const auto parsed = support::parse_journal_entry_name(
      journal_entry_name(0xfe, 0xfedcba9876543210ULL));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->kind, 0xfe);
  EXPECT_EQ(parsed->key, 0xfedcba9876543210ULL);
  // Temp siblings, names written by older builds, and stray files.
  for (const char* name :
       {"030000000000001a2b.jnl.tmp-12345", "0000000000001a2b.res",
        "030000000000001a2b.atom", "030000000000001A2B.jnl", "not-a-key.jnl",
        "0300000000000001a2b.jnl"}) {
    EXPECT_FALSE(support::parse_journal_entry_name(name).has_value()) << name;
  }
}

TEST_F(Journal, EntriesFromAnOlderFormatAreForeignFiles) {
  // Result (`.res`) and atom (`.atom`) entries written before the two
  // journals shared one format: their names alone make them foreign, so
  // each is skipped and counted and the first start after an upgrade is
  // cold, not broken.
  support::ensure_directory(dir_str());
  std::ofstream(dir_ / "0000000000001a2b.res") << "older result entry";
  std::ofstream(dir_ / "020000000000001a2b.atom") << "older atom entry";
  support::Journal warm(dir_str());
  EXPECT_EQ(warm.stats().loaded, 0u);
  EXPECT_EQ(warm.stats().load_errors, 2u);
}

}  // namespace
}  // namespace parmem
