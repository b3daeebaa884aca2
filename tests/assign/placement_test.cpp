#include "assign/placement.h"

#include <gtest/gtest.h>

#include "assign/placement_state.h"
#include "support/matching.h"
#include "support/rng.h"

namespace parmem::assign {
namespace {

using ir::AccessStream;

TEST(PlacementState, AddCopyTracksCounts) {
  const auto s = AccessStream::from_tuples(3, {{0, 1, 2}});
  PlacementState st(s, 4);
  EXPECT_EQ(st.copies(0), 0u);
  EXPECT_TRUE(st.add_copy(0, 2));
  EXPECT_FALSE(st.add_copy(0, 2));  // duplicate
  EXPECT_TRUE(st.add_copy(0, 3));
  EXPECT_EQ(st.copies(0), 2u);
  EXPECT_EQ(st.total_copies(), 2u);
}

TEST(PlacementState, ConflictDetection) {
  const auto s = AccessStream::from_tuples(3, {{0, 1}, {1, 2}});
  PlacementState st(s, 2);
  st.add_copy(0, 0);
  st.add_copy(1, 0);
  // 0 and 1 collide in tuple 0; 2 has no copy so tuple 1 also conflicts.
  EXPECT_FALSE(st.tuple_conflict_free(s.tuples[0]));
  EXPECT_EQ(st.conflicting_tuples().size(), 2u);
  st.add_copy(1, 1);  // second copy resolves the pair
  st.add_copy(2, 0);
  EXPECT_TRUE(st.tuple_conflict_free(s.tuples[0]));
  EXPECT_TRUE(st.tuple_conflict_free(s.tuples[1]));
  EXPECT_TRUE(st.conflicting_tuples().empty());
}

TEST(PlacementState, ConflictFreeWithExtraIsHypothetical) {
  const auto s = AccessStream::from_tuples(2, {{0, 1}});
  PlacementState st(s, 2);
  st.add_copy(0, 0);
  st.add_copy(1, 0);
  EXPECT_TRUE(st.conflict_free_with_extra({0, 1}, 1, 1));
  // The real state is unchanged.
  EXPECT_FALSE(st.combination_conflict_free({0, 1}));
}

// The allocation-free bitmask SDR test must answer exactly as the general
// bipartite matcher does: random operand lists of 1-4 values (repeats
// allowed, each needing its own module) over random copy sets, some empty.
TEST(PlacementState, SdrCheckMatchesBipartiteMatcher) {
  constexpr std::size_t kValues = 6;
  support::SplitMix64 rng(0x5d12);
  for (const std::size_t k : {2u, 4u, 8u, 32u}) {
    SCOPED_TRACE(k);
    const auto s = AccessStream::from_tuples(kValues, {});
    std::size_t yes = 0, no = 0;
    for (int trial = 0; trial < 4000; ++trial) {
      PlacementState st(s, k);
      // Copies drawn from the lowest `span` modules, so that wide machines
      // still see crowded operands.
      const std::size_t span = 1 + rng.below(k);
      for (ir::ValueId v = 0; v < kValues; ++v) {
        const std::size_t copies = rng.below(4);
        for (std::size_t c = 0; c < copies; ++c) {
          st.add_copy(v, static_cast<std::uint32_t>(rng.below(span)));
        }
      }
      std::vector<ir::ValueId> ops(1 + rng.below(4));
      for (ir::ValueId& v : ops) v = static_cast<ir::ValueId>(rng.below(kValues));
      const auto extra_v = static_cast<ir::ValueId>(rng.below(kValues));
      const auto extra_m = static_cast<std::uint32_t>(rng.below(k));

      const auto reference = [&](bool with_extra) {
        std::vector<std::vector<std::uint32_t>> choices;
        for (const ir::ValueId v : ops) {
          ModuleSet m = st.placement(v);
          if (with_extra && v == extra_v) m |= module_bit(extra_m);
          choices.push_back(modules_of(m));
        }
        return support::has_distinct_representatives(choices, k);
      };
      const bool plain = st.combination_conflict_free(ops);
      EXPECT_EQ(plain, reference(false)) << "trial " << trial;
      EXPECT_EQ(st.conflict_free_with_extra(ops, extra_v, extra_m),
                reference(true))
          << "trial " << trial;
      (plain ? yes : no) += 1;
    }
    EXPECT_GT(yes, 400u);  // both answers well represented
    EXPECT_GT(no, 400u);
  }
}

TEST(Placement, SingleConstrainedInstructionGetsTheOnlyFix) {
  // k=3; values 0,1 fixed in modules 0,1; value 2 (duplicable) must land in
  // module 2 to fix instruction {0,1,2}.
  const auto s = AccessStream::from_tuples(3, {{0, 1, 2}});
  PlacementState st(s, 3);
  st.add_copy(0, 0);
  st.add_copy(1, 1);
  std::vector<bool> unassigned{false, false, true};
  support::SplitMix64 rng(1);
  const auto insts = std::vector<std::vector<ir::ValueId>>{{0, 1, 2}};
  EXPECT_EQ(place_copies(st, insts, {2}, unassigned, rng), 1u);
  EXPECT_TRUE(holds(st.placement(2), 2));
  EXPECT_TRUE(st.combination_conflict_free({0, 1, 2}));
}

TEST(Placement, PrefersModuleResolvingMoreConflicts) {
  // Value 4 is duplicable and conflicts in two instructions; module 2 fixes
  // both, module 3 fixes only one. The heuristic must choose module 2.
  const auto s = AccessStream::from_tuples(5, {{0, 1, 4}, {2, 1, 4}});
  PlacementState st(s, 4);
  st.add_copy(0, 0);
  st.add_copy(1, 1);
  st.add_copy(2, 3);  // occupies module 3 in instruction 2
  std::vector<bool> unassigned{false, false, false, false, true};
  support::SplitMix64 rng(1);
  const std::vector<std::vector<ir::ValueId>> insts{{0, 1, 4}, {2, 1, 4}};
  place_copies(st, insts, {4}, unassigned, rng);
  EXPECT_TRUE(holds(st.placement(4), 2));
  EXPECT_TRUE(st.combination_conflict_free({0, 1, 4}));
  EXPECT_TRUE(st.combination_conflict_free({2, 1, 4}));
}

TEST(Placement, ValueAlreadyEverywhereIsSkipped) {
  const auto s = AccessStream::from_tuples(1, {{0}});
  PlacementState st(s, 2);
  st.add_copy(0, 0);
  st.add_copy(0, 1);
  std::vector<bool> unassigned{true};
  support::SplitMix64 rng(1);
  EXPECT_EQ(place_copies(st, {{0}}, {0}, unassigned, rng), 0u);
}

TEST(Placement, GroupOrderingMostConstrainedFirst) {
  // Two values to place: value 3 appears in a group-1 instruction (single
  // duplicable operand), value 4 only in group-2 instructions. Value 3 must
  // be placed first and get the unique fixing module.
  const auto s = AccessStream::from_tuples(5, {{0, 1, 3}, {3, 4}});
  PlacementState st(s, 3);
  st.add_copy(0, 0);
  st.add_copy(1, 1);
  std::vector<bool> unassigned{false, false, false, true, true};
  support::SplitMix64 rng(1);
  const std::vector<std::vector<ir::ValueId>> insts{{0, 1, 3}, {3, 4}};
  place_copies(st, insts, {3, 4}, unassigned, rng);
  EXPECT_TRUE(holds(st.placement(3), 2));
}

}  // namespace
}  // namespace parmem::assign
