#include "assign/hitting_set_approach.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "assign/placement_state.h"
#include "assign/workspace.h"
#include "support/budget.h"
#include "support/rng.h"

namespace parmem::assign {
namespace {

constexpr std::size_t kModules = 4;
constexpr std::size_t kValues = 48;

ir::AccessStream make_stream() {
  ir::AccessStream s;
  s.value_count = kValues;
  s.duplicatable.assign(kValues, true);
  s.global.assign(kValues, false);
  return s;
}

/// Every value bound once, to module v % 4: each run of four consecutive
/// ids, and any set of ids with distinct residues, is conflict-free.
PlacementState bound_state(const ir::AccessStream& s) {
  PlacementState st(s, kModules);
  for (ir::ValueId v = 0; v < kValues; ++v) st.add_copy(v, v % kModules);
  return st;
}

/// Twelve conflict-free instructions, 3 and 4 operands wide.
std::vector<std::vector<ir::ValueId>> conflict_free_insts() {
  std::vector<std::vector<ir::ValueId>> insts;
  for (ir::ValueId b = 0; b < kValues; b += 4) {
    if (b % 8 == 0) {
      insts.push_back({b, b + 1, b + 2, b + 3});
    } else {
      insts.push_back({b, b + 2, b + 3});
    }
  }
  return insts;
}

TEST(HittingSetDuplicate, NothingConflictingCostsNothing) {
  const ir::AccessStream s = make_stream();
  PlacementState st = bound_state(s);
  const PlacementState before = st;
  const auto insts = conflict_free_insts();
  const std::vector<bool> in_unassigned(kValues, false);

  // One step is less than any size-3 combination scan would charge.
  support::BudgetSpec spec;
  spec.max_steps = 1;
  support::Budget budget(spec);
  AssignWorkspace ws;
  ws.budget = &budget;
  support::SplitMix64 rng(7);

  const HittingSetOutcome out = hitting_set_duplicate(
      st, insts, in_unassigned, s.duplicatable, rng, &ws);
  EXPECT_EQ(out.copies_added, 0u);
  EXPECT_EQ(out.rounds, 0u);
  EXPECT_EQ(out.combos_scanned, 0u);
  EXPECT_TRUE(out.unresolved.empty());
  EXPECT_FALSE(out.budget_exhausted);
  EXPECT_EQ(budget.steps_used(), 0u);
  EXPECT_EQ(st.placements(), before.placements());
}

TEST(HittingSetDuplicate, OneConflictGetsCopiesOnlyOnItsOperands) {
  const ir::AccessStream s = make_stream();
  PlacementState st = bound_state(s);
  const PlacementState before = st;
  auto insts = conflict_free_insts();
  // Values 0, 4 and 8 all live in module 0, and also occur in the
  // conflict-free instructions around them.
  const std::vector<ir::ValueId> conflicting{0, 4, 8};
  insts.insert(insts.begin() + 3, conflicting);
  ASSERT_FALSE(st.combination_conflict_free(conflicting));
  const std::vector<bool> in_unassigned(kValues, false);
  support::SplitMix64 rng(11);

  const HittingSetOutcome out =
      hitting_set_duplicate(st, insts, in_unassigned, s.duplicatable, rng);
  EXPECT_GT(out.copies_added, 0u);
  EXPECT_TRUE(out.unresolved.empty());
  EXPECT_FALSE(out.budget_exhausted);
  // Only the one conflicting combination was ever scanned.
  EXPECT_EQ(out.combos_scanned, 1u);
  for (const auto& ops : insts) {
    EXPECT_TRUE(st.combination_conflict_free(ops));
  }
  for (ir::ValueId v = 0; v < kValues; ++v) {
    const bool operand = std::find(conflicting.begin(), conflicting.end(),
                                   v) != conflicting.end();
    if (!operand) {
      EXPECT_EQ(st.placement(v), before.placement(v)) << "value " << v;
    } else {
      EXPECT_EQ(st.placement(v) & before.placement(v), before.placement(v))
          << "value " << v << " lost a copy";
    }
  }
}

TEST(HittingSetDuplicate, UnassignedValuesAmongBoundOnesStayLocal) {
  // The Fig. 7 pair step and the hitting-set rounds on V_unassigned values
  // (no copies yet) that share one 4-wide instruction, next to bound,
  // conflict-free instructions: every instruction ends conflict-free and
  // the bound values keep exactly their copies.
  const ir::AccessStream s = make_stream();
  PlacementState st(s, kModules);
  std::vector<bool> in_unassigned(kValues, false);
  const std::vector<ir::ValueId> removed{40, 41, 42, 43};
  for (ir::ValueId v = 0; v < 40; ++v) st.add_copy(v, v % kModules);
  for (const ir::ValueId v : removed) in_unassigned[v] = true;
  const PlacementState before = st;
  auto insts = conflict_free_insts();
  insts.resize(10);  // the bound values 0..39 only
  insts.push_back(removed);
  support::SplitMix64 rng(3);

  const HittingSetOutcome out =
      hitting_set_duplicate(st, insts, in_unassigned, s.duplicatable, rng);
  EXPECT_TRUE(out.unresolved.empty());
  EXPECT_FALSE(out.budget_exhausted);
  for (const auto& ops : insts) {
    EXPECT_TRUE(st.combination_conflict_free(ops));
  }
  for (ir::ValueId v = 0; v < 40; ++v) {
    EXPECT_EQ(st.placement(v), before.placement(v)) << "value " << v;
  }
  for (const ir::ValueId v : removed) EXPECT_GE(st.copies(v), 2u);
}

TEST(HittingSetDuplicate, StepBudgetTripsOnConflictingCombinationsOnly) {
  // Two conflicting 3-wide instructions among the conflict-free ones: the
  // size-3 round charges their two combinations, which exceeds a one-step
  // budget, so the rounds and the fix-up are skipped and both instructions
  // are handed back for the caller's capped fix-up (the kHittingSet /
  // kBacktrackCap tiers of the assigner).
  const ir::AccessStream s = make_stream();
  PlacementState st = bound_state(s);
  auto insts = conflict_free_insts();
  insts.push_back({0, 4, 8});
  insts.push_back({1, 5, 9});
  const std::vector<bool> in_unassigned(kValues, false);

  support::BudgetSpec spec;
  spec.max_steps = 1;
  support::Budget budget(spec);
  AssignWorkspace ws;
  ws.budget = &budget;
  support::SplitMix64 rng(5);

  const HittingSetOutcome out = hitting_set_duplicate(
      st, insts, in_unassigned, s.duplicatable, rng, &ws);
  EXPECT_TRUE(out.budget_exhausted);
  EXPECT_EQ(out.copies_added, 0u);
  EXPECT_EQ(out.rounds, 0u);
  EXPECT_EQ(out.unresolved,
            (std::vector<std::size_t>{insts.size() - 2, insts.size() - 1}));
  // The charge was the two conflicting combinations, not the dozens inside
  // the conflict-free instructions.
  EXPECT_EQ(budget.steps_used(), 2u);
}

}  // namespace
}  // namespace parmem::assign
