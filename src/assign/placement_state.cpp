#include "assign/placement_state.h"

#include <array>
#include <bit>

#include "support/diagnostics.h"

namespace parmem::assign {

PlacementState::PlacementState(const ir::AccessStream& stream,
                               std::size_t module_count)
    : stream_(&stream), k_(module_count) {
  PARMEM_CHECK(k_ >= 1 && k_ <= kMaxModules, "module count out of range");
  placement_.assign(stream.value_count, 0);
}

bool PlacementState::add_copy(ir::ValueId v, std::uint32_t m) {
  PARMEM_CHECK(v < placement_.size(), "value id out of range");
  PARMEM_CHECK(m < k_, "module index out of range");
  const ModuleSet bit = module_bit(m);
  if (placement_[v] & bit) return false;
  placement_[v] |= bit;
  return true;
}

namespace {

/// Kuhn's augmenting path from operand `l` over copy-set bitmasks;
/// owner[m] is the operand reading module m, or -1.
bool augment(std::size_t l, const ModuleSet* sets,
             std::array<std::int8_t, kMaxModules>& owner, ModuleSet& visited) {
  for (ModuleSet free = sets[l] & ~visited; free != 0; free &= free - 1) {
    const auto m = static_cast<std::uint32_t>(std::countr_zero(free));
    if (visited & (ModuleSet{1} << m)) continue;  // claimed deeper down
    visited |= ModuleSet{1} << m;
    if (owner[m] < 0 ||
        augment(static_cast<std::size_t>(owner[m]), sets, owner, visited)) {
      owner[m] = static_cast<std::int8_t>(l);
      return true;
    }
  }
  return false;
}

/// True iff the operands, with copy sets copies_of(v), admit distinct
/// representative modules. No heap allocation: more operands than the
/// k <= 32 modules can never succeed, so all state fits in fixed arrays.
template <typename CopiesOf>
bool sdr_exists(const std::vector<ir::ValueId>& ops, std::size_t k,
                CopiesOf copies_of) {
  if (ops.size() > k) return false;
  std::array<ModuleSet, kMaxModules> sets{};
  for (std::size_t i = 0; i < ops.size(); ++i) {
    sets[i] = copies_of(ops[i]);
    if (sets[i] == 0) return false;  // nowhere to read it from
  }
  std::array<std::int8_t, kMaxModules> owner;
  owner.fill(-1);
  for (std::size_t l = 0; l < ops.size(); ++l) {
    ModuleSet visited = 0;
    if (!augment(l, sets.data(), owner, visited)) return false;
  }
  return true;
}

}  // namespace

bool PlacementState::combination_conflict_free(
    const std::vector<ir::ValueId>& ops) const {
  return sdr_exists(ops, k_, [this](ir::ValueId v) { return placement_[v]; });
}

bool PlacementState::tuple_conflict_free(const ir::AccessTuple& t) const {
  return combination_conflict_free(t.operands);
}

bool PlacementState::conflict_free_with_extra(
    const std::vector<ir::ValueId>& ops, ir::ValueId extra_v,
    std::uint32_t extra_m) const {
  return sdr_exists(ops, k_, [&](ir::ValueId v) {
    return v == extra_v ? placement_[v] | module_bit(extra_m) : placement_[v];
  });
}

std::vector<std::uint32_t> PlacementState::conflicting_tuples() const {
  std::vector<std::uint32_t> out;
  for (std::uint32_t i = 0; i < stream_->tuples.size(); ++i) {
    if (!tuple_conflict_free(stream_->tuples[i])) out.push_back(i);
  }
  return out;
}

std::size_t PlacementState::total_copies() const {
  std::size_t n = 0;
  for (const ModuleSet s : placement_) n += copy_count(s);
  return n;
}

}  // namespace parmem::assign
