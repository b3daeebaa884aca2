// Intra-block data-dependence graphs.
//
// The list scheduler packs a basic block's TAC into long instruction words;
// two operations may share a word only if neither depends on the other
// (lock-step semantics: all reads of a word see pre-word state). Edges:
//
//   RAW  def(v) -> use(v)
//   WAR  use(v) -> def(v)      (a later def may not enter the same word)
//   WAW  def(v) -> def(v)
//   array: load/store on the SAME array are ordered conservatively except
//          load-load (no index analysis — run-time banks are the paper's
//          Table 2 territory, not the compile-time problem);
//   print/halt: totally ordered among themselves (program output order);
//   terminator: after everything in the block.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ir/region.h"
#include "ir/tac.h"

namespace parmem::sched {

/// Dependence graph over the instructions [first, last) of one basic block;
/// node i corresponds to instruction first + i.
struct BlockDdg {
  std::uint32_t first = 0;
  std::uint32_t count = 0;
  /// CSR successors: node i must be scheduled strictly before each node of
  /// succ[off[i] .. off[i + 1]), listed in ascending order.
  std::vector<std::uint32_t> off;
  std::vector<std::uint32_t> succ;
  /// Number of unscheduled predecessors (used as the ready-set counter).
  std::vector<std::uint32_t> pred_count;
  /// Critical-path height (1 for sinks) — the scheduling priority.
  std::vector<std::uint32_t> height;

  std::span<const std::uint32_t> succs(std::uint32_t i) const {
    return {succ.data() + off[i], succ.data() + off[i + 1]};
  }

  static BlockDdg build(const ir::TacProgram& prog, const ir::Region& region);
};

}  // namespace parmem::sched
