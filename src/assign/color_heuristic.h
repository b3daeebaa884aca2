// The paper's graph-coloring heuristic (Fig. 4), extended with the two
// hooks the rest of the system needs:
//
//  * pre-colored vertices — required by the atom-by-atom composition
//    (§2.1: color each clique-separator atom separately) and by the STOR2 /
//    STOR3 strategies, where earlier stages fix some bindings;
//  * never-remove vertices — mutable program variables must not be
//    duplicated (copies would go stale), so instead of moving them to
//    V_unassigned when no color is left, they are *forced* into the module
//    that minimizes their conflict weight and reported separately.
//
// Faithful details: edge weights are wt(u→v) = 0 if deg(u) < k else
// conf(u, v); the next vertex is the one with maximum urgency
// U(v) = Σ_{assigned neighbors w} wt(w→v) / K(v), where K(v) is the number
// of modules still usable for v; K(v) = 0 means infinite urgency, and such
// a vertex is removed as soon as it is popped. Ties break on the static
// weight sum S(v), then on vertex id — which also covers seeding: before
// anything is colored every urgency is 0/k, so the first vertex picked is
// argmax S, the paper's n_first.
#pragma once

#include <cstdint>
#include <vector>

#include "assign/conflict_graph.h"
#include "assign/workspace.h"

namespace parmem::support {
class Budget;
class ThreadPool;
}

namespace parmem::assign {

struct MemoSession;  // incremental.h

/// How the heuristic picks among several admissible modules
/// ("ASSIGN(n_next) = one of the available modules", Fig. 4).
enum class ModulePick : std::uint8_t {
  kLeastLoaded,  // balance values across modules (default)
  kLowestIndex,  // always the smallest admissible module index
};

struct ColorOptions {
  std::size_t module_count = 8;
  /// Decompose into clique-separator atoms first (§2.1). Turning this off
  /// colors the whole graph in one sweep (the atoms-ablation bench).
  bool use_atoms = true;
  ModulePick pick = ModulePick::kLeastLoaded;
  /// Atom-parallel mode. When null (default), atoms are colored by the
  /// legacy sequential sweep, each atom seeing its predecessors' coloring
  /// and module-load state. When set, the separator vertices (those shared
  /// between atoms) are colored first, inline, and then every atom colors
  /// its interior as an independent task on the pool from a snapshot of that
  /// frontier; per-atom results are merged in stable atom order. Tasks are
  /// pure functions of the snapshot, so the result is byte-identical for
  /// every worker count — a pool with zero workers is the serial execution
  /// of the same decomposition.
  support::ThreadPool* pool = nullptr;
  /// Cooperative budget. Null = unlimited (the exact legacy sweep). On
  /// exhaustion mid-atom the urgency-heap sweep is abandoned and the
  /// remaining undecided vertices are finished greedily: duplicatable ones
  /// go to V_unassigned, never-remove ones are forced into their cheapest
  /// module — linear work, and the duplication tiers below clean up.
  support::Budget* budget = nullptr;
  /// Incremental memo session (incremental.h). When set, the
  /// clique-separator decomposition is reused under a structure-only hash,
  /// and — in pool mode with no budget — each atom's coloring delta is
  /// replayed from the store when its input closure is unchanged. Null
  /// (default) = off. Pure memoization: output is byte-identical to a
  /// memo-less run for any store state.
  MemoSession* memo = nullptr;
};

inline constexpr std::int32_t kUnassignedModule = -1;

struct ColorResult {
  /// Per conflict-graph vertex: module index, or kUnassignedModule if the
  /// vertex was removed (V_unassigned).
  std::vector<std::int32_t> module;
  /// Vertices removed from the graph, in removal order (V_unassigned).
  std::vector<graph::Vertex> unassigned;
  /// Never-remove vertices that had to be forced into a conflicting module.
  std::vector<graph::Vertex> forced;
  /// Clique-separator atoms in processing order (reverse generation order),
  /// as vertex lists; empty when atoms were disabled. The assigner's
  /// atom-parallel duplication partitions instructions along these.
  std::vector<std::vector<graph::Vertex>> atoms;
  /// True iff the budget tripped during coloring and some vertices were
  /// finished by the greedy completion instead of the urgency heap.
  bool budget_exhausted = false;
};

/// Runs the heuristic.
/// @param precolored per-vertex module or kUnassignedModule; empty == none.
/// @param never_remove per-vertex flag; empty == all removable.
/// @param module_load if non-null, running count of values per module shared
///        across calls (STOR2/3 stages); updated in place.
/// @param ws if non-null, reusable scratch (see workspace.h); a local
///        workspace is used otherwise. Purely a performance knob.
ColorResult color_conflict_graph(const ConflictGraph& cg,
                                 const ColorOptions& opts,
                                 const std::vector<std::int32_t>& precolored = {},
                                 const std::vector<bool>& never_remove = {},
                                 std::vector<std::size_t>* module_load = nullptr,
                                 AssignWorkspace* ws = nullptr);

}  // namespace parmem::assign
