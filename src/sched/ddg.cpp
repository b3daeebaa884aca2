#include "sched/ddg.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "support/diagnostics.h"

namespace parmem::sched {
namespace {

constexpr std::uint32_t kNone = 0xffffffff;

/// The last def (store) of a value (array) and the uses (loads) since;
/// stale unless stamped with the current block.
struct Slot {
  std::uint64_t stamp = 0;
  std::uint32_t last = kNone;
  std::vector<std::uint32_t> since;
};

}  // namespace

BlockDdg BlockDdg::build(const ir::TacProgram& prog,
                         const ir::Region& region) {
  // Per-thread tables reused across blocks; a new block bumps the stamp.
  // mark[m] == n: edge m -> n exists (every edge targets the newest node).
  thread_local std::uint64_t block = 0;
  thread_local std::vector<Slot> values, arrays;
  thread_local std::vector<std::uint32_t> mark;
  thread_local std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  const auto slot = [](std::vector<Slot>& table, std::uint32_t id) -> Slot& {
    if (id >= table.size()) table.resize(id + 1);
    Slot& s = table[id];
    if (s.stamp != block) {
      s.stamp = block;
      s.last = kNone;
      s.since.clear();
    }
    return s;
  };
  BlockDdg ddg;
  ddg.first = region.first;
  ddg.count = region.last - region.first;
  ddg.pred_count.assign(ddg.count, 0);
  ++block;
  mark.assign(ddg.count, kNone);
  edges.clear();

  const auto add_edge = [&](std::uint32_t from, std::uint32_t to) {
    if (from == to || mark[from] == to) return;
    PARMEM_CHECK(from < to, "dependence edges must follow program order");
    mark[from] = to;
    edges.emplace_back(from, to);
    ++ddg.pred_count[to];
  };

  std::uint32_t last_output = kNone;  // print ordering

  for (std::uint32_t n = 0; n < ddg.count; ++n) {
    const ir::TacInstr& in = prog.instrs[region.first + n];

    // RAW: uses depend on the latest def.
    for (const ir::ValueId u : in.value_uses()) {
      Slot& s = slot(values, u);
      if (s.last != kNone) add_edge(s.last, n);
      s.since.push_back(n);
    }

    if (ir::has_dst(in.op)) {
      Slot& s = slot(values, in.dst);
      if (s.last != kNone) add_edge(s.last, n);  // WAW
      // WAR: all uses since the previous def precede this def.
      for (const std::uint32_t u : s.since) add_edge(u, n);
      s.since.clear();
      s.last = n;
    }

    // Array ordering.
    if (in.op == ir::Opcode::kLoad || in.op == ir::Opcode::kStore) {
      Slot& s = slot(arrays, in.array);
      if (s.last != kNone) add_edge(s.last, n);  // store-load, store-store
      if (in.op == ir::Opcode::kLoad) {
        s.since.push_back(n);
      } else {
        for (const std::uint32_t l : s.since) add_edge(l, n);  // load-store
        s.since.clear();
        s.last = n;
      }
    }

    // Output ordering.
    if (in.op == ir::Opcode::kPrint) {
      if (last_output != kNone) add_edge(last_output, n);
      last_output = n;
    }

    // Terminator: after everything else in the block.
    if (ir::is_terminator(in.op)) {
      PARMEM_CHECK(n + 1 == ddg.count,
                   "terminator must be the block's last instruction");
      for (std::uint32_t m = 0; m < n; ++m) add_edge(m, n);
    }
  }

  // CSR by stable counting sort: off[from + 1] fills row `from`, ending at
  // row from + 1's start. Edges come in target order, so rows ascend.
  ddg.off.assign(ddg.count + 2, 0);
  for (const auto& [from, to] : edges) ++ddg.off[from + 2];
  std::partial_sum(ddg.off.begin(), ddg.off.end(), ddg.off.begin());
  ddg.succ.resize(edges.size());
  for (const auto& [from, to] : edges) ddg.succ[ddg.off[from + 1]++] = to;
  ddg.off.pop_back();

  // Critical-path heights (reverse topological order == reverse program
  // order, since all edges point forward).
  ddg.height.assign(ddg.count, 1);
  for (std::uint32_t n = ddg.count; n > 0; --n) {
    const std::uint32_t i = n - 1;
    for (const std::uint32_t s : ddg.succs(i)) {
      ddg.height[i] = std::max(ddg.height[i], ddg.height[s] + 1);
    }
  }
  return ddg;
}

}  // namespace parmem::sched
