#include "sched/list_scheduler.h"

#include <algorithm>

#include "sched/ddg.h"
#include "support/diagnostics.h"
#include "telemetry/telemetry.h"

namespace parmem::sched {

ir::LiwProgram schedule(const ir::TacProgram& prog, const SchedOptions& opts,
                        SchedStats* stats) {
  PARMEM_CHECK(opts.fu_count >= 1, "need at least one functional unit");
  PARMEM_CHECK(opts.module_count >= 1, "need at least one memory module");

  const ir::RegionGraph rg = ir::RegionGraph::build(prog);
  ir::LiwProgram out;
  out.name = prog.name;
  out.values = prog.values;
  out.arrays = prog.arrays;

  // First word index of every region (for branch patching).
  std::vector<std::uint32_t> region_start(rg.regions.size(), 0);

  // ready[head, end): the ready ops of the current block, one key each, in
  // ascending key order — (~height << 32 | node) under kCriticalPath, the
  // node under kSourceOrder. DESIGN.md §9 gives the invariant.
  std::vector<std::uint64_t> ready, fresh;  // fresh: ready after this word
  std::vector<ir::ValueId> reads;           // the word's distinct reads
  SchedStats st;

  for (const ir::Region& region : rg.regions) {
    region_start[region.id] = static_cast<std::uint32_t>(out.words.size());
    BlockDdg ddg = BlockDdg::build(prog, region);
    const auto key = [&](std::uint32_t n) -> std::uint64_t {
      if (opts.priority == SchedPriority::kSourceOrder) return n;
      return std::uint64_t{~ddg.height[n]} << 32 | n;
    };
    st.ddg_edges += ddg.succ.size();
    ready.clear();
    for (std::uint32_t n = 0; n < ddg.count; ++n) {
      if (ddg.pred_count[n] == 0) fresh.push_back(key(n));
    }
    std::size_t head = 0;
    std::size_t left = ddg.count;

    while (left > 0) {
      // Merge the newly ready ops in from the back: they are successors of
      // the last word, so they mostly sort after what is already waiting.
      std::sort(fresh.begin(), fresh.end());
      std::size_t a = ready.size(), b = fresh.size();
      ready.resize(a + b);
      for (std::size_t w = ready.size(); b > 0;) {
        ready[--w] = a > head && ready[a - 1] > fresh[b - 1] ? ready[--a]
                                                             : fresh[--b];
      }
      fresh.clear();
      PARMEM_CHECK(head < ready.size(), "dependence cycle in a basic block");
      ir::LiwWord word;
      word.region = region.id;
      reads.clear();
      // Take ready ops in key order until the word is full. An op whose
      // reads would exceed the module count stays ready: the skipped ops
      // collect, in order, at ready[head, kept).
      std::size_t i = head, kept = head;
      for (; i < ready.size() && word.ops.size() < opts.fu_count; ++i) {
        const auto n = static_cast<std::uint32_t>(ready[i]);
        const ir::TacInstr& in = prog.instrs[ddg.first + n];
        const std::size_t before = reads.size();
        for (const ir::ValueId u : in.value_uses()) {
          if (std::find(reads.begin(), reads.end(), u) == reads.end()) {
            reads.push_back(u);
          }
        }
        if (reads.size() > opts.module_count) {
          reads.resize(before);
          ready[kept++] = ready[i];
          continue;
        }
        word.ops.push_back(in);
        for (const std::uint32_t s : ddg.succs(n)) {
          if (--ddg.pred_count[s] == 0) fresh.push_back(key(s));
        }
      }
      PARMEM_CHECK(!word.ops.empty(), "scheduler made no progress");
      st.ready_scanned += i - head;
      left -= word.ops.size();
      // The skipped ops slide up against the unexamined rest.
      std::move_backward(ready.begin() + head, ready.begin() + kept,
                         ready.begin() + i);
      head = i - (kept - head);
      out.words.push_back(std::move(word));
    }
  }
  PARMEM_COUNTER_ADD("sched.ddg_edges", st.ddg_edges);
  PARMEM_COUNTER_ADD("sched.ready_scanned", st.ready_scanned);

  // Patch branch targets: instruction index -> region -> first word.
  for (ir::LiwWord& word : out.words) {
    for (ir::TacInstr& op : word.ops) {
      if (ir::is_terminator(op.op) && op.op != ir::Opcode::kHalt) {
        const ir::RegionId target_region = rg.region_of[op.target];
        PARMEM_CHECK(rg.regions[target_region].first == op.target,
                     "branch target must be a region leader");
        op.target = region_start[target_region];
      }
    }
  }

  ir::validate_liw(out, opts.fu_count);
  if (stats != nullptr) {
    st.words = out.words.size();
    st.ops = prog.instrs.size();  // every op lands in exactly one word
    *stats = st;
  }
  return out;
}

}  // namespace parmem::sched
