#include "sched/list_scheduler.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>

#include "analysis/pipeline.h"
#include "frontend/parser.h"
#include "frontend/sema.h"
#include "lower/lower.h"
#include "machine/simulator.h"
#include "workloads/workloads.h"

namespace parmem::sched {
namespace {

ir::TacProgram compile(const std::string& src) {
  frontend::Program ast = frontend::parse(src);
  frontend::sema(ast);
  return lower::lower_program(ast, {});
}

// Note on intra-word structure: a word may legally pack a use of x with a
// later def of x (WAR) — lock-step reads see the pre-word state — so the
// genuine no-RAW-in-one-word invariant is not checkable by inspecting a
// word in isolation. The authoritative check is semantic: the scheduled
// program's output must match the sequential reference, which the tests
// below assert for several machine widths.

TEST(ListScheduler, PacksIndependentOps) {
  const auto tac = compile(
      "func main() { var a: int = 1; var b: int = 2; var c: int = 3; var d: "
      "int = 4; print(a + b + c + d); }");
  SchedStats stats;
  const auto liw = schedule(tac, {.fu_count = 8, .module_count = 8}, &stats);
  EXPECT_LT(stats.words, stats.ops);  // real packing happened
  EXPECT_GT(stats.ilp(), 1.0);
}

TEST(ListScheduler, FuWidthOneDegeneratesToSequential) {
  const auto tac = compile("func main() { print(1 + 2 + 3); }");
  SchedStats stats;
  const auto liw = schedule(tac, {.fu_count = 1, .module_count = 8}, &stats);
  EXPECT_EQ(stats.words, stats.ops);
  for (const auto& w : liw.words) EXPECT_EQ(w.ops.size(), 1u);
}

TEST(ListScheduler, RespectsModuleCountOnScalarReads) {
  // Eight independent adds over eight distinct pre-defined variables would
  // need 8 simultaneous fetches; with module_count=2 each word may read at
  // most 2 distinct scalars.
  std::string src = "func main() {";
  for (int i = 0; i < 8; ++i) {
    src += "var v" + std::to_string(i) + ": int = " + std::to_string(i) + ";";
  }
  src += "var s: int = v0 + v1 + v2 + v3 + v4 + v5 + v6 + v7; print(s); }";
  const auto tac = compile(src);
  const auto liw = schedule(tac, {.fu_count = 8, .module_count = 2});
  for (const ir::LiwWord& w : liw.words) {
    std::set<ir::ValueId> reads;
    for (const ir::TacInstr& op : w.ops) {
      for (const ir::ValueId u : op.value_uses()) reads.insert(u);
    }
    EXPECT_LE(reads.size(), 2u);
  }
}

TEST(ListScheduler, BranchTargetsPointAtWords) {
  const auto tac = compile(
      "func main() { var i: int; var s: int = 0; for i = 1 to 3 { s = s + i; "
      "} print(s); }");
  const auto liw = schedule(tac, {.fu_count = 4, .module_count = 4});
  ir::validate_liw(liw, 4);  // targets in range, structure sound
  // And the scheduled program still runs correctly.
  assign::AssignResult dummy;
  dummy.module_count = 4;
  dummy.placement.assign(liw.values.size(), 0);
  machine::MachineConfig cfg;
  cfg.module_count = 4;
  const auto out = machine::run_liw(liw, dummy, cfg).output;
  EXPECT_EQ(out, (std::vector<std::string>{"6"}));
}

TEST(ListScheduler, SemanticsPreservedAcrossWidths) {
  const char* src =
      "func main() {\n"
      "  array a: int[16]; var i: int;\n"
      "  for i = 0 to 15 { a[i] = (i * 7 + 3) % 11; }\n"
      "  var s: int = 0;\n"
      "  for i = 0 to 15 { if (a[i] % 2 == 0) { s = s + a[i]; } }\n"
      "  print(s);\n"
      "}\n";
  const auto tac = compile(src);
  machine::MachineConfig cfg;
  const auto ref = machine::run_sequential(tac, cfg).output;
  for (const std::size_t fu : {1u, 2u, 4u, 8u}) {
    const auto liw = schedule(tac, {.fu_count = fu, .module_count = 8});
    assign::AssignResult dummy;
    dummy.module_count = 8;
    dummy.placement.assign(liw.values.size(), 0);
    EXPECT_EQ(machine::run_liw(liw, dummy, cfg).output, ref)
        << "fu=" << fu;
  }
}

TEST(ListScheduler, WiderMachinesNeverNeedMoreWords) {
  const auto tac = compile(
      "func main() { var a: int = 1; var b: int = a + 1; var c: int = a + 2; "
      "var d: int = b + c; var e: int = a * d; print(e + d); }");
  std::size_t prev = static_cast<std::size_t>(-1);
  for (const std::size_t fu : {1u, 2u, 4u, 8u}) {
    SchedStats stats;
    schedule(tac, {.fu_count = fu, .module_count = 8}, &stats);
    EXPECT_LE(stats.words, prev);
    prev = stats.words;
  }
}


TEST(ListScheduler, PriorityAblationPreservesSemantics) {
  const char* src =
      "func main() {\n"
      "  var a: int = 1; var b: int = a + 1; var c: int = b * 2;\n"
      "  var d: int = 5; var e: int = d - 1; var f: int = e * 3;\n"
      "  print(c + f);\n"
      "}\n";
  const auto tac = compile(src);
  machine::MachineConfig cfg;
  const auto ref = machine::run_sequential(tac, cfg).output;
  for (const auto prio :
       {SchedPriority::kCriticalPath, SchedPriority::kSourceOrder}) {
    SchedStats stats;
    const auto liw = schedule(
        tac, {.fu_count = 4, .module_count = 8, .priority = prio}, &stats);
    assign::AssignResult dummy;
    dummy.module_count = 8;
    dummy.placement.assign(liw.values.size(), 0);
    EXPECT_EQ(machine::run_liw(liw, dummy, cfg).output, ref);
  }
}

TEST(ListScheduler, CriticalPathNeverWorseOnChains) {
  // Two chains of different length: critical-path priority starts the long
  // chain immediately; source order may serialize behind the short one.
  // At minimum, CP must not produce more words.
  const char* src =
      "func main() {\n"
      "  var s: int = 0; var t: int = 1;\n"
      "  s = s + 1; s = s * 2; s = s + 3; s = s * 4; s = s - 5;\n"
      "  t = t + 1;\n"
      "  print(s + t);\n"
      "}\n";
  const auto tac = compile(src);
  SchedStats cp, so;
  schedule(tac, {.fu_count = 2, .module_count = 8,
                 .priority = SchedPriority::kCriticalPath}, &cp);
  schedule(tac, {.fu_count = 2, .module_count = 8,
                 .priority = SchedPriority::kSourceOrder}, &so);
  EXPECT_LE(cp.words, so.words);
}

/// Straight-line TAC built op by op; every test block ends in halt.
struct Block {
  ir::TacProgram p;
  ir::ValueId value(const std::string& name) {
    ir::ValueInfo vi;
    vi.name = name;
    return p.values.add(vi);
  }
  void op(ir::Opcode code, ir::ValueId dst, ir::Operand a,
          ir::Operand b = ir::Operand::none()) {
    ir::TacInstr in;
    in.op = code;
    in.dst = dst;
    in.a = a;
    in.b = b;
    p.instrs.push_back(in);
  }
  ir::TacProgram done() {
    ir::TacInstr halt;
    halt.op = ir::Opcode::kHalt;
    p.instrs.push_back(halt);
    return p;
  }
};

/// The values each word defines, word by word.
std::vector<std::vector<ir::ValueId>> defs_per_word(const ir::LiwProgram& l) {
  std::vector<std::vector<ir::ValueId>> out;
  for (const ir::LiwWord& w : l.words) {
    out.emplace_back();
    for (const ir::TacInstr& op : w.ops) {
      if (ir::has_dst(op.op)) out.back().push_back(op.dst);
    }
  }
  return out;
}

TEST(ListScheduler, EqualHeightsTieBreakByProgramOrder) {
  Block b;
  const auto x0 = b.value("x0"), x1 = b.value("x1"), x2 = b.value("x2"),
             x3 = b.value("x3");
  const auto one = ir::Operand::imm(std::int64_t{1});
  b.op(ir::Opcode::kMov, x0, one);                      // height 2
  b.op(ir::Opcode::kMov, x1, one);                      // height 2
  b.op(ir::Opcode::kMov, x2, one);                      // height 3
  b.op(ir::Opcode::kAdd, x3, ir::Operand::val(x2), one);  // height 2
  const ir::TacProgram tac = b.done();
  using Words = std::vector<std::vector<ir::ValueId>>;
  // Critical path: the taller x2 first, then x0 before x1 by program
  // order; x1 (skipped by the FU cap) still precedes the newly ready x3.
  EXPECT_EQ(defs_per_word(schedule(tac, {.fu_count = 2, .module_count = 8})),
            (Words{{x2, x0}, {x1, x3}, {}}));
  EXPECT_EQ(defs_per_word(schedule(
                tac, {.fu_count = 2,
                      .module_count = 8,
                      .priority = SchedPriority::kSourceOrder})),
            (Words{{x0, x1}, {x2}, {x3}, {}}));
}

TEST(ListScheduler, ModuleCapSkipStaysReadyAndLeadsNextWord) {
  Block b;
  const auto a = b.value("a"), bb = b.value("b"), c = b.value("c"),
             d = b.value("d"), y0 = b.value("y0"), y1 = b.value("y1"),
             y2 = b.value("y2");
  using ir::Operand;
  b.op(ir::Opcode::kAdd, y0, Operand::val(a), Operand::val(bb));  // height 3
  b.op(ir::Opcode::kAdd, y1, Operand::val(c), Operand::val(d));   // height 2
  b.op(ir::Opcode::kSub, y2, Operand::val(a), Operand::val(bb));  // height 3
  b.op(ir::Opcode::kMov, bb, Operand::imm(std::int64_t{5}));  // WAR on b
  const ir::TacProgram tac = b.done();
  // Two modules: y1's reads {c, d} do not fit beside {a, b}; y2's do. y1
  // stays ready and, tied with the newly ready def of b, leads word 1.
  using Words = std::vector<std::vector<ir::ValueId>>;
  for (const auto prio :
       {SchedPriority::kCriticalPath, SchedPriority::kSourceOrder}) {
    EXPECT_EQ(defs_per_word(schedule(
                  tac, {.fu_count = 4, .module_count = 2, .priority = prio})),
              (Words{{y0, y2}, {y1, bb}, {}}));
  }
}

TEST(ListScheduler, TerminatorAlwaysLandsInTheLastSlot) {
  const auto tac = compile(workloads::workload("SORT").source);
  const ir::RegionGraph rg = ir::RegionGraph::build(tac);
  for (const auto prio :
       {SchedPriority::kCriticalPath, SchedPriority::kSourceOrder}) {
    for (const std::size_t fu : {1u, 2u, 4u, 8u}) {
      const auto liw = schedule(
          tac, {.fu_count = fu, .module_count = 8, .priority = prio});
      std::size_t terminators = 0;
      for (std::size_t w = 0; w < liw.words.size(); ++w) {
        const auto& ops = liw.words[w].ops;
        for (std::size_t s = 0; s < ops.size(); ++s) {
          if (!ir::is_terminator(ops[s].op)) continue;
          ++terminators;
          EXPECT_EQ(s + 1, ops.size()) << "word " << w << " fu=" << fu;
          // ...and it closes its block: the next word starts another one.
          if (w + 1 < liw.words.size()) {
            EXPECT_NE(liw.words[w + 1].region, liw.words[w].region);
          }
        }
      }
      std::size_t block_terminators = 0;
      for (const ir::Region& r : rg.regions) {
        block_terminators += ir::is_terminator(tac.instrs[r.last - 1].op);
      }
      EXPECT_EQ(terminators, block_terminators) << "fu=" << fu;
    }
  }
}

std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// The LIW listing of every paper program, hashed, for both priorities and
// three machine widths. module_count = max(fu, 4): with fu = module = 2 the
// per-word read cap can leave a ready three-operand select with no slot.
// The hashes were captured from the rescan-and-stable_sort scheduler that
// the incremental ready queue replaced; any change in packing shows here.
TEST(ListSchedulerGolden, PaperProgramsKeepTheirWords) {
  struct Pin {
    const char* program;
    SchedPriority priority;
    std::size_t fu;
    std::uint64_t hash;
  };
  constexpr auto kCp = SchedPriority::kCriticalPath;
  constexpr auto kSo = SchedPriority::kSourceOrder;
  static const Pin kPins[] = {
      {"TAYLOR1", kCp, 8, 0xd36a3355c7828c06ull},
      {"TAYLOR1", kCp, 4, 0xfd73ce0886fee8c7ull},
      {"TAYLOR1", kCp, 2, 0xa9e903eebb76d1ebull},
      {"TAYLOR1", kSo, 8, 0xd36a3355c7828c06ull},
      {"TAYLOR1", kSo, 4, 0x2f2ee18d8649d95bull},
      {"TAYLOR1", kSo, 2, 0x484948314a290eb9ull},
      {"TAYLOR2", kCp, 8, 0x93e0bb0979ff563bull},
      {"TAYLOR2", kCp, 4, 0x392df43b4e0db015ull},
      {"TAYLOR2", kCp, 2, 0x071cef94bbce2e70ull},
      {"TAYLOR2", kSo, 8, 0x91035b7b994fd1e7ull},
      {"TAYLOR2", kSo, 4, 0xdedb1fd271dbd9dfull},
      {"TAYLOR2", kSo, 2, 0xaf567e1c773f34f8ull},
      {"EXACT", kCp, 8, 0xec2a47c3febd3438ull},
      {"EXACT", kCp, 4, 0xb6df9d0260f59b98ull},
      {"EXACT", kCp, 2, 0x5459421996f72130ull},
      {"EXACT", kSo, 8, 0x157ddb484be1a988ull},
      {"EXACT", kSo, 4, 0xe04f55ba40483a50ull},
      {"EXACT", kSo, 2, 0xc5b95b121d375e37ull},
      {"FFT", kCp, 8, 0xbf2a25f075a92a4aull},
      {"FFT", kCp, 4, 0x030ec59e19ac632cull},
      {"FFT", kCp, 2, 0xf85a9e8ce9086190ull},
      {"FFT", kSo, 8, 0x49b5aaf4af83be51ull},
      {"FFT", kSo, 4, 0xf8a7623f66a4ddc0ull},
      {"FFT", kSo, 2, 0x87dba3c48373f54cull},
      {"SORT", kCp, 8, 0xd1721a3c0fbbecaeull},
      {"SORT", kCp, 4, 0x094f1f0aae9c1827ull},
      {"SORT", kCp, 2, 0x8f2efea443f6edeeull},
      {"SORT", kSo, 8, 0xd0d7d23832d5ce3aull},
      {"SORT", kSo, 4, 0x4568d54b1afc67ebull},
      {"SORT", kSo, 2, 0x68567c65ff7bcb91ull},
      {"COLOR", kCp, 8, 0xd7caa1ba17b793e1ull},
      {"COLOR", kCp, 4, 0xa4c48678a3fcb7f1ull},
      {"COLOR", kCp, 2, 0x1c27811843284dd8ull},
      {"COLOR", kSo, 8, 0xa6f03622880b294full},
      {"COLOR", kSo, 4, 0x94340433a87ba09aull},
      {"COLOR", kSo, 2, 0x86c5f3404cef21beull},
  };
  std::map<std::string, ir::TacProgram> tac;
  for (const auto& w : workloads::all_workloads()) {
    tac[w.name] = analysis::compile_mc(w.source, {}).tac;
  }
  for (const Pin& pin : kPins) {
    const SchedOptions opts{.fu_count = pin.fu,
                            .module_count = std::max<std::size_t>(pin.fu, 4),
                            .priority = pin.priority};
    const ir::LiwProgram liw = schedule(tac.at(pin.program), opts);
    EXPECT_EQ(fnv1a64(liw.to_string()), pin.hash)
        << pin.program << (pin.priority == kCp ? " cp" : " source")
        << " fu=" << pin.fu;
  }
}

}  // namespace
}  // namespace parmem::sched
