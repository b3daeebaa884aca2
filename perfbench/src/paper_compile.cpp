// paper_compile: the six paper MC programs x STOR1/STOR2/STOR3 at k = 8,
// fu = 8, compiled end to end with analysis::compile_mc at threads = 1, one
// compile at a time from one thread (a closed loop). run_and_check runs
// after each compile, outside the timed span.
//
// These are the paper's own inputs and they reach every compile layer:
// COLOR dominates the total through assign.duplicate and the atom
// decomposition; the five small programs dominate the geometric mean
// through frontend, lower and sched.
#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "analysis/pipeline.h"
#include "assign/conflict_graph.h"
#include "frontend/parser.h"
#include "frontend/sema.h"
#include "graph/atoms.h"
#include "graph/mcsm.h"
#include "support/rng.h"
#include "support/thread_pool.h"
#include "telemetry/session.h"
#include "telemetry/telemetry.h"
#include "layers.h"
#include "ledger.h"
#include "workload.h"
#include "workloads/workloads.h"

namespace perfbench {
namespace {

using namespace parmem;

struct Input {
  std::string name;
  const std::string* source = nullptr;
  analysis::PipelineOptions opts;  // threads = 1
};

/// What every compile of an input must reproduce exactly.
struct Reference {
  std::uint64_t fingerprint = 0;
  std::uint64_t liw_cycles = 0;
  std::uint64_t copies = 0;
};

machine::MachineConfig machine_config() {
  machine::MachineConfig mc;
  mc.fu_count = 8;
  mc.module_count = 8;
  return mc;
}

std::vector<Input> make_inputs() {
  std::vector<Input> inputs;
  for (const auto& wl : workloads::all_workloads()) {
    for (const auto s : {assign::Strategy::kStor1, assign::Strategy::kStor2,
                         assign::Strategy::kStor3}) {
      Input in;
      in.name = wl.name + "/" + assign::strategy_name(s);
      in.source = &wl.source;
      in.opts.assign.module_count = 8;
      in.opts.sched.module_count = 8;
      in.opts.sched.fu_count = 8;
      in.opts.assign.strategy = s;
      in.opts.parallel.threads = 1;
      inputs.push_back(std::move(in));
    }
  }
  return inputs;
}

/// Checks one compile against its reference; returns false (and records
/// why) when any check fails.
bool check_compile(const Input& in, const analysis::Compiled& c,
                   const Reference& ref, const char* mode, Outcome& out) {
  if (!c.verify.ok() && !c.degraded()) {
    out.fail_op(in.name + " (" + mode + "): assignment not conflict-free");
    return false;
  }
  if (c.degraded()) {
    note("%s (%s): degraded tier %s", in.name.c_str(), mode,
         assign::tier_name(c.assignment.tier));
  }
  analysis::ExecutionPair run;
  try {
    run = analysis::run_and_check(c, machine_config());
  } catch (const std::exception& e) {
    out.fail_op(in.name + " (" + mode + "): " + e.what());
    return false;
  }
  if (analysis::compiled_fingerprint(c) != ref.fingerprint ||
      run.liw.cycles != ref.liw_cycles ||
      c.assignment.stats.total_copies != ref.copies) {
    out.wrong(in.name + " (" + mode +
              "): output differs from the threads=1 reference "
              "(determinism probe)");
    out.fail_op(in.name + ": nondeterministic output");
    return false;
  }
  return true;
}

/// Timings of passes. pass_s and per_input_ms are scaled to the reference
/// host speed by the yardstick units run between the pass's compiles;
/// wall_s and op_ms are as measured.
struct Passes {
  std::vector<double> pass_s;                    // one entry per pass
  std::vector<double> wall_s;                    // one entry per pass
  std::vector<double> unit_ms;                   // yardstick, per pass
  std::vector<double> op_ms;                     // every compile
  std::map<std::size_t, std::vector<double>> per_input_ms;
};

/// One closed-loop pass over every input in a seeded order: at threads = 1
/// when `two` is null, else at 2 contexts on that pool (one worker plus the
/// calling thread). One yardstick unit runs before each compile.
void run_pass(const std::vector<Input>& inputs,
              const std::vector<Reference>& refs, support::ThreadPool* two,
              support::SplitMix64& rng, Passes& p, Outcome& out) {
  std::vector<std::size_t> order(inputs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  double pass = 0;
  Yardstick ys;
  std::vector<std::pair<std::size_t, double>> ms_of;
  for (const std::size_t i : order) {
    const analysis::PipelineOptions& opts = inputs[i].opts;
    ++out.attempted;
    ys.run(1);
    const std::uint64_t t0 = now_ns();
    analysis::Compiled c;
    try {
      c = two == nullptr ? analysis::compile_mc(*inputs[i].source, opts)
                         : analysis::compile_mc(*inputs[i].source, opts, two);
    } catch (const std::exception& e) {
      out.fail_op(inputs[i].name + ": " + e.what());
      continue;
    }
    const double ms = static_cast<double>(now_ns() - t0) / 1e6;
    pass += ms;
    p.op_ms.push_back(ms);
    ms_of.emplace_back(i, ms);
    check_compile(inputs[i], c, refs[i],
                  two == nullptr ? "threads=1" : "2 contexts", out);
  }
  const double scale = ys.scale();
  p.pass_s.push_back(pass / 1e3 * scale);
  p.wall_s.push_back(pass / 1e3);
  p.unit_ms.push_back(ys.unit_ms());
  for (const auto& [i, ms] : ms_of) p.per_input_ms[i].push_back(ms * scale);
}

/// compile_mc's stage sequence (threads >= 1, no budget, no memo), driven
/// through each layer's public functions with a span around every call.
analysis::Compiled replica_compile(const Input& in,
                                   support::ThreadPool& pool) {
  const analysis::PipelineOptions& o = in.opts;
  analysis::Compiled c;
  frontend::Program ast;
  {
    PARMEM_SPAN("frontend.parse");
    ast = frontend::parse(*in.source, o.source_name);
  }
  {
    PARMEM_SPAN("frontend.sema");
    frontend::sema(ast);
  }
  {
    PARMEM_SPAN("frontend.unroll");
    c.unroll_stats = frontend::unroll_loops(ast, o.unroll);
  }
  {
    PARMEM_SPAN("lower.lower");
    c.tac = lower::lower_program(ast, o.lower);
  }
  if (o.rename) {
    PARMEM_SPAN("lower.rename");
    c.rename_stats = lower::rename_locals(c.tac);
  }
  if (o.if_convert.max_ops > 0) {
    PARMEM_SPAN("lower.if_convert");
    c.if_convert_stats = lower::if_convert(c.tac, o.if_convert);
  }
  if (o.optimize) {
    PARMEM_SPAN("lower.optimize");
    c.opt_stats = lower::optimize(c.tac);
  }
  {
    PARMEM_SPAN("sched.schedule");
    c.liw = sched::schedule(c.tac, o.sched, &c.sched_stats);
  }
  {
    PARMEM_SPAN("ir.stream");
    c.stream = ir::AccessStream::from_liw(c.liw, o.include_writes,
                                          o.duplicate_mutables);
  }
  {
    assign::AssignOptions a = o.assign;
    a.pool = &pool;
    c.assignment = assign::assign_modules(c.stream, a);
  }
  {
    PARMEM_SPAN("assign.verify");
    c.verify = assign::verify_assignment(c.stream, c.assignment);
  }
  {
    PARMEM_SPAN("sched.transfer");
    c.transfer_stats =
        sched::schedule_transfers(c.liw, c.assignment, o.sched.fu_count);
  }
  return c;
}

}  // namespace

Outcome run_paper_compile(const RunConfig& cfg) {
  Outcome out;
  std::vector<Input> inputs;
  std::vector<Reference> refs;
  // Set-up: inputs, then one reference compile + run per input (this also
  // warms the allocator and instruction caches).
  const double setup_s = timed_setups(kSetups, [&] {
    inputs = make_inputs();
    refs.assign(inputs.size(), {});
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const analysis::Compiled c =
          analysis::compile_mc(*inputs[i].source, inputs[i].opts);
      const analysis::ExecutionPair run =
          analysis::run_and_check(c, machine_config());
      refs[i] = {analysis::compiled_fingerprint(c), run.liw.cycles,
                 c.assignment.stats.total_copies};
    }
  });
  std::uint64_t liw_total = 0, copies_total = 0;
  for (const Reference& r : refs) {
    liw_total += r.liw_cycles;
    copies_total += r.copies;
  }

  support::SplitMix64 rng(cfg.seed);
  const double start = now_s();
  if (!cfg.trace) {
    // Two passes at threads = 1 (the headline) for every pass at 2 contexts
    // (the determinism probe and the .high latencies), interleaved so that
    // a drift in host speed during the run affects both alike.
    support::ThreadPool two(1);
    Passes low, high;
    for (int i = 0; high.pass_s.empty() || now_s() - start < cfg.seconds; ++i) {
      if (i % 3 == 2) {
        run_pass(inputs, refs, &two, rng, high, out);
      } else {
        run_pass(inputs, refs, nullptr, rng, low, out);
      }
    }
    const double compile_s = median(low.pass_s);
    note("paper_compile: %zu passes at threads=1, %zu at 2 contexts",
         low.pass_s.size(), high.pass_s.size());
    note("compile_s (scaled): %s", describe(summarize(low.pass_s), "s").c_str());
    note("pass wall time: %s", describe(summarize(low.wall_s), "s").c_str());
    note("yardstick unit: %s", describe(summarize(low.unit_ms), "ms").c_str());
    note("per-compile latency, threads=1: %s",
         describe(summarize(low.op_ms), "ms").c_str());
    note("per-compile latency, 2 contexts: %s",
         describe(summarize(high.op_ms), "ms").c_str());
    out.add("compile_s", compile_s, "s");
    out.add("compile_ms.geomean",
            geomean(percentiles(low.per_input_ms, 50)), "ms");
    out.add("liw_cycles", static_cast<double>(liw_total), "count");
    out.add("copies_total", static_cast<double>(copies_total), "count");
    // Placeholders: a closed loop has no offered rate, so served_p99_ms.high
    // carries the p99 across inputs of each input's median compile time
    // at threads = 1 (the headline mode), and served_max_rps is
    // inputs / compile_s.
    out.add("served_p99_ms.high",
            percentile(percentiles(low.per_input_ms, 50), 99), "ms");
    out.add("served_max_rps",
            static_cast<double>(inputs.size()) / compile_s, "1/s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    out.add("setup_s", setup_s, "s");
    return out;
  }

  // Traced run: the same replica passes untraced (the overhead baseline),
  // then traced, splitting each compile by layer. Replica identity: the
  // layer split must describe the product path, so every replica compile
  // must reproduce compile_mc's fingerprint.
  support::ThreadPool pool(0);  // threads = 1: the same atom tasks inline
  const machine::MachineConfig mc = machine_config();
  // One pass: the replica compile of every input (timed into pass_ms), then
  // its LIW runs and an MCS-M run on its conflict graph. Spans record only
  // while the trace session is active.
  const auto replica_pass = [&](double& pass_ms, LayerValues& lv,
                                Ledger& ledger) {
    std::uint64_t tac_ops = 0, words = 0, transfers = 0, tuples = 0,
                  conflict_words = 0;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      ++out.attempted;
      const std::uint64_t t0 = now_ns();
      const analysis::Compiled c = replica_compile(inputs[i], pool);
      pass_ms += static_cast<double>(now_ns() - t0) / 1e6;
      if (analysis::compiled_fingerprint(c) != refs[i].fingerprint) {
        out.wrong(inputs[i].name +
                  ": replica fingerprint differs from compile_mc's");
        out.fail_op(inputs[i].name + ": replica mismatch");
        continue;
      }
      analysis::ExecutionPair run;
      {
        PARMEM_SPAN("machine.run_liw");
        run.liw = machine::run_liw(c.liw, c.assignment, mc);
      }
      {
        PARMEM_SPAN("machine.run_sequential");
        run.sequential = machine::run_sequential(c.tac, mc);
      }
      if (run.liw.output != run.sequential.output ||
          run.liw.cycles != refs[i].liw_cycles) {
        out.fail_op(inputs[i].name + ": LIW run differs from the reference");
      }
      {
        const assign::ConflictGraph cg = assign::ConflictGraph::build(c.stream);
        PARMEM_SPAN("graph.mcs_m");
        graph::mcs_m(cg.graph());
      }
      tac_ops += c.tac.instrs.size();
      words += c.sched_stats.words;
      transfers += c.transfer_stats.transfers;
      tuples += c.stream.tuples.size();
      conflict_words += run.liw.conflict_words;
      ledger.drain();  // after every compile: keeps each thread's ring short
    }
    const auto incl = [&](const char* n) { return ledger.span(n).incl_ms; };
    lv["frontend.parse_ms"] = incl("frontend.parse");
    lv["frontend.sema_ms"] = incl("frontend.sema");
    lv["frontend.unroll_ms"] = incl("frontend.unroll");
    lv["lower.lower_ms"] = incl("lower.lower");
    lv["lower.if_convert_ms"] = incl("lower.if_convert");
    lv["lower.optimize_ms"] = incl("lower.optimize");
    lv["lower.tac_ops"] = static_cast<double>(tac_ops);
    lv["sched.schedule_ms"] = incl("sched.schedule");
    lv["sched.words"] = static_cast<double>(words);
    lv["sched.transfer_ms"] = incl("sched.transfer");
    lv["sched.transfers"] = static_cast<double>(transfers);
    lv["ir.stream_ms"] = incl("ir.stream");
    lv["ir.stream_tuples"] = static_cast<double>(tuples);
    lv["machine.run_liw_ms"] = incl("machine.run_liw");
    lv["machine.run_sequential_ms"] = incl("machine.run_sequential");
    lv["machine.conflict_words"] = static_cast<double>(conflict_words);
    lv["graph.mcsm_ms"] = incl("graph.mcs_m");
  };

  // The decomposition's shape, once: atoms and the largest atom.
  LayerValues shape;
  for (const Input& in : inputs) {
    const analysis::Compiled c = analysis::compile_mc(*in.source, in.opts);
    const assign::ConflictGraph cg = assign::ConflictGraph::build(c.stream);
    const auto atoms = graph::decompose_by_clique_separators(cg.graph());
    shape["graph.atoms"] += static_cast<double>(atoms.size());
    for (const auto& a : atoms) {
      shape["graph.largest_atom"] = std::max(
          shape["graph.largest_atom"], static_cast<double>(a.vertices.size()));
    }
  }

  std::vector<double> base_pass_s;
  while (base_pass_s.size() < 2 || now_s() - start < cfg.seconds / 3) {
    double pass_ms = 0;
    LayerValues unused;
    Ledger untraced;
    replica_pass(pass_ms, unused, untraced);
    base_pass_s.push_back(pass_ms / 1e3);
  }
  std::vector<LayerValues> layers;
  std::vector<double> traced_pass_s;
  Ledger all;
  telemetry::TraceSession::global().start();
  while (traced_pass_s.size() < 2 || now_s() - start < cfg.seconds) {
    double pass_ms = 0;
    LayerValues lv = shape;
    Ledger pass;
    const telemetry::Snapshot before =
        telemetry::Registry::instance().snapshot();
    replica_pass(pass_ms, lv, pass);
    add_assign_layers(pass, telemetry::Registry::instance().snapshot().since(before),
                      lv);
    traced_pass_s.push_back(pass_ms / 1e3);
    layers.push_back(std::move(lv));
    all.merge(pass);
  }
  telemetry::TraceSession::global().stop();
  if (all.dropped() > 0) {
    out.wrong("trace ring dropped " + std::to_string(all.dropped()) +
              " events; the ledger is incomplete");
  }
  note("ledger over %zu traced passes:\n%s", traced_pass_s.size(),
       all.table().c_str());

  // Information only: the legacy threads = 0 sweep against the threads = 1
  // references, so the "one schedule" change has before-numbers.
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    analysis::PipelineOptions opts = inputs[i].opts;
    opts.parallel.threads = 0;
    const analysis::Compiled c = analysis::compile_mc(*inputs[i].source, opts);
    const analysis::ExecutionPair run = analysis::run_and_check(c, mc);
    note("threads=0 delta %-14s liw_cycles %+lld copies %+lld",
         inputs[i].name.c_str(),
         static_cast<long long>(run.liw.cycles) -
             static_cast<long long>(refs[i].liw_cycles),
         static_cast<long long>(c.assignment.stats.total_copies) -
             static_cast<long long>(refs[i].copies));
  }

  add_layer_medians(layers, out);
  out.set("bench.trace_overhead",
          (median(traced_pass_s) / median(base_pass_s) - 1) * 100);
  return out;
}

}  // namespace perfbench
