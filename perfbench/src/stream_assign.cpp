// stream_assign: two seeded synthetic access streams passed straight to
// assign::assign_modules in atom-task mode with 2 execution contexts (a
// support::ThreadPool with one worker):
//
//   syn_mono     random_stream, 4096 values, 20000 tuples, window 24,
//                8 regions: one large component with few atoms, where
//                duplication does useful work;
//   syn_modular  modular_stream at its defaults: 16 blocks joined by
//                clique bridges, where duplication does almost none.
//
// The workload skips frontend, lower and sched entirely; most of its time
// goes to the atom decomposition. The contrast between the two streams
// separates "skip useless work" from "do useful work faster".
#include <map>
#include <string>
#include <vector>

#include "assign/assigner.h"
#include "assign/conflict_graph.h"
#include "assign/verify.h"
#include "graph/atoms.h"
#include "graph/mcsm.h"
#include "layers.h"
#include "ledger.h"
#include "support/rng.h"
#include "support/thread_pool.h"
#include "telemetry/session.h"
#include "telemetry/telemetry.h"
#include "workload.h"
#include "workloads/stream_gen.h"

namespace perfbench {
namespace {

using namespace parmem;

struct Input {
  std::string name;
  ir::AccessStream stream;
};

/// What every assignment of an input must reproduce exactly.
struct Reference {
  std::uint64_t placement_hash = 0;
  std::uint64_t copies = 0;
  std::uint64_t fetch_cycles = 0;
};

std::vector<Input> make_inputs(const RunConfig& cfg) {
  std::vector<Input> inputs;
  {
    support::SplitMix64 rng(cfg.mono_seed);
    workloads::StreamGenOptions g;
    g.value_count = 4096;
    g.tuple_count = 20000;
    g.min_width = 2;
    g.max_width = 4;
    g.locality_window = 24;
    g.region_count = 8;
    inputs.push_back({"syn_mono", workloads::random_stream(g, rng)});
  }
  {
    support::SplitMix64 rng(cfg.modular_seed);
    inputs.push_back(
        {"syn_modular", workloads::modular_stream({}, rng)});
  }
  return inputs;
}

assign::AssignOptions assign_options(support::ThreadPool& pool) {
  assign::AssignOptions o;
  o.module_count = 8;
  o.pool = &pool;
  return o;
}

std::uint64_t placement_hash(const assign::AssignResult& r) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a over the placement
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  for (const auto m : r.placement) mix(m);
  for (const bool b : r.removed) mix(b ? 1 : 0);
  mix(static_cast<std::uint64_t>(r.tier));
  return h;
}

/// Memory fetch cycles of the stream under the placement: one per
/// conflict-free tuple, two per tuple left with a conflict. A placeholder
/// for liw_cycles: a run that passes its checks has no conflicting tuple,
/// so this reads the tuple count and no change to the code can move it.
std::uint64_t fetch_cycles(const ir::AccessStream& s,
                           const assign::VerifyReport& v) {
  return s.tuples.size() + v.conflicting_tuples.size();
}

/// Yardstick units run before each assignment (about 5% of its time).
constexpr int kUnitsPerInput = 8;

/// Timings of passes, scaled to the reference host speed by the yardstick
/// units run between the pass's assignments; wall_s as measured.
struct Passes {
  std::vector<double> pass_s;
  std::vector<double> wall_s;
  std::map<std::size_t, std::vector<double>> per_input_ms;
};

/// One closed-loop pass over both streams in a seeded order. `pool` sets
/// the execution contexts (its workers + the calling thread).
void run_pass(const std::vector<Input>& inputs,
              const std::vector<Reference>& refs, support::ThreadPool& pool,
              support::SplitMix64& rng, Passes& p, Outcome& out) {
  const std::size_t first = rng.below(inputs.size());
  double pass = 0;
  Yardstick ys;
  std::vector<std::pair<std::size_t, double>> ms_of;
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    const std::size_t i = (first + k) % inputs.size();
    ++out.attempted;
    ys.run(kUnitsPerInput);
    const std::uint64_t t0 = now_ns();
    assign::AssignResult r;
    try {
      r = assign::assign_modules(inputs[i].stream, assign_options(pool));
    } catch (const std::exception& e) {
      out.fail_op(inputs[i].name + ": " + e.what());
      continue;
    }
    const double ms = static_cast<double>(now_ns() - t0) / 1e6;
    pass += ms;
    ms_of.emplace_back(i, ms);
    const assign::VerifyReport v =
        assign::verify_assignment(inputs[i].stream, r);
    if (!v.ok() && r.tier <= assign::AssignTier::kHeuristic) {
      out.fail_op(inputs[i].name + ": assignment not conflict-free");
    } else if (placement_hash(r) != refs[i].placement_hash ||
               r.stats.total_copies != refs[i].copies) {
      out.wrong(inputs[i].name +
                ": placement differs between repetitions or thread counts "
                "(determinism probe)");
      out.fail_op(inputs[i].name + ": nondeterministic placement");
    }
  }
  p.pass_s.push_back(pass / 1e3 * ys.scale());
  p.wall_s.push_back(pass / 1e3);
  for (const auto& [i, ms] : ms_of) {
    p.per_input_ms[i].push_back(ms * ys.scale());
  }
}

}  // namespace

Outcome run_stream_assign(const RunConfig& cfg) {
  Outcome out;
  std::vector<Input> inputs;
  std::vector<Reference> refs;
  support::ThreadPool two(1);  // 2 execution contexts
  support::ThreadPool one(0);  // threads = 1: the same tasks inline
  // Set-up: generate both streams and assign each once at 2 contexts (the
  // reference placement; also warms the allocator).
  const double setup_s = timed_setups(kSetups, [&] {
    inputs = make_inputs(cfg);
    refs.assign(inputs.size(), {});
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const assign::AssignResult r =
          assign::assign_modules(inputs[i].stream, assign_options(two));
      const assign::VerifyReport v =
          assign::verify_assignment(inputs[i].stream, r);
      refs[i] = {placement_hash(r), r.stats.total_copies,
                 fetch_cycles(inputs[i].stream, v)};
    }
  });
  std::uint64_t copies_total = 0, cycles_total = 0;
  for (const Reference& r : refs) {
    copies_total += r.copies;
    cycles_total += r.fetch_cycles;
  }

  support::SplitMix64 rng(cfg.seed);
  const double start = now_s();
  if (!cfg.trace) {
    // Passes alternate between 2 contexts (the headline) and threads = 1
    // (the determinism probe and the .low latencies), so that a drift in
    // host speed during the run affects both alike.
    Passes high, low;
    for (int i = 0; low.pass_s.empty() || now_s() - start < cfg.seconds; ++i) {
      run_pass(inputs, refs, i % 2 == 0 ? two : one, rng,
               i % 2 == 0 ? high : low, out);
    }
    const double compile_s = median(high.pass_s);
    note("stream_assign: %zu passes at 2 contexts, %zu at threads=1",
         high.pass_s.size(), low.pass_s.size());
    note("compile_s (scaled): %s", describe(summarize(high.pass_s), "s").c_str());
    note("pass wall time: %s", describe(summarize(high.wall_s), "s").c_str());
    for (const auto& [i, ms] : high.per_input_ms) {
      note("%s: %s", inputs[i].name.c_str(),
           describe(summarize(ms), "ms").c_str());
    }
    out.add("compile_s", compile_s, "s");
    out.add("compile_ms.geomean",
            geomean(percentiles(high.per_input_ms, 50)), "ms");
    out.add("liw_cycles", static_cast<double>(cycles_total), "count");
    out.add("copies_total", static_cast<double>(copies_total), "count");
    // Placeholders: a closed loop has no offered rate, so served_p99_ms.high
    // carries the p99 across inputs of each input's median assignment
    // time at 2 contexts (the headline mode), and served_max_rps is
    // inputs / compile_s.
    out.add("served_p99_ms.high",
            percentile(percentiles(high.per_input_ms, 50), 99), "ms");
    out.add("served_max_rps",
            static_cast<double>(inputs.size()) / compile_s, "1/s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    out.add("setup_s", setup_s, "s");
    return out;
  }

  // Traced run: untraced passes for the overhead baseline, then traced
  // passes with the graph layer timed directly on each stream's conflict
  // graph.
  Passes base;
  while (base.pass_s.size() < 2 || now_s() - start < cfg.seconds / 3) {
    run_pass(inputs, refs, two, rng, base, out);
  }
  std::map<std::string, double> counts;
  for (const Input& in : inputs) {
    const assign::ConflictGraph cg = assign::ConflictGraph::build(in.stream);
    const auto atoms = graph::decompose_by_clique_separators(cg.graph());
    counts["graph.atoms"] += static_cast<double>(atoms.size());
    for (const auto& a : atoms) {
      counts["graph.largest_atom"] = std::max(
          counts["graph.largest_atom"], static_cast<double>(a.vertices.size()));
    }
  }
  telemetry::TraceSession::global().start();
  std::vector<LayerValues> layers;
  std::vector<double> traced_pass_s;
  Ledger all;
  while (traced_pass_s.size() < 2 || now_s() - start < cfg.seconds) {
    LayerValues lv(counts.begin(), counts.end());
    Ledger pass;
    double pass_ms = 0;
    const telemetry::Snapshot before =
        telemetry::Registry::instance().snapshot();
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      ++out.attempted;
      const std::uint64_t t0 = now_ns();
      const assign::AssignResult r =
          assign::assign_modules(inputs[i].stream, assign_options(two));
      pass_ms += static_cast<double>(now_ns() - t0) / 1e6;
      assign::VerifyReport v;
      {
        PARMEM_SPAN("assign.verify");
        v = assign::verify_assignment(inputs[i].stream, r);
      }
      if (!v.ok() || placement_hash(r) != refs[i].placement_hash) {
        out.fail_op(inputs[i].name + ": traced placement differs");
      }
      {
        const assign::ConflictGraph cg =
            assign::ConflictGraph::build(inputs[i].stream);
        PARMEM_SPAN("graph.mcs_m");
        graph::mcs_m(cg.graph());
      }
      pass.drain();
    }
    const telemetry::Snapshot delta =
        telemetry::Registry::instance().snapshot().since(before);
    add_assign_layers(pass, delta, lv);
    lv["graph.mcsm_ms"] = pass.span("graph.mcs_m").incl_ms;
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
  add_layer_medians(layers, out);
  out.set("bench.trace_overhead",
          (median(traced_pass_s) / median(base.pass_s) - 1) * 100);
  return out;
}

}  // namespace perfbench
