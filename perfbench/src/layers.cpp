#include "layers.h"

namespace perfbench {

const std::vector<std::pair<std::string, std::string>>& per_layer_names() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"frontend.parse_ms", "ms"},
      {"frontend.sema_ms", "ms"},
      {"frontend.unroll_ms", "ms"},
      {"lower.lower_ms", "ms"},
      {"lower.if_convert_ms", "ms"},
      {"lower.optimize_ms", "ms"},
      {"lower.tac_ops", "count"},
      {"sched.schedule_ms", "ms"},
      {"sched.words", "count"},
      {"sched.transfer_ms", "ms"},
      {"sched.transfers", "count"},
      {"ir.stream_ms", "ms"},
      {"ir.stream_tuples", "count"},
      {"assign.conflict_graph_ms", "ms"},
      {"assign.color_ms", "ms"},
      {"assign.total_ms", "ms"},
      {"assign.verify_ms", "ms"},
      {"assign.duplicate_ms", "ms"},
      {"assign.duplicate_share", "ratio"},
      {"assign.v_unassigned", "count"},
      {"assign.copies_inserted", "count"},
      {"graph.mcsm_ms", "ms"},
      {"graph.atoms_ms", "ms"},
      {"graph.atoms", "count"},
      {"graph.largest_atom", "count"},
      {"graph.conflict_edges", "count"},
      {"machine.run_liw_ms", "ms"},
      {"machine.run_sequential_ms", "ms"},
      {"machine.conflict_words", "count"},
      {"service.codec_us", "us"},
      {"service.cache_hit_ratio", "ratio"},
      {"service.queue_depth_max", "count"},
      {"service.shed", "count"},
      {"service.retried", "count"},
      {"cache.result_journal_bytes", "bytes"},
      {"cache.atom_hit_ratio", "ratio"},
      {"cache.atom_journal_bytes", "bytes"},
      {"router.pending_max", "count"},
      {"router.spilled", "count"},
      {"router.redriven", "count"},
      {"bench.trace_overhead", "%"},
      {"bench.calibration_ms", "ms"},
  };
  return names;
}

void add_assign_layers(const Ledger& pass,
                       const parmem::telemetry::Snapshot& delta,
                       LayerValues& lv) {
  const double total = pass.span("assign.total").incl_ms;
  const double dup = pass.span("assign.duplicate").incl_ms;
  const double atoms = pass.span("assign.atoms").incl_ms;
  lv["assign.total_ms"] = total;
  lv["assign.conflict_graph_ms"] = pass.span("assign.conflict_graph").incl_ms;
  lv["assign.color_ms"] = pass.span("assign.color").incl_ms - atoms;
  lv["assign.duplicate_ms"] = dup;
  lv["assign.duplicate_share"] = total > 0 ? dup / total : 0;
  lv["assign.verify_ms"] = pass.span("assign.verify").incl_ms;
  lv["graph.atoms_ms"] = atoms;
  lv["assign.v_unassigned"] =
      static_cast<double>(delta.value("assign.v_unassigned"));
  lv["assign.copies_inserted"] =
      static_cast<double>(delta.value("assign.copies_inserted"));
  lv["graph.conflict_edges"] =
      static_cast<double>(delta.value("assign.conflict_edges"));
}

void add_layer_medians(const std::vector<LayerValues>& passes, Outcome& out) {
  for (const auto& [name, unit] : per_layer_names()) {
    std::vector<double> v;
    for (const LayerValues& p : passes) {
      const auto it = p.find(name);
      v.push_back(it == p.end() ? 0.0 : it->second);
    }
    out.add(name, median(v), unit);
  }
}

}  // namespace perfbench
