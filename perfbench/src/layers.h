// The per-layer ledger's metric list and the shared derivations.
//
// Every traced run reports every per-layer metric (a layer a workload never
// reaches reads 0). Time metrics are per pass over the workload's inputs,
// summed over the pass and reported as the median over traced passes.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "ledger.h"
#include "telemetry/registry.h"
#include "workload.h"

namespace perfbench {

/// Per-layer values of one traced pass, by metric name.
using LayerValues = std::map<std::string, double>;

/// Every per-layer metric with its unit, in BENCHMARK.json order.
const std::vector<std::pair<std::string, std::string>>& per_layer_names();

/// The assign.* and graph.* rows that come from the library's own spans
/// and counters inside assign::assign_modules:
///   assign.total_ms          incl. time of `assign.total`
///   assign.conflict_graph_ms incl. time of `assign.conflict_graph`
///   assign.color_ms          `assign.color` minus its `assign.atoms` child
///   assign.duplicate_ms      incl. time of `assign.duplicate`
///   assign.duplicate_share   duplicate_ms / total_ms
///   graph.atoms_ms           incl. time of `assign.atoms` (MCS-M + split)
///   assign.v_unassigned, assign.copies_inserted, graph.conflict_edges
///                            the library counters of the same name
///   assign.verify_ms         the benchmark's span around verify_assignment
void add_assign_layers(const Ledger& pass, const parmem::telemetry::Snapshot& delta,
                       LayerValues& lv);

/// Adds every per-layer metric: the median over `passes` of its value
/// (0 where no pass has it).
void add_layer_medians(const std::vector<LayerValues>& passes, Outcome& out);

}  // namespace perfbench
