#include "optimize/planner.h"

#include <algorithm>
#include <limits>

#include "common/string_util.h"
#include "optimize/greedy_order.h"

namespace ajr {

CostInputs PipelinePlan::EstimatedCostInputs() const {
  CostInputs in;
  in.query = &query;
  in.tables.resize(query.tables.size());
  for (size_t t = 0; t < query.tables.size(); ++t) {
    in.tables[t].cardinality = static_cast<double>(entries[t]->StatsCardinality());
    in.tables[t].local_sel = est_local_sel[t];
    // Representative probe-index height: use the tallest index of the table
    // so PC is not underestimated.
    double height = 3;
    for (const auto& idx : entries[t]->indexes()) {
      height = std::max(height, static_cast<double>(idx->tree->height()));
    }
    in.tables[t].index_height = height;
  }
  in.edge_sel = est_edge_sel;
  return in;
}

namespace {

// Chooses the driving access plan for one table: the sargable index whose
// estimated touched-entry fraction is smallest, else a table scan.
DrivingAccess ChooseDrivingAccess(const TableEntry& entry, const ExprPtr& local_pred,
                                  const SelectivityEstimator& estimator) {
  DrivingAccess best;  // default: table scan, residual = whole predicate
  best.residual = local_pred;
  best.est_slpi = 1.0;
  double best_entries = static_cast<double>(entry.StatsCardinality());
  for (const auto& idx : entry.indexes()) {
    RangeExtraction ex =
        ExtractRanges(local_pred, idx->column, idx->tree->key_type());
    if (!ex.sargable) continue;
    double slpi = estimator.EstimateRanges(entry, idx->column, ex.ranges);
    double entries = slpi * static_cast<double>(entry.StatsCardinality());
    if (entries < best_entries) {
      best_entries = entries;
      best.index = idx.get();
      best.ranges = std::move(ex.ranges);
      best.residual = ex.residual;
      best.est_slpi = slpi;
    }
  }
  return best;
}

}  // namespace

StatusOr<std::unique_ptr<PipelinePlan>> Planner::Plan(const JoinQuery& query) const {
  AJR_RETURN_IF_ERROR(query.Validate());
  if (query.tables.size() > 64) {
    return Status::InvalidArgument("at most 64 tables per pipeline");
  }
  auto plan = std::make_unique<PipelinePlan>();
  plan->query = query;

  const size_t n = query.tables.size();
  plan->entries.resize(n);
  plan->access.resize(n);
  plan->est_local_sel.resize(n);
  for (size_t t = 0; t < n; ++t) {
    AJR_ASSIGN_OR_RETURN(const TableEntry* entry,
                         catalog_->GetTable(query.tables[t].table));
    plan->entries[t] = entry;
    // Validate column references early (local predicate binds + edges below).
    plan->est_local_sel[t] =
        estimator_.EstimateLocal(*entry, query.local_predicates[t]);
    plan->access[t].driving =
        ChooseDrivingAccess(*entry, query.local_predicates[t], estimator_);
    plan->access[t].probe_index_by_edge.assign(query.edges.size(), nullptr);
  }
  plan->est_edge_sel.resize(query.edges.size());
  for (const auto& e : query.edges) {
    const TableEntry* le = plan->entries[e.left];
    const TableEntry* re = plan->entries[e.right];
    AJR_RETURN_IF_ERROR(le->schema().ColumnIndex(e.left_column).status());
    AJR_RETURN_IF_ERROR(re->schema().ColumnIndex(e.right_column).status());
    plan->est_edge_sel[e.edge_id] =
        estimator_.EstimateJoin(*le, e.left_column, *re, e.right_column);
    plan->access[e.left].probe_index_by_edge[e.edge_id] =
        le->FindIndexOnColumn(e.left_column);
    plan->access[e.right].probe_index_by_edge[e.edge_id] =
        re->FindIndexOnColumn(e.right_column);
  }

  CostInputs in = plan->EstimatedCostInputs();

  // Wide queries: skip the per-candidate enumeration and seed with the
  // cardinality-greedy order — by this width the compounded independence
  // errors behind the estimates outweigh the enumeration's precision, and
  // the adaptive run-time owns the repair (DESIGN.md §13).
  if (n > options_.greedy_seed_threshold) {
    plan->initial_order = GreedyCardinalityOrder(in);
    const size_t d = plan->initial_order[0];
    double raw_entries = plan->access[d].driving.est_slpi *
                         static_cast<double>(plan->entries[d]->StatsCardinality());
    double cleg = plan->est_local_sel[d] *
                  static_cast<double>(plan->entries[d]->StatsCardinality());
    plan->est_cost = PipelineCost(in, plan->initial_order, raw_entries, cleg);
    return plan;
  }

  // Pick the driving table: for each candidate, greedy-rank the inners and
  // cost the pipeline with Eq 1; smallest estimated cost wins.
  double best_cost = std::numeric_limits<double>::infinity();
  for (size_t d = 0; d < n; ++d) {
    std::vector<size_t> inners;
    for (size_t t = 0; t < n; ++t) {
      if (t != d) inners.push_back(t);
    }
    std::vector<size_t> order = {d};
    auto rest = GreedyRankOrder(in, inners, uint64_t{1} << d);
    order.insert(order.end(), rest.begin(), rest.end());
    double raw_entries = plan->access[d].driving.est_slpi *
                         static_cast<double>(plan->entries[d]->StatsCardinality());
    double cleg = plan->est_local_sel[d] *
                  static_cast<double>(plan->entries[d]->StatsCardinality());
    double cost = PipelineCost(in, order, raw_entries, cleg);
    if (cost < best_cost) {
      best_cost = cost;
      plan->initial_order = std::move(order);
    }
  }
  plan->est_cost = best_cost;
  return plan;
}

}  // namespace ajr
