// Self-test of the benchmark's ReferenceChecker.
//
// On a small DMV data set it shows that (1) the checker agrees with the
// PipelineExecutor on paper, wide and hand-written queries (IN, NOT, OR,
// numeric ranges), and (2) the comparison the benchmark makes rejects a
// result with one row dropped, one row duplicated, one value changed, or
// one local predicate ignored. Exit code 0 = all checks passed.
//
// Run: python3 perfbench/run.py --selftest

#include <cstdio>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "checker.h"
#include "exec/pipeline_executor.h"
#include "optimize/planner.h"
#include "workload/dmv.h"
#include "workload/templates.h"

namespace ajr::perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

ResultDigest DigestOf(const std::vector<Row>& rows) {
  ResultDigest d;
  for (const Row& r : rows) d.Add(HashRow(r));
  return d;
}

std::vector<Row> Execute(const Planner& planner, const JoinQuery& q) {
  auto plan = planner.Plan(q);
  if (!plan.ok()) {
    Expect(false, "plan " + q.name + ": " + plan.status().ToString());
    return {};
  }
  std::vector<Row> rows;
  PipelineExecutor exec(plan->get(), AdaptiveOptions{});
  auto stats = exec.Execute([&rows](const Row& r) { rows.push_back(r); });
  Expect(stats.ok(), "execute " + q.name);
  return rows;
}

Value Perturbed(const Value& v) {
  switch (v.type()) {
    case DataType::kInt64: return Value(v.AsInt64() + 1);
    case DataType::kDouble: return Value(v.AsDouble() + 1.0);
    case DataType::kBool: return Value(!v.AsBool());
    case DataType::kString: return Value(v.AsString() + "x");
  }
  return v;
}

/// Car x Owner with IN, NOT, OR and a numeric range the DMV templates do
/// not use.
JoinQuery HandWritten() {
  JoinQuery q;
  q.name = "hand/in-not-or";
  q.tables = {{"o", "owner"}, {"c", "car"}};
  q.edges = {{0, "id", 1, "ownerid", 0}};
  q.local_predicates = {
      Or({In("country3", {Value("US"), Value("DE")}),
          ColCmp("country3", CompareOp::kEq, Value("JP"))}),
      And({Not(In("make", {Value("Ford"), Value("Toyota")})),
           ColCmp("year", CompareOp::kGe, Value(int64_t{2000}))})};
  q.output = {{0, "name"}, {1, "make"}, {1, "year"}};
  return q;
}

int Main() {
  Catalog catalog;
  DmvConfig config;
  config.num_owners = 3000;
  auto cards = GenerateDmv(&catalog, config);
  if (!cards.ok()) {
    std::printf("FAIL: GenerateDmv: %s\n", cards.status().ToString().c_str());
    return 1;
  }
  PlannerOptions popts;
  popts.stats_tier = StatsTier::kMinimal;
  Planner planner(&catalog, popts);
  DmvQueryGenerator gen(&catalog, 11);

  std::vector<JoinQuery> queries;
  auto paper = gen.GenerateMix(4);
  auto wide = gen.GenerateWideMix(10, 4);
  Expect(paper.ok() && wide.ok(), "query generation");
  if (paper.ok()) queries.insert(queries.end(), paper->begin(), paper->end());
  if (wide.ok()) queries.insert(queries.end(), wide->begin(), wide->end());
  queries.push_back(HandWritten());

  ReferenceChecker checker(&catalog);
  bool mutated_rows = false;
  bool ignored_predicate = false;
  size_t nonempty = 0;
  for (const JoinQuery& q : queries) {
    auto ref = checker.Evaluate(q);
    if (!ref.ok()) {
      Expect(false, "checker on " + q.name + ": " + ref.status().ToString());
      continue;
    }
    std::vector<Row> rows = Execute(planner, q);
    Expect(DigestOf(rows) == *ref, "checker agrees with the executor on " + q.name);
    if (!rows.empty()) ++nonempty;

    if (!mutated_rows && rows.size() >= 2) {
      mutated_rows = true;
      std::vector<Row> dropped(rows.begin() + 1, rows.end());
      Expect(!(DigestOf(dropped) == *ref), "one dropped row is caught on " + q.name);
      std::vector<Row> duplicated = rows;
      duplicated.push_back(rows[0]);
      Expect(!(DigestOf(duplicated) == *ref), "one duplicated row is caught on " + q.name);
      std::vector<Row> changed = rows;
      changed[0].back() = Perturbed(rows[0].back());
      Expect(!(DigestOf(changed) == *ref), "one changed value is caught on " + q.name);
    }

    for (size_t t = 0; t < q.tables.size() && !ignored_predicate; ++t) {
      if (q.local_predicates[t] == nullptr) continue;
      JoinQuery loose = q;
      loose.local_predicates[t] = nullptr;
      std::vector<Row> loose_rows = Execute(planner, loose);
      if (loose_rows.size() == rows.size()) continue;  // predicate was redundant here
      ignored_predicate = true;
      Expect(!(DigestOf(loose_rows) == *ref),
             "an ignored predicate on " + q.tables[t].alias + " is caught on " + q.name);
      auto loose_ref = checker.Evaluate(loose);
      Expect(loose_ref.ok() && *loose_ref == DigestOf(loose_rows),
             "checker agrees with the executor on " + q.name + " without its " +
                 q.tables[t].alias + " predicate");
    }
  }
  Expect(mutated_rows, "some query returned at least two rows");
  Expect(ignored_predicate, "some local predicate changes its query's result");
  Expect(nonempty * 2 >= queries.size(), "at least half the queries return rows");

  std::printf("%zu queries, %zu with rows: %s\n", queries.size(), nonempty,
              failures == 0 ? "checker self-test passed" : "checker self-test FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace ajr::perfbench

int main() { return ajr::perfbench::Main(); }
