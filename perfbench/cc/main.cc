// End-to-end benchmark of the AJR engine (see perfbench/README.md).
//
//   ajr_perfbench --workload <paper_mix|wide_mix|engine_dop2> --seed <n>
//                 --seconds <s> --trace <0|1> [--out <dir>] [--variant <v>]
//
// Loads the DMV data set at Table 1 scale, generates the workload's queries
// from --seed, computes every query's result digest with the independent
// ReferenceChecker (in a child process, so its memory stays out of the
// measured peak RSS), then runs whole passes over the queries for --seconds.
// Every execution is one operation; it fails when it returns a non-OK status
// or its digest differs from the checker's. Time metrics come from each
// query's fastest pass, since wall time on a shared host swings with the
// neighbours. The last stdout line is one JSON object with the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1).

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "checker.h"
#include "common/metrics.h"
#include "exec/exec_observer.h"
#include "exec/pipeline_executor.h"
#include "expr/evaluator.h"
#include "optimize/planner.h"
#include "runtime/query_engine.h"
#include "storage/key_codec.h"
#include "trace.h"
#include "workload/dmv.h"
#include "workload/templates.h"

namespace ajr::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Initialized before main(): set-up time counts from process start.
const Clock::time_point kProcessStart = Clock::now();

double Since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

// ---- Command line ---------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  std::string out_dir = "perfbench/out";
  std::string variant = "default";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    const char* end = value.data() + value.size();
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      have_seed = std::from_chars(value.data(), end, args->seed).ptr == end;
    } else if (flag == "--seconds") {
      if (std::from_chars(value.data(), end, args->seconds).ptr != end) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--out") {
      args->out_dir = value;
    } else if (flag == "--variant") {
      args->variant = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && !args->workload.empty() && args->seconds > 0 &&
         args->seconds <= 600 && args->trace >= 0;
}

// ---- Workloads -------------------------------------------------------------

// Why these (README has the detail): paper_mix is the paper's Fig 7 traffic,
// bound by probes, fetches and predicates; engine_dop2 sends paper_mix
// through the concurrent runtime with morsel parallelism. wide_mix, where
// adaptation decisions dominate, is not gated in BENCHMARK.json: a few
// 16-table queries whose driving switches blow up make its pass totals swing
// with the seed.
struct Workload {
  const char* name;
  bool wide;
  size_t dop;  ///< 0 = serial PipelineExecutor, else QueryEngine at this dop
};

constexpr Workload kWorkloads[] = {
    {"paper_mix", false, 0},
    {"wide_mix", true, 0},
    {"engine_dop2", false, 2},
};

constexpr size_t kPaperPerTemplate = 60;          // T1-T5 x 60 = 300 queries
constexpr size_t kWideWidths[] = {10, 12, 14, 16};
constexpr size_t kWidePerWidth = 50;              // 4 x 50 = 200 queries
constexpr size_t kEngineWorkers = 2;
constexpr size_t kMinPasses = 3;
// Interleaved adaptive/static rounds in the traced run (best of each).
constexpr size_t kStaticRounds = 3;

/// Ablations for diagnosing the engine (never used by the standard runs).
bool VariantOptions(const std::string& variant, AdaptiveOptions* o) {
  if (variant == "default") return true;
  if (variant == "no-driving") {
    o->reorder_driving = false;
  } else if (variant == "no-inner") {
    o->reorder_inners = false;
  } else if (variant == "static") {
    o->reorder_inners = o->reorder_driving = false;
  } else if (variant == "per-row-probes") {
    o->probe_batch_size = 1;
    o->probe_cache_entries = 0;
  } else {
    return false;
  }
  return true;
}

AdaptiveOptions NoSwitch() {
  AdaptiveOptions o;
  o.reorder_inners = o.reorder_driving = false;
  return o;
}

StatusOr<std::vector<JoinQuery>> MakeQueries(const Catalog& catalog, bool wide,
                                             uint64_t seed) {
  DmvQueryGenerator gen(&catalog, seed);
  if (!wide) return gen.GenerateMix(kPaperPerTemplate);
  std::vector<JoinQuery> all;
  for (size_t width : kWideWidths) {
    auto mix = gen.GenerateWideMix(width, kWidePerWidth);
    if (!mix.ok()) return mix.status();
    for (JoinQuery& q : *mix) all.push_back(std::move(q));
  }
  return all;
}

// ---- Reference digests (child process) -------------------------------------

struct DigestRecord {
  uint64_t ok;
  uint64_t rows;
  uint64_t checksum;
};

bool WriteAll(int fd, const void* data, size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    ssize_t w = write(fd, p, n);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    p += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

/// Evaluates every query with the ReferenceChecker in a forked child, so
/// the checker's bitmaps and hash tables never count toward this process's
/// peak RSS. Must run while this process has no other threads.
StatusOr<std::vector<ResultDigest>> ReferenceDigests(const Catalog& catalog,
                                                     const std::vector<JoinQuery>& queries) {
  int fds[2];
  if (pipe(fds) != 0) return Status::Internal("pipe failed");
  pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return Status::Internal("fork failed");
  }
  if (pid == 0) {
    close(fds[0]);
    ReferenceChecker checker(&catalog);
    int code = 0;
    for (const JoinQuery& q : queries) {
      auto d = checker.Evaluate(q);
      if (!d.ok()) {
        std::fprintf(stderr, "checker: %s: %s\n", q.name.c_str(),
                     d.status().ToString().c_str());
      }
      DigestRecord rec{d.ok() ? 1u : 0u, d.ok() ? d->rows : 0, d.ok() ? d->checksum : 0};
      if (!WriteAll(fds[1], &rec, sizeof rec)) {
        code = 1;
        break;
      }
    }
    close(fds[1]);
    _exit(code);
  }
  close(fds[1]);
  std::vector<DigestRecord> recs(queries.size());
  size_t got = 0;
  const size_t want = recs.size() * sizeof(DigestRecord);
  char* buf = reinterpret_cast<char*>(recs.data());
  while (got < want) {
    ssize_t r = read(fds[0], buf + got, want - got);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) break;
    got += static_cast<size_t>(r);
  }
  close(fds[0]);
  int wstatus = 0;
  while (waitpid(pid, &wstatus, 0) < 0 && errno == EINTR) {
  }
  if (got != want || !WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
    return Status::Internal("reference checker process failed");
  }
  std::vector<ResultDigest> out;
  for (size_t i = 0; i < recs.size(); ++i) {
    if (recs[i].ok == 0) {
      return Status::Internal("checker could not evaluate " + queries[i].name);
    }
    out.push_back({recs[i].rows, recs[i].checksum});
  }
  return out;
}

// ---- One operation ---------------------------------------------------------

struct Outcome {
  Status status;
  ExecStats stats;
  ResultDigest digest;
  double seconds = 0;       ///< plan + execute, or submit to done
  double plan_seconds = 0;  ///< serial runs only
};

/// Counts OnProbe callbacks (one per probe of an inner leg).
class ProbeObserver : public ExecObserver {
 public:
  void OnProbe(size_t, size_t, uint64_t fetched, uint64_t, uint64_t) override {
    ++probes;
    rows_fetched += fetched;
  }
  uint64_t probes = 0;
  uint64_t rows_fetched = 0;
};

Outcome RunSerial(const Planner& planner, const JoinQuery& query,
                  const AdaptiveOptions& options, ExecObserver* observer,
                  Tracer* tracer, int32_t parent, uint32_t qid) {
  Outcome out;
  ScopedSpan op(tracer, "query", parent, qid);
  Clock::time_point t0 = Clock::now();
  std::unique_ptr<PipelinePlan> plan;
  {
    ScopedSpan span(tracer, "optimize.plan", op.id(), qid);
    auto planned = planner.Plan(query);
    if (!planned.ok()) {
      out.status = planned.status();
      return out;
    }
    plan = std::move(*planned);
  }
  out.plan_seconds = Since(t0);
  PipelineExecutor exec(plan.get(), options);
  exec.set_observer(observer);
  ResultDigest* digest = &out.digest;
  {
    ScopedSpan span(tracer, "exec.execute", op.id(), qid);
    auto stats = exec.Execute([digest](const Row& row) { digest->Add(HashRow(row)); });
    if (stats.ok()) {
      out.stats = std::move(*stats);
    } else {
      out.status = stats.status();
    }
  }
  out.seconds = Since(t0);
  return out;
}

Outcome RunEngine(QueryEngine* engine, const JoinQuery& query,
                  const AdaptiveOptions& options, size_t dop, Tracer* tracer,
                  int32_t parent, uint32_t qid) {
  Outcome out;
  QuerySpec spec;
  spec.query = query;
  spec.adaptive = options;
  spec.dop = dop;
  ResultDigest* digest = &out.digest;  // the engine serializes sink calls
  spec.sink = [digest](const Row& row) { digest->Add(HashRow(row)); };
  ScopedSpan op(tracer, "query", parent, qid);
  Clock::time_point t0 = Clock::now();
  int32_t submit = tracer->Begin("runtime.submit", op.id(), qid);
  StatusOr<QueryHandle> handle = engine->Submit(std::move(spec));
  tracer->End(submit);
  if (!handle.ok()) {
    out.status = handle.status();
    return out;
  }
  {
    ScopedSpan span(tracer, "runtime.wait", op.id(), qid);
    const QueryResult& result = handle->Wait();
    out.status = result.status;
    out.stats = result.stats;
  }
  out.seconds = Since(t0);
  return out;
}

/// Additive counters of one pass.
struct PassTotals {
  uint64_t work_units = 0;
  uint64_t rows_out = 0;
  uint64_t driving_rows = 0;
  uint64_t inner_checks = 0;
  uint64_t inner_reorders = 0;
  uint64_t driving_checks = 0;
  uint64_t driving_switches = 0;
  uint64_t policy_decisions = 0;
  uint64_t probe_cache_hits = 0;
  uint64_t probe_cache_misses = 0;
  uint64_t probe_batches = 0;
  uint64_t probe_descents_saved = 0;
  uint64_t parallel_workers = 0;
  uint64_t morsels = 0;
  uint64_t monitor_folds = 0;

  void Add(const ExecStats& s) {
    work_units += s.work_units;
    rows_out += s.rows_out;
    driving_rows += s.driving_rows_produced;
    inner_checks += s.inner_checks;
    inner_reorders += s.inner_reorders;
    driving_checks += s.driving_checks;
    driving_switches += s.driving_switches;
    policy_decisions += s.policy_decisions;
    probe_cache_hits += s.probe_cache_hits;
    probe_cache_misses += s.probe_cache_misses;
    probe_batches += s.probe_batches;
    probe_descents_saved += s.probe_descents_saved;
    parallel_workers += s.parallel_workers;
    morsels += s.morsels;
    monitor_folds += s.monitor_folds;
  }
  uint64_t order_changes() const { return inner_reorders + driving_switches; }
};

// ---- Statistics helpers ----------------------------------------------------

/// Linear-interpolated percentile (q in [0, 1]) of `v`.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

double Ratio(double a, double b) { return b == 0 ? 0 : a / b; }

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string FormatNumber(double v) {
  char buf[64];
  auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

// ---- Layer replays (traced run only) ---------------------------------------

/// Written by the fetch replay so the compiler keeps its reads.
volatile uint64_t g_fetch_sink = 0;

struct ReplayResult {
  double probe_ns = 0;
  double fetch_ns = 0;
  double eval_ns_per_row = 0;
  double local_pass_rate = 0;
};

/// Replays the storage and expr layers in isolation over the workload's own
/// inputs: index point probes with join keys read from the tables on the
/// other side of each indexed join edge, heap row views of the matched
/// rows, and the queries' bound local predicates over their tables.
StatusOr<ReplayResult> ReplayLayers(const Catalog& catalog,
                                    const std::vector<JoinQuery>& queries, uint64_t seed,
                                    Tracer* tracer) {
  constexpr size_t kKeysPerEdge = 32;
  constexpr size_t kRowsPerPredicate = 4096;
  constexpr int kReps = 3;
  ReplayResult out;
  std::mt19937_64 rng(seed ^ 0x5eed5eedULL);

  struct Probe {
    const Index* index;
    IndexKey key;
    const HeapTable* table;  ///< the indexed table (for fetches)
  };
  std::vector<Probe> probes;
  struct Pred {
    BoundPredicatePtr bound;
    const HeapTable* table;
  };
  std::vector<Pred> preds;
  for (const JoinQuery& q : queries) {
    for (const JoinEdge& e : q.edges) {
      for (size_t side : {e.left, e.right}) {
        auto indexed = catalog.GetTable(q.tables[side].table);
        if (!indexed.ok()) return indexed.status();
        const IndexInfo* info = (*indexed)->FindIndexOnColumn(e.ColumnOn(side));
        if (info == nullptr) continue;
        size_t other = e.Other(side);
        auto src = catalog.GetTable(q.tables[other].table);
        if (!src.ok()) return src.status();
        auto slot = (*src)->schema().ColumnIndex(e.ColumnOn(other));
        if (!slot.ok()) return slot.status();
        const HeapTable& heap = (*src)->table();
        for (size_t k = 0; k < kKeysPerEdge && heap.num_rows() > 0; ++k) {
          Rid rid = rng() % heap.num_rows();
          probes.push_back({info->ProbeIndex(IndexBackend::kBTree),
                            EncodeKeyFromCell(heap.View(rid), *slot), &(*indexed)->table()});
        }
      }
    }
    for (size_t t = 0; t < q.tables.size(); ++t) {
      if (q.local_predicates[t] == nullptr) continue;
      auto entry = catalog.GetTable(q.tables[t].table);
      if (!entry.ok()) return entry.status();
      auto bound = BindPredicate(q.local_predicates[t], (*entry)->schema(),
                                 &(*entry)->table().pool());
      if (!bound.ok()) return bound.status();
      preds.push_back({std::move(*bound), &(*entry)->table()});
    }
  }

  std::vector<std::pair<const HeapTable*, Rid>> fetches;
  std::vector<Rid> matches;
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < kReps; ++rep) {
    ScopedSpan span(tracer, "storage.probe_replay");
    WorkCounter wc;
    uint64_t found = 0;
    Clock::time_point t0 = Clock::now();
    for (const Probe& p : probes) {
      matches.clear();
      p.index->Probe(p.key, &wc, &matches);
      found += matches.size();
      if (rep == 0) {
        for (Rid rid : matches) fetches.emplace_back(p.table, rid);
      }
    }
    best = std::min(best, Since(t0));
    if (found == 0 && !probes.empty()) return Status::Internal("probe replay found nothing");
  }
  out.probe_ns = probes.empty() ? 0 : best * 1e9 / static_cast<double>(probes.size());

  best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < kReps; ++rep) {
    ScopedSpan span(tracer, "storage.fetch_replay");
    uint64_t sum = 0;
    Clock::time_point t0 = Clock::now();
    for (const auto& [table, rid] : fetches) {
      RowView row = table->View(rid);
      for (size_t s = 0; s < row.num_slots(); ++s) sum += row.raw(s);
    }
    best = std::min(best, Since(t0));
    g_fetch_sink = sum;
  }
  out.fetch_ns = fetches.empty() ? 0 : best * 1e9 / static_cast<double>(fetches.size());

  best = std::numeric_limits<double>::infinity();
  uint64_t evals = 0, passed = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    ScopedSpan span(tracer, "expr.eval_replay");
    evals = passed = 0;
    Clock::time_point t0 = Clock::now();
    for (const Pred& p : preds) {
      size_t n = p.table->num_rows();
      size_t stride = std::max<size_t>(1, n / kRowsPerPredicate);
      for (Rid rid = 0; rid < n; rid += stride) {
        passed += p.bound->Eval(p.table->View(rid)) ? 1 : 0;
        ++evals;
      }
    }
    best = std::min(best, Since(t0));
  }
  out.eval_ns_per_row = evals == 0 ? 0 : best * 1e9 / static_cast<double>(evals);
  out.local_pass_rate = Ratio(static_cast<double>(passed), static_cast<double>(evals));
  return out;
}

// ---- The run ---------------------------------------------------------------

int Run(const Args& args) {
  const Workload* wl = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) wl = &w;
  }
  AdaptiveOptions options;
  if (wl == nullptr || !VariantOptions(args.variant, &options)) {
    std::fprintf(stderr, "unknown workload or variant\n");
    return 2;
  }
  const bool engine_mode = wl->dop > 0;
  Tracer tracer(args.trace == 1);

  // -- Set-up: data, statistics, indexes, queries (and the engine below).
  Catalog catalog;
  Clock::time_point t = Clock::now();
  {
    ScopedSpan span(&tracer, "workload.generate_dmv");
    auto cards = GenerateDmv(&catalog, DmvConfig{});
    if (!cards.ok()) {
      std::fprintf(stderr, "GenerateDmv: %s\n", cards.status().ToString().c_str());
      return 1;
    }
  }
  const double dmv_generate_s = Since(t);
  t = Clock::now();
  std::vector<JoinQuery> queries;
  {
    ScopedSpan span(&tracer, "workload.generate_queries");
    auto made = MakeQueries(catalog, wl->wide, args.seed);
    if (!made.ok()) {
      std::fprintf(stderr, "query generation: %s\n", made.status().ToString().c_str());
      return 1;
    }
    queries = std::move(*made);
  }
  const double query_generate_s = Since(t);
  PlannerOptions planner_options;
  planner_options.stats_tier = StatsTier::kMinimal;  // the paper's Sec 5 optimizer
  Planner planner(&catalog, planner_options);
  double setup_s = Since(kProcessStart);

  // -- Reference results, computed apart from the program (not set-up).
  t = Clock::now();
  std::vector<ResultDigest> reference;
  {
    ScopedSpan span(&tracer, "check.reference");
    auto ref = ReferenceDigests(catalog, queries);
    if (!ref.ok()) {
      std::fprintf(stderr, "%s\n", ref.status().ToString().c_str());
      return 1;
    }
    reference = std::move(*ref);
  }
  const double reference_s = Since(t);

  MetricsRegistry registry;
  std::unique_ptr<QueryEngine> engine;
  if (engine_mode) {
    t = Clock::now();
    ScopedSpan span(&tracer, "runtime.engine_start");
    QueryEngineOptions eo;
    eo.num_workers = kEngineWorkers;
    eo.planner = planner_options;
    eo.metrics = &registry;
    engine = std::make_unique<QueryEngine>(&catalog, eo);
    setup_s += Since(t);
  }

  const size_t nq = queries.size();
  auto run_one = [&](size_t q, const AdaptiveOptions& o, ExecObserver* obs, int32_t parent) {
    const uint32_t qid = static_cast<uint32_t>(q);
    return engine_mode ? RunEngine(engine.get(), queries[q], o, wl->dop, &tracer, parent, qid)
                       : RunSerial(planner, queries[q], o, obs, &tracer, parent, qid);
  };
  bool correct = true;
  int reported = 0;
  auto matches_reference = [&](size_t q, const Outcome& o, const char* what) {
    if (o.status.ok() && o.digest == reference[q]) return true;
    if (reported++ < 10) {
      std::fprintf(stderr, "%s %s: status=%s rows=%llu checksum=%016llx, expected rows=%llu checksum=%016llx\n",
                   what, queries[q].name.c_str(), o.status.ToString().c_str(),
                   static_cast<unsigned long long>(o.digest.rows),
                   static_cast<unsigned long long>(o.digest.checksum),
                   static_cast<unsigned long long>(reference[q].rows),
                   static_cast<unsigned long long>(reference[q].checksum));
    }
    return false;
  };

  // -- Timed passes: whole passes over all queries until --seconds is spent.
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> best(nq, inf), best_plan(nq, inf), best_exec(nq, inf);
  std::vector<uint64_t> first_work(nq, 0);
  std::vector<double> pass_work;
  PassTotals first;
  ProbeObserver probe_observer;
  uint64_t observed_probes = 0, observed_fetched = 0;
  uint64_t attempted = 0, failed = 0;
  size_t passes = 0;
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(args.seconds);
  while (passes < kMinPasses || Clock::now() < deadline) {
    ScopedSpan pass(&tracer, "pass");
    PassTotals totals;
    probe_observer.probes = probe_observer.rows_fetched = 0;
    ExecObserver* obs = tracer.enabled() && !engine_mode ? &probe_observer : nullptr;
    for (size_t q = 0; q < nq; ++q) {
      Outcome o = run_one(q, options, obs, pass.id());
      ++attempted;
      if (!matches_reference(q, o, "FAILED")) {
        ++failed;
        continue;
      }
      best[q] = std::min(best[q], o.seconds);
      best_plan[q] = std::min(best_plan[q], o.plan_seconds);
      best_exec[q] = std::min(best_exec[q], o.stats.wall_seconds);
      if (!engine_mode) {
        if (passes > 0 && o.stats.work_units != first_work[q]) {
          std::fprintf(stderr, "work units of %s changed between passes: %llu vs %llu\n",
                       queries[q].name.c_str(),
                       static_cast<unsigned long long>(o.stats.work_units),
                       static_cast<unsigned long long>(first_work[q]));
          correct = false;
        }
        first_work[q] = o.stats.work_units;
      }
      totals.Add(o.stats);
    }
    pass_work.push_back(static_cast<double>(totals.work_units));
    if (passes == 0) {
      first = totals;
      observed_probes = probe_observer.probes;
      observed_fetched = probe_observer.rows_fetched;
    }
    ++passes;
  }
  const double peak_rss_mb = PeakRssMb();
  const double queue_wait_us_p50 =
      engine_mode ? registry.GetHistogram("engine.queue_wait_us")->Quantile(0.5) : 0;
  std::vector<double> finite;
  for (double b : best) {
    if (b != inf) finite.push_back(b);
  }
  const double mix_s = Sum(finite);

  // -- Method properties: adaptive vs NoSwitch give the same multiset (both
  // against the reference); dop=2 vs dop=1 likewise on the engine workload.
  // The traced run interleaves kStaticRounds adaptive/static rounds and keeps
  // the best of each for adaptive.time_vs_static.
  const size_t rounds = tracer.enabled() ? kStaticRounds : 1;
  std::vector<double> cmp_adaptive(nq, inf), cmp_static(nq, inf);
  double static_work = 0;
  for (size_t r = 0; r < rounds; ++r) {
    ScopedSpan round(&tracer, "compare.static_round");
    for (size_t q = 0; q < nq; ++q) {
      if (tracer.enabled()) {
        Outcome a = run_one(q, options, nullptr, round.id());
        if (!matches_reference(q, a, "ADAPTIVE MISMATCH")) correct = false;
        cmp_adaptive[q] = std::min(cmp_adaptive[q], a.seconds);
      }
      Outcome s = run_one(q, NoSwitch(), nullptr, round.id());
      if (!matches_reference(q, s, "STATIC MISMATCH")) correct = false;
      cmp_static[q] = std::min(cmp_static[q], s.seconds);
      if (r == 0) static_work += static_cast<double>(s.stats.work_units);
    }
  }
  PassTotals serial;
  std::vector<double> serial_plan(nq, 0);
  if (engine_mode) {
    ScopedSpan round(&tracer, "compare.dop1_pass");
    ProbeObserver* obs = tracer.enabled() ? &probe_observer : nullptr;
    probe_observer.probes = probe_observer.rows_fetched = 0;
    for (size_t q = 0; q < nq; ++q) {
      Outcome o = RunSerial(planner, queries[q], options, obs, &tracer, round.id(),
                            static_cast<uint32_t>(q));
      if (!matches_reference(q, o, "DOP1 MISMATCH")) correct = false;
      serial.Add(o.stats);
      serial_plan[q] = o.plan_seconds;
    }
    observed_probes = probe_observer.probes;
    observed_fetched = probe_observer.rows_fetched;
  }

  std::vector<Metric> metrics;
  if (!tracer.enabled()) {
    metrics = {
        {"setup_s", setup_s, "s"},
        {"mix_s", mix_s, "s"},
        {"query_ms_p50", Percentile(finite, 0.50) * 1e3, "ms"},
        {"query_ms_p95", Percentile(finite, 0.95) * 1e3, "ms"},
        {"work_units", Percentile(pass_work, 0.5), "count"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
  } else {
    auto replay = ReplayLayers(catalog, queries, args.seed, &tracer);
    if (!replay.ok()) {
      std::fprintf(stderr, "layer replay: %s\n", replay.status().ToString().c_str());
      return 1;
    }
    std::vector<double> plan_us;
    for (size_t q = 0; q < nq; ++q) {
      double p = engine_mode ? serial_plan[q] : best_plan[q];
      if (p != inf) plan_us.push_back(p * 1e6);
    }
    double exec_ms = 0;
    for (double e : best_exec) exec_ms += e == inf ? 0 : e * 1e3;
    const double checks = static_cast<double>(first.inner_checks + first.driving_checks);
    const double probe_lookups =
        static_cast<double>(first.probe_cache_hits + first.probe_cache_misses);
    metrics = {
        {"workload.dmv_generate_s", dmv_generate_s, "s"},
        {"workload.query_generate_ms", query_generate_s * 1e3, "ms"},
        {"optimize.plan_us_p50", Percentile(plan_us, 0.5), "us"},
        {"storage.probe_ns", replay->probe_ns, "ns"},
        {"storage.fetch_ns", replay->fetch_ns, "ns"},
        {"storage.probes", static_cast<double>(observed_probes), "count"},
        {"storage.rows_fetched", static_cast<double>(observed_fetched), "count"},
        {"expr.eval_ns_per_row", replay->eval_ns_per_row, "ns"},
        {"expr.local_pass_rate", replay->local_pass_rate, "ratio"},
        {"exec.execute_ms", exec_ms, "ms"},
        {"exec.driving_rows", static_cast<double>(first.driving_rows), "count"},
        {"exec.rows_out", static_cast<double>(first.rows_out), "count"},
        {"exec.probe_batches", static_cast<double>(first.probe_batches), "count"},
        {"exec.probe_descents_saved", static_cast<double>(first.probe_descents_saved), "count"},
        {"exec.probe_cache_hit_rate", Ratio(static_cast<double>(first.probe_cache_hits), probe_lookups), "ratio"},
        {"adaptive.inner_checks", static_cast<double>(first.inner_checks), "count"},
        {"adaptive.driving_checks", static_cast<double>(first.driving_checks), "count"},
        {"adaptive.inner_reorders", static_cast<double>(first.inner_reorders), "count"},
        {"adaptive.driving_switches", static_cast<double>(first.driving_switches), "count"},
        {"adaptive.policy_decisions", static_cast<double>(first.policy_decisions), "count"},
        {"adaptive.reorders_per_check", Ratio(static_cast<double>(first.order_changes()), checks), "ratio"},
        {"adaptive.work_vs_static", Ratio(static_cast<double>(first.work_units), static_work), "ratio"},
        {"adaptive.time_vs_static", Ratio(Sum(cmp_adaptive), Sum(cmp_static)), "ratio"},
        {"runtime.submit_to_done_us_p50", engine_mode ? Percentile(finite, 0.5) * 1e6 : 0, "us"},
        {"runtime.queue_wait_us_p50", queue_wait_us_p50, "us"},
        {"runtime.morsels", static_cast<double>(first.morsels), "count"},
        {"runtime.monitor_folds", static_cast<double>(first.monitor_folds), "count"},
        {"runtime.parallel_workers", Ratio(static_cast<double>(first.parallel_workers), static_cast<double>(nq)), "count"},
        {"runtime.work_vs_serial", engine_mode ? Ratio(Percentile(pass_work, 0.5), static_cast<double>(serial.work_units)) : 1.0, "ratio"},
        {"runtime.switches_vs_serial", engine_mode ? Ratio(static_cast<double>(first.order_changes()), static_cast<double>(serial.order_changes())) : 1.0, "ratio"},
        {"trace.mix_s", mix_s, "s"},
        {"trace.spans", static_cast<double>(tracer.size()), "count"},
    };
  }

  std::printf("workload %s seed %llu variant %s: %zu queries, %zu passes, reference %.2f s\n",
              wl->name, static_cast<unsigned long long>(args.seed), args.variant.c_str(), nq,
              passes, reference_s);
  for (const Metric& m : metrics) {
    std::printf("  %-32s %16.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + FormatNumber(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";

  std::string stem = args.out_dir + "/" + wl->name + "-seed" + std::to_string(args.seed);
  if (tracer.enabled()) {
    Status s = tracer.Write(stem + "-spans.jsonl");
    if (!s.ok()) std::fprintf(stderr, "%s\n", s.ToString().c_str());
  }
  const std::string result_path = stem + "-trace" + std::to_string(args.trace) + ".json";
  FILE* f = std::fopen(result_path.c_str(), "w");
  if (f == nullptr || std::fprintf(f, "%s\n", json.c_str()) < 0 || std::fclose(f) != 0) {
    std::fprintf(stderr, "cannot write %s\n", result_path.c_str());
  }
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace ajr::perfbench

int main(int argc, char** argv) {
  ajr::perfbench::Args args;
  if (!ajr::perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <paper_mix|wide_mix|engine_dop2> --seed <n> "
                 "--seconds <1..600> --trace <0|1> [--out <dir>] "
                 "[--variant <default|no-driving|no-inner|static|per-row-probes>]\n",
                 argv[0]);
    return 2;
  }
  return ajr::perfbench::Run(args);
}
