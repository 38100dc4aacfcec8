// F16 — sharded metadata database: scatter/gather aggregation and
// partition pruning over hash-partitioned tables. One catalog table is
// hash-partitioned on its primary key across 4 sim-linked shards behind
// the ShardCoordinator; the same rows live in a single-node database as
// the baseline. Measured:
//
//  * a grouped COUNT/SUM/MIN/MAX aggregate executed scattered (per-shard
//    partial aggregation, merged at the coordinator) versus the
//    enable_scatter=false ablation, where every matching row ships to the
//    coordinator and one executor aggregates — the architecture's claim
//    is that partial aggregation close to the data beats moving the rows.
//    The same-data single-node time is reported alongside as the
//    no-distribution reference;
//  * point lookups on the partition key with pruning on (one shard
//    scanned per query) versus the enable_pruning=false ablation (every
//    shard scanned, the scatter tax without the planner);
//  * writes, recorded but not gated: the seed ingest in multi-row INSERT
//    batches and single-row INSERTs, 4 shards against the single node.
//
// Emits a JSON block (schema versioned, tagged with the build revision,
// build type and core count);
// `--smoke` runs as a ctest gate and exits non-zero when the scattered
// aggregate is not at least 2x the row-shipping gather ablation, when
// pruning scans anything but exactly the matching shard, or when any
// sharded result diverges from the single-node oracle.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "db/database.h"
#include "db/shard/coordinator.h"
#include "sim/network.h"

#ifndef EASIA_BENCH_REV
#define EASIA_BENCH_REV "unknown"
#endif
#ifndef EASIA_BUILD_TYPE
#define EASIA_BUILD_TYPE "unknown"
#endif

namespace {

using namespace easia;

constexpr int kShards = 4;

struct Config {
  int rows = 120000;
  int groups = 50;
  int batch = 500;        // rows per multi-row INSERT during ingest
  int agg_iters = 20;     // aggregate executions per timed trial
  int point_queries = 200;
  int trials = 3;         // best-of
  int single_inserts = 2000;  // single-row INSERTs timed after the seed
};

sim::Network MakeNet() {
  sim::Network net;
  std::vector<std::string> hosts = {"web"};
  for (int i = 0; i < kShards; ++i) hosts.push_back("s" + std::to_string(i));
  for (const std::string& h : hosts) net.AddHost({h, 50.0, 4});
  for (const std::string& a : hosts) {
    for (const std::string& b : hosts) {
      if (a != b) {
        net.AddLink(a, b, sim::BandwidthSchedule::Constant(100.0), 0.001);
      }
    }
  }
  return net;
}

/// `planned` toggles both planner features at once: the ablation
/// coordinator ships every matching row to the coordinator (no partial
/// aggregation) and scans every shard (no pruning) — distribution without
/// the scatter/gather planner.
std::unique_ptr<db::shard::ShardCoordinator> MakeCoordinator(
    sim::Network* net, bool planned) {
  db::shard::ShardOptions options;
  options.coordinator_host = "web";
  for (int i = 0; i < kShards; ++i) {
    options.shard_hosts.push_back("s" + std::to_string(i));
  }
  options.enable_pruning = planned;
  options.enable_scatter = planned;
  return std::make_unique<db::shard::ShardCoordinator>(net, options);
}

/// The seed statements: one partitioned CREATE TABLE plus batched
/// multi-row INSERTs. Identical SQL drives the coordinator and the
/// single-node baseline (the partition clause is routing metadata there).
std::vector<std::string> SeedStatements(const Config& cfg) {
  std::vector<std::string> out;
  out.push_back(StrPrintf(
      "CREATE TABLE DATASET (ID INTEGER NOT NULL, GRP INTEGER,"
      " SCORE INTEGER, TITLE VARCHAR(24), PRIMARY KEY (ID))"
      " PARTITION BY HASH(ID) PARTITIONS %d",
      kShards));
  for (int base = 0; base < cfg.rows; base += cfg.batch) {
    std::string sql = "INSERT INTO DATASET VALUES ";
    int end = std::min(base + cfg.batch, cfg.rows);
    for (int i = base; i < end; ++i) {
      if (i > base) sql += ", ";
      sql += StrPrintf("(%d, %d, %d, 'dataset%d')", i, i % cfg.groups,
                       (i * 37) % 10000, i % 1000);
    }
    out.push_back(std::move(sql));
  }
  return out;
}

std::string Render(const db::QueryResult& result) {
  std::vector<std::string> rows;
  rows.reserve(result.rows.size());
  for (const db::Row& row : result.rows) {
    std::string line;
    for (const db::Value& v : row) {
      line += v.ToDisplayString();
      line += "|";
    }
    rows.push_back(std::move(line));
  }
  std::sort(rows.begin(), rows.end());
  std::string out;
  for (const std::string& r : rows) out += r + "\n";
  return out;
}

/// Wall-clock seconds for `iters` executions of `sql` via `run`.
template <typename RunFn>
double TimeLoop(int iters, const std::string& sql, RunFn&& run, bool* ok) {
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    Result<db::QueryResult> r = run(sql);
    if (!r.ok()) {
      *ok = false;
      return 0;
    }
    benchmark::DoNotOptimize(r->rows.size());
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct Report {
  double single_agg_sec = 0;    // per aggregate execution
  double gather_agg_sec = 0;
  double scatter_agg_sec = 0;
  double agg_speedup = 0;       // gather ablation / scatter
  double pruned_point_sec = 0;  // per point lookup
  double ablation_point_sec = 0;
  uint64_t pruned_scanned = 0;  // shard scans across the point sweep
  uint64_t pruned_avoided = 0;
  uint64_t ablation_scanned = 0;
  int violations = 0;
};

int RunReproduction(const Config& cfg, bool smoke) {
  sim::Network net = MakeNet();
  sim::Network ablation_net = MakeNet();
  std::unique_ptr<db::shard::ShardCoordinator> coord =
      MakeCoordinator(&net, /*planned=*/true);
  std::unique_ptr<db::shard::ShardCoordinator> ablation =
      MakeCoordinator(&ablation_net, /*planned=*/false);
  db::Database single("SINGLE");

  // The seed doubles as the batched-ingest measurement (CREATE TABLE
  // included); the ablation coordinator is seeded untimed.
  double sharded_ingest_sec = 0;
  double single_ingest_sec = 0;
  for (const std::string& sql : SeedStatements(cfg)) {
    auto t0 = std::chrono::steady_clock::now();
    bool ok = coord->Execute(sql).ok();
    sharded_ingest_sec += SecondsSince(t0);
    t0 = std::chrono::steady_clock::now();
    ok = single.Execute(sql).ok() && ok;
    single_ingest_sec += SecondsSince(t0);
    if (!ok || !ablation->Execute(sql).ok()) {
      std::fprintf(stderr, "f16: seeding failed\n");
      return 1;
    }
  }

  Report best;
  const std::string agg_sql =
      "SELECT GRP, COUNT(*), SUM(SCORE), MIN(SCORE), MAX(SCORE)"
      " FROM DATASET GROUP BY GRP";

  // Result parity first: the scattered aggregate and a sample of pruned
  // point lookups must match the single-node oracle exactly.
  {
    Result<db::QueryResult> a = coord->Execute(agg_sql);
    Result<db::QueryResult> g = ablation->Execute(agg_sql);
    Result<db::QueryResult> b = single.Execute(agg_sql);
    if (!a.ok() || !g.ok() || !b.ok() || Render(*a) != Render(*b) ||
        Render(*g) != Render(*b)) {
      std::fprintf(stderr, "f16: scattered aggregate diverged\n");
      return 1;
    }
  }
  for (int q = 0; q < 16; ++q) {
    std::string sql = StrPrintf("SELECT TITLE, SCORE FROM DATASET"
                                " WHERE ID = %d",
                                (q * 7919) % cfg.rows);
    Result<db::QueryResult> a = coord->Execute(sql);
    Result<db::QueryResult> c = ablation->Execute(sql);
    Result<db::QueryResult> b = single.Execute(sql);
    if (!a.ok() || !b.ok() || !c.ok() || Render(*a) != Render(*b) ||
        Render(*c) != Render(*b)) {
      std::fprintf(stderr, "f16: point lookup diverged\n");
      return 1;
    }
  }

  for (int trial = 0; trial < cfg.trials; ++trial) {
    Report r;
    bool ok = true;
    double single_total = TimeLoop(
        cfg.agg_iters, agg_sql,
        [&](const std::string& sql) { return single.Execute(sql); }, &ok);
    double gather_total = TimeLoop(
        cfg.agg_iters, agg_sql,
        [&](const std::string& sql) { return ablation->Execute(sql); }, &ok);
    double scatter_total = TimeLoop(
        cfg.agg_iters, agg_sql,
        [&](const std::string& sql) { return coord->Execute(sql); }, &ok);
    if (!ok || scatter_total <= 0) {
      std::fprintf(stderr, "f16: aggregate trial failed\n");
      return 1;
    }
    r.single_agg_sec = single_total / cfg.agg_iters;
    r.gather_agg_sec = gather_total / cfg.agg_iters;
    r.scatter_agg_sec = scatter_total / cfg.agg_iters;
    r.agg_speedup = gather_total / scatter_total;

    db::shard::ShardCounters before = coord->counters();
    db::shard::ShardCounters ablation_before = ablation->counters();
    double pruned_total = 0;
    double ablation_total = 0;
    for (int q = 0; q < cfg.point_queries; ++q) {
      std::string sql = StrPrintf("SELECT TITLE, SCORE FROM DATASET"
                                  " WHERE ID = %d",
                                  (q * 131) % cfg.rows);
      bool q_ok = true;
      pruned_total += TimeLoop(
          1, sql, [&](const std::string& s) { return coord->Execute(s); },
          &q_ok);
      ablation_total += TimeLoop(
          1, sql, [&](const std::string& s) { return ablation->Execute(s); },
          &q_ok);
      if (!q_ok) {
        std::fprintf(stderr, "f16: point trial failed\n");
        return 1;
      }
    }
    db::shard::ShardCounters after = coord->counters();
    db::shard::ShardCounters ablation_after = ablation->counters();
    r.pruned_point_sec = pruned_total / cfg.point_queries;
    r.ablation_point_sec = ablation_total / cfg.point_queries;
    r.pruned_scanned = after.scanned_shards - before.scanned_shards;
    r.pruned_avoided = after.pruned_shards - before.pruned_shards;
    r.ablation_scanned =
        ablation_after.scanned_shards - ablation_before.scanned_shards;

    // Pruning is a correctness property, not a timing: a point lookup on
    // the partition key touches exactly one shard, every time.
    if (r.pruned_scanned != static_cast<uint64_t>(cfg.point_queries) ||
        r.pruned_avoided !=
            static_cast<uint64_t>(cfg.point_queries) * (kShards - 1) ||
        r.ablation_scanned !=
            static_cast<uint64_t>(cfg.point_queries) * kShards) {
      std::fprintf(stderr,
                   "f16: pruning scanned %llu shards (want %d), ablation "
                   "%llu (want %d)\n",
                   static_cast<unsigned long long>(r.pruned_scanned),
                   cfg.point_queries,
                   static_cast<unsigned long long>(r.ablation_scanned),
                   cfg.point_queries * kShards);
      return 1;
    }
    if (trial == 0 || r.agg_speedup > best.agg_speedup) best = r;
  }

  // Single-row INSERTs past the seeded keys, after the timed trials so the
  // reads above see exactly the seeded table.
  double sharded_insert_sec = 0;
  double single_insert_sec = 0;
  for (int i = cfg.rows; i < cfg.rows + cfg.single_inserts; ++i) {
    std::string sql = StrPrintf("INSERT INTO DATASET VALUES (%d, %d, %d,"
                                " 'dataset%d')",
                                i, i % cfg.groups, (i * 37) % 10000, i % 1000);
    auto t0 = std::chrono::steady_clock::now();
    bool ok = coord->Execute(sql).ok();
    sharded_insert_sec += SecondsSince(t0);
    t0 = std::chrono::steady_clock::now();
    ok = single.Execute(sql).ok() && ok;
    single_insert_sec += SecondsSince(t0);
    if (!ok) {
      std::fprintf(stderr, "f16: single-row insert failed\n");
      return 1;
    }
  }

  std::printf("\n=== F16: hash-partitioned shards, scatter/gather ===\n");
  std::printf("{\"bench\":\"f16_sharding\",\"schema\":2,\"rev\":\"%s\","
              "\"build_type\":\"%s\",\"nproc\":%u,\n",
              EASIA_BENCH_REV, EASIA_BUILD_TYPE,
              std::thread::hardware_concurrency());
  std::printf(" \"shards\":%d,\"rows\":%d,\"groups\":%d,\"agg_iters\":%d,"
              "\"point_queries\":%d,\"trials\":%d,\n",
              kShards, cfg.rows, cfg.groups, cfg.agg_iters,
              cfg.point_queries, cfg.trials);
  std::printf(" \"gather_agg_ms\":%.3f,\"scatter_agg_ms\":%.3f,"
              "\"agg_speedup\":%.2f,\"local_single_node_ms\":%.3f,\n",
              best.gather_agg_sec * 1e3, best.scatter_agg_sec * 1e3,
              best.agg_speedup, best.single_agg_sec * 1e3);
  std::printf(" \"pruned_point_us\":%.1f,\"ablation_point_us\":%.1f,\n",
              best.pruned_point_sec * 1e6, best.ablation_point_sec * 1e6);
  std::printf(" \"point_shards_scanned\":%llu,\"point_shards_pruned\":%llu,"
              "\"ablation_shards_scanned\":%llu,\n",
              static_cast<unsigned long long>(best.pruned_scanned),
              static_cast<unsigned long long>(best.pruned_avoided),
              static_cast<unsigned long long>(best.ablation_scanned));
  std::printf(" \"writes\":{\"ingest_rows\":%d,\"batch_rows\":%d,"
              "\"ingest_s\":{\"sharded\":%.3f,\"single\":%.3f},"
              "\"single_row_inserts\":%d,"
              "\"insert_us\":{\"sharded\":%.2f,\"single\":%.2f}}}\n",
              cfg.rows, cfg.batch, sharded_ingest_sec, single_ingest_sec,
              cfg.single_inserts, sharded_insert_sec / cfg.single_inserts * 1e6,
              single_insert_sec / cfg.single_inserts * 1e6);

  int violations = 0;
  // The acceptance gate: per-shard partial aggregation must be at least
  // 2x the ablation that ships every row to one executor.
  if (smoke && best.agg_speedup < 2.0) {
    std::fprintf(stderr, "f16: scatter speedup %.2fx below the 2x gate\n",
                 best.agg_speedup);
    ++violations;
  }
  return violations;
}

// ---- Microbenchmarks (skipped under --smoke) ----

void BM_ScatterAggregate(benchmark::State& state) {
  Config cfg;
  cfg.rows = static_cast<int>(state.range(0));
  sim::Network net = MakeNet();
  std::unique_ptr<db::shard::ShardCoordinator> coord =
      MakeCoordinator(&net, true);
  for (const std::string& sql : SeedStatements(cfg)) {
    if (!coord->Execute(sql).ok()) {
      state.SkipWithError("seed failed");
      return;
    }
  }
  const std::string agg_sql =
      "SELECT GRP, COUNT(*), SUM(SCORE) FROM DATASET GROUP BY GRP";
  for (auto _ : state) {
    Result<db::QueryResult> r = coord->Execute(agg_sql);
    if (!r.ok()) {
      state.SkipWithError("aggregate failed");
      return;
    }
    benchmark::DoNotOptimize(r->rows.size());
  }
}
BENCHMARK(BM_ScatterAggregate)
    ->Arg(20000)
    ->Arg(120000)
    ->ArgName("rows")
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  // Strip our flag before benchmark::Initialize; ctest runs
  // `bench_f16_sharding --smoke` on every build.
  for (int i = 1; i < argc;) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
    } else {
      ++i;
    }
  }
  Config cfg;
  if (smoke) {
    cfg.rows = 30000;
    cfg.agg_iters = 6;
    cfg.point_queries = 50;
    cfg.trials = 2;
    cfg.single_inserts = 500;
  }
  int violations = RunReproduction(cfg, smoke);
  if (violations != 0) return 1;
  if (smoke) return 0;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
