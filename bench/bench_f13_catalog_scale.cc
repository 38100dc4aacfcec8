// F13 — catalog-scale storage engine: binary bulk ingest (COPY) versus a
// per-statement INSERT loop, columnar scan/aggregate kernels versus the
// row path, radix prefix-index lookup latency, and primary-key UPDATE /
// DELETE cost next to a point SELECT on the same key, on a synthetic
// object catalogue of 1M rows by default (--large: 10M, --smoke: 20k-row
// gate). Emits a JSON block (schema versioned, tagged with the build
// revision, type and core count) so future PRs can track the trajectory;
// `--smoke` runs as a ctest and exits non-zero when the row and columnar
// engines disagree on results, when a pk UPDATE or DELETE costs more than
// 10 point SELECTs, or when the row twin's selective scan costs more than
// 8 columnar ones.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/io.h"
#include "common/string_util.h"
#include "db/database.h"
#include "db/executor.h"
#include "db/parser.h"
#include "db/store/bulk_loader.h"

#ifndef EASIA_BENCH_REV
#define EASIA_BENCH_REV "unknown"
#endif
#ifndef EASIA_BUILD_TYPE
#define EASIA_BUILD_TYPE "unknown"
#endif

namespace {

using namespace easia;
using namespace easia::db;

/// Rows per bulk-file chunk = rows per COPY transaction = rows per WAL
/// sync on the bulk path.
constexpr size_t kChunkRows = 4096;

/// The --smoke gate: a pk UPDATE or DELETE may cost at most this many
/// point SELECTs on the same key. A full-table target scan costs ~400 at
/// 20k rows; an index-driven one a small constant.
constexpr double kMaxDmlToPointSelect = 10.0;
/// Statements per timed DML batch, and batches per statement kind (the
/// minimum is reported).
constexpr size_t kDmlOps = 200;
constexpr int kDmlTrials = 5;

/// The --smoke gate on the selective scan: the row twin may cost at most
/// this many columnar scans. Both layouts run the filter kernel, so only
/// the per-cell test differs; a row scan that copies every row before
/// filtering reads ~15x at 20k rows. Reported as the minimum of
/// kScanTrials interleaved runs per layout.
constexpr double kMaxRowToColumnarScan = 8.0;
constexpr int kScanTrials = 5;

struct Config {
  size_t rows = 1000000;
  /// The INSERT loop is measured on a subset and reported as rows/sec —
  /// at full scale per-statement ingest takes minutes by design.
  size_t insert_rows = 100000;
  size_t prefix_lookups = 2000;
  int query_iters = 3;
  bool build_row_twin = true;
};

/// OBJ(ID, NAME, MAG): NAME carries a shared "S" prefix plus the zero-padded
/// id, so every 6-digit prefix selects a ~10-row neighbourhood — the
/// typeahead shape the radix index serves.
std::vector<Row> MakeRows(size_t n) {
  std::vector<Row> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    rows.push_back({Value::Integer(static_cast<int64_t>(i)),
                    Value::Varchar(StrPrintf("S%08zu", i)),
                    Value::Double(static_cast<double>(i % 10000) / 10.0)});
  }
  return rows;
}

/// Both engines run with a real WAL at the engine's default durability
/// (sync on commit): a client INSERT loop pays one WAL record and one
/// fdatasync per statement, COPY pays one batch record and one sync per
/// 4096-row chunk — the amortisation that makes bulk ingest the only
/// viable way to load a catalogue-scale archive.
std::unique_ptr<Database> MakeDatabase(const char* name, bool columnar,
                                       bool wal = true) {
  DatabaseOptions opts;
  if (wal) {
    opts.wal_path = std::string("/tmp/easia_bench_f13_") + name + ".wal";
    std::remove(opts.wal_path.c_str());
  }
  auto db = std::make_unique<Database>(name, opts);
  std::string ddl =
      "CREATE TABLE OBJ (ID INTEGER NOT NULL, NAME VARCHAR(32),"
      " MAG DOUBLE, PRIMARY KEY (ID))";
  if (columnar) ddl += " STORE COLUMNAR";
  (void)db->Execute(ddl);
  return db;
}

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// COPY the rows into `db` from a freshly written bulk file; returns
/// ingest seconds (excluding the file write) or -1 on error.
double TimeBulkIngest(Database& db, const std::vector<Row>& rows) {
  const std::string path = "/tmp/easia_bench_f13.ebk";
  const TableDef* def = nullptr;
  if (Result<const TableDef*> d = db.catalog().GetTable("OBJ"); d.ok()) {
    def = *d;
  } else {
    return -1;
  }
  if (!store::WriteBulkFile(io::RealEnv(), path, *def, rows, kChunkRows)
           .ok()) {
    return -1;
  }
  auto t0 = std::chrono::steady_clock::now();
  Result<QueryResult> r = db.Execute("COPY OBJ FROM '" + path + "'");
  double secs = SecondsSince(t0);
  std::remove(path.c_str());
  return r.ok() ? secs : -1;
}

/// Per-statement INSERT loop over the first `n` rows — the shape any
/// client script produces: one parse, one apply and one WAL record per
/// row (implicit transaction per statement).
double TimeInsertLoop(Database& db, const std::vector<Row>& rows, size_t n) {
  auto t0 = std::chrono::steady_clock::now();
  for (size_t i = 0; i < n && i < rows.size(); ++i) {
    std::string sql = StrPrintf(
        "INSERT INTO OBJ VALUES (%lld, '%s', %g)",
        static_cast<long long>(rows[i][0].AsInt()),
        rows[i][1].AsString().c_str(), rows[i][2].AsDouble());
    if (!db.Execute(sql).ok()) return -1;
  }
  return SecondsSince(t0);
}

/// Best-of-`iters` wall time for `sql` through the planner; -1 on error.
double TimeSelectMs(Database& db, const std::string& sql, int iters) {
  Result<Statement> stmt = ParseSql(sql);
  if (!stmt.ok() || stmt->kind != Statement::Kind::kSelect) return -1;
  TableLookup lookup = [&db](const std::string& name) {
    return db.GetTable(name);
  };
  double best = -1;
  for (int i = 0; i < iters; ++i) {
    auto t0 = std::chrono::steady_clock::now();
    Result<QueryResult> r =
        ExecuteSelect(*stmt->select, lookup, nullptr, {true});
    if (!r.ok()) return -1;
    benchmark::DoNotOptimize(r->rows.size());
    double ms = SecondsSince(t0) * 1000.0;
    if (best < 0 || ms < best) best = ms;
  }
  return best;
}

/// Min-of-kScanTrials wall time for `sql` on `col_db` and `row_db` (null:
/// -1), the trials interleaved so a slow phase of the host hits both
/// alike. -1 on error.
std::pair<double, double> TimeScanPairMs(Database& col_db, Database* row_db,
                                         const std::string& sql) {
  double col_ms = -1;
  double row_ms = -1;
  auto best = [](double* slot, double ms) {
    if (ms < 0 || *slot < 0 || ms < *slot) *slot = ms;
  };
  for (int t = 0; t < kScanTrials; ++t) {
    best(&col_ms, TimeSelectMs(col_db, sql, 1));
    if (row_db != nullptr) best(&row_ms, TimeSelectMs(*row_db, sql, 1));
  }
  return {col_ms, row_ms};
}

struct PrefixLatency {
  double p50_us = -1;
  double p99_us = -1;
  size_t total_hits = 0;
};

/// Radix prefix lookups for rotating 6-digit prefixes (each ~10 matches).
PrefixLatency TimePrefixLookups(Database& db, size_t lookups, size_t rows) {
  PrefixLatency out;
  Result<const Table*> table = db.GetTable("OBJ");
  if (!table.ok() || !(*table)->HasRadixIndex("NAME")) return out;
  std::vector<double> micros;
  micros.reserve(lookups);
  for (size_t i = 0; i < lookups; ++i) {
    std::string prefix = StrPrintf("S%06zu", (i * 7919) % (rows / 10 + 1));
    auto t0 = std::chrono::steady_clock::now();
    std::vector<RowId> ids = (*table)->RadixPrefixRowIds("NAME", prefix);
    benchmark::DoNotOptimize(ids.size());
    micros.push_back(SecondsSince(t0) * 1e6);
    out.total_hits += ids.size();
  }
  std::sort(micros.begin(), micros.end());
  out.p50_us = micros[micros.size() / 2];
  out.p99_us = micros[micros.size() * 99 / 100];
  return out;
}

/// Per-statement cost of pk UPDATE and pk DELETE next to a point SELECT
/// on the same key, through Database::Execute (parse included).
struct DmlCost {
  double select_us = -1;
  double update_us = -1;
  double delete_us = -1;
  double UpdateRatio() const { return update_us / select_us; }
  double DeleteRatio() const { return delete_us / select_us; }
};

/// Times `ops` statements built by `sql(i)` for i in [first, first+ops);
/// mean microseconds per statement, or -1 when one fails.
template <typename MakeSql>
double TimeStatementsUs(Database& db, size_t first, size_t ops,
                        const MakeSql& sql) {
  std::vector<std::string> batch;
  for (size_t i = first; i < first + ops; ++i) batch.push_back(sql(i));
  auto t0 = std::chrono::steady_clock::now();
  for (const std::string& s : batch) {
    Result<QueryResult> r = db.Execute(s);
    if (!r.ok() || r->rows_affected + r->rows.size() != 1) return -1;
  }
  return SecondsSince(t0) * 1e6 / static_cast<double>(ops);
}

/// Min-of-trials per statement kind, the trials interleaved so a slow
/// phase of the host hits all three alike. Runs on a WAL-less database:
/// a per-commit fsync would dwarf both sides of the ratio. Every DELETE
/// removes a distinct row (keys are a stride-7919 walk over the table).
DmlCost TimeDml(Database& db, size_t rows) {
  DmlCost out;
  auto key = [rows](size_t i) { return (i * 7919) % rows; };
  auto best = [](double* slot, double us) {
    if (us < 0 || *slot < 0 || us < *slot) *slot = us;
  };
  for (int t = 0; t < kDmlTrials; ++t) {
    size_t first = static_cast<size_t>(t) * kDmlOps;
    best(&out.select_us, TimeStatementsUs(db, first, kDmlOps, [&](size_t i) {
           return StrPrintf("SELECT * FROM OBJ WHERE ID = %zu", key(i));
         }));
    best(&out.update_us, TimeStatementsUs(db, first, kDmlOps, [&](size_t i) {
           return StrPrintf("UPDATE OBJ SET MAG = %zu.5 WHERE ID = %zu",
                            i % 1000, key(i));
         }));
    best(&out.delete_us, TimeStatementsUs(db, first, kDmlOps, [&](size_t i) {
           return StrPrintf("DELETE FROM OBJ WHERE ID = %zu", key(i));
         }));
    // A failed statement poisons the kind for good (-1 stays -1).
    if (out.select_us < 0 || out.update_us < 0 || out.delete_us < 0) break;
  }
  return out;
}

/// The parity gate behind --smoke: both engines must agree on a scan, an
/// aggregate and a prefix LIKE. Returns the number of disagreements.
int CheckParity(Database& row_db, Database& col_db) {
  int violations = 0;
  const char* queries[] = {
      "SELECT COUNT(*), SUM(MAG), MIN(NAME), MAX(NAME) FROM OBJ",
      "SELECT COUNT(*) FROM OBJ WHERE MAG > 500.0",
      "SELECT COUNT(*) FROM OBJ WHERE NAME LIKE 'S0000001%'",
  };
  for (const char* sql : queries) {
    Result<QueryResult> a = row_db.Execute(sql);
    Result<QueryResult> b = col_db.Execute(sql);
    if (!a.ok() || !b.ok()) {
      ++violations;
      std::fprintf(stderr, "parity: %s failed to run\n", sql);
      continue;
    }
    bool same = a->rows.size() == b->rows.size();
    for (size_t r = 0; same && r < a->rows.size(); ++r) {
      for (size_t c = 0; same && c < a->rows[r].size(); ++c) {
        same = a->rows[r][c].ToDisplayString() ==
               b->rows[r][c].ToDisplayString();
      }
    }
    if (!same) {
      ++violations;
      std::fprintf(stderr, "parity: %s disagrees between engines\n", sql);
    }
  }
  return violations;
}

int RunReproduction(const Config& cfg) {
  std::vector<Row> rows = MakeRows(cfg.rows);

  // DML leg first, on WAL-less twins of each layout that are dropped
  // before the other legs build their databases (no row-store twin when
  // the row twin is skipped for memory).
  std::vector<bool> layouts = {true};
  if (cfg.build_row_twin) layouts.insert(layouts.begin(), false);
  DmlCost dml[2];
  for (bool columnar : layouts) {
    auto db = MakeDatabase(columnar ? "F13DC" : "F13DR", columnar,
                           /*wal=*/false);
    if (TimeBulkIngest(*db, rows) < 0) return 1;
    dml[columnar] = TimeDml(*db, cfg.rows);
  }

  auto col_db = MakeDatabase("F13C", /*columnar=*/true);
  double bulk_secs = TimeBulkIngest(*col_db, rows);

  // The INSERT baseline targets its own columnar table — the same
  // destination storage and index maintenance COPY pays, so the ratio
  // isolates the ingest path (statement parse + one WAL record per row
  // versus binary decode + one WAL record per chunk).
  double insert_secs = -1;
  {
    auto insert_db = MakeDatabase("F13I", /*columnar=*/true);
    insert_secs = TimeInsertLoop(*insert_db, rows, cfg.insert_rows);
  }

  std::unique_ptr<Database> row_db;
  double row_agg_ms = -1, row_group_ms = -1;
  if (cfg.build_row_twin) {
    // The row twin exists for the scan/aggregate comparison and the
    // parity gate; build it through its own COPY path at full volume.
    row_db = MakeDatabase("F13R", /*columnar=*/false);
    if (TimeBulkIngest(*row_db, rows) < 0) return 1;
  }

  const std::string scan_sql = "SELECT * FROM OBJ WHERE MAG > 990.0";
  const std::string agg_sql =
      "SELECT COUNT(*), SUM(MAG), MIN(MAG), MAX(MAG), AVG(MAG) FROM OBJ";
  const std::string group_sql =
      "SELECT ID, COUNT(*) FROM OBJ WHERE MAG > 500.0 GROUP BY ID";

  auto [col_scan_ms, row_scan_ms] =
      TimeScanPairMs(*col_db, row_db.get(), scan_sql);
  double col_agg_ms = TimeSelectMs(*col_db, agg_sql, cfg.query_iters);
  double col_group_ms = TimeSelectMs(*col_db, group_sql, cfg.query_iters);
  if (row_db != nullptr) {
    row_agg_ms = TimeSelectMs(*row_db, agg_sql, cfg.query_iters);
    row_group_ms = TimeSelectMs(*row_db, group_sql, cfg.query_iters);
  }

  PrefixLatency prefix =
      TimePrefixLookups(*col_db, cfg.prefix_lookups, cfg.rows);

  double bulk_rate = bulk_secs > 0 ? cfg.rows / bulk_secs : -1;
  double insert_rate = insert_secs > 0 ? cfg.insert_rows / insert_secs : -1;

  std::printf("\n=== F13: catalog-scale storage engine ===\n");
  std::printf("{\"bench\":\"f13_catalog_scale\",\"schema\":3,"
              "\"rev\":\"%s\",\"build_type\":\"%s\",\"nproc\":%u,"
              "\"rows\":%zu,\n",
              EASIA_BENCH_REV, EASIA_BUILD_TYPE,
              std::thread::hardware_concurrency(), cfg.rows);
  std::printf(" \"ingest\":{\"bulk_rows_per_sec\":%.0f,"
              "\"insert_rows_per_sec\":%.0f,\"insert_sample_rows\":%zu,"
              "\"chunk_rows\":%zu,\"synced_wal\":true,"
              "\"bulk_speedup\":%.1f},\n",
              bulk_rate, insert_rate, cfg.insert_rows, kChunkRows,
              (bulk_rate > 0 && insert_rate > 0) ? bulk_rate / insert_rate
                                                 : 0.0);
  std::printf(" \"scan_ms\":{\"trials\":%d,\"columnar\":%.2f,\"row\":%.2f,"
              "\"row_to_columnar\":%.2f},\n",
              kScanTrials, col_scan_ms, row_scan_ms,
              (col_scan_ms > 0 && row_scan_ms > 0) ? row_scan_ms / col_scan_ms
                                                   : 0.0);
  std::printf(" \"aggregate_ms\":{\"columnar\":%.2f,\"row\":%.2f,"
              "\"speedup\":%.1f},\n",
              col_agg_ms, row_agg_ms,
              (col_agg_ms > 0 && row_agg_ms > 0) ? row_agg_ms / col_agg_ms
                                                 : 0.0);
  std::printf(" \"group_by_ms\":{\"columnar\":%.2f,\"row\":%.2f},\n",
              col_group_ms, row_group_ms);
  std::printf(" \"prefix_lookup\":{\"lookups\":%zu,\"hits\":%zu,"
              "\"p50_us\":%.2f,\"p99_us\":%.2f},\n",
              cfg.prefix_lookups, prefix.total_hits, prefix.p50_us,
              prefix.p99_us);
  std::printf(" \"pk_dml\":{\"ops\":%zu,\"trials\":%d,\"wal\":false",
              kDmlOps, kDmlTrials);
  for (bool columnar : layouts) {
    const DmlCost& c = dml[columnar];
    std::printf(",\n  \"%s\":{\"point_select_us\":%.2f,\"update_us\":%.2f,"
                "\"delete_us\":%.2f,\"update_ratio\":%.2f,"
                "\"delete_ratio\":%.2f}",
                columnar ? "columnar" : "row", c.select_us, c.update_us,
                c.delete_us, c.UpdateRatio(), c.DeleteRatio());
  }
  std::printf("}}\n");

  int violations = 0;
  for (bool columnar : layouts) {
    const DmlCost& c = dml[columnar];
    bool measured = c.select_us > 0 && c.update_us > 0 && c.delete_us > 0;
    if (!measured || c.UpdateRatio() > kMaxDmlToPointSelect ||
        c.DeleteRatio() > kMaxDmlToPointSelect) {
      ++violations;
      std::fprintf(stderr,
                   "pk DML gate (%s): update %.1fx, delete %.1fx a point "
                   "select (limit %.0fx)\n",
                   columnar ? "columnar" : "row", c.UpdateRatio(),
                   c.DeleteRatio(), kMaxDmlToPointSelect);
    }
  }
  if (row_db != nullptr) {
    if (col_scan_ms <= 0 || row_scan_ms <= 0 ||
        row_scan_ms > kMaxRowToColumnarScan * col_scan_ms) {
      ++violations;
      std::fprintf(stderr,
                   "scan gate: row %.3f ms, columnar %.3f ms (limit %.0fx)\n",
                   row_scan_ms, col_scan_ms, kMaxRowToColumnarScan);
    }
    violations += CheckParity(*row_db, *col_db);
  }
  return violations;
}

// ---- Microbenchmarks (skipped under --smoke) ----

void BM_ColumnarAggregate(benchmark::State& state) {
  auto db = MakeDatabase("F13B", /*columnar=*/true);
  std::vector<Row> rows = MakeRows(static_cast<size_t>(state.range(0)));
  if (TimeBulkIngest(*db, rows) < 0) {
    state.SkipWithError("ingest failed");
    return;
  }
  Result<Statement> stmt =
      ParseSql("SELECT COUNT(*), SUM(MAG), AVG(MAG) FROM OBJ");
  TableLookup lookup = [&db](const std::string& name) {
    return db->GetTable(name);
  };
  for (auto _ : state) {
    auto r = ExecuteSelect(*stmt->select, lookup, nullptr, {true});
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_ColumnarAggregate)
    ->Arg(100000)
    ->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

void BM_RadixPrefixLookup(benchmark::State& state) {
  auto db = MakeDatabase("F13P", /*columnar=*/true);
  std::vector<Row> rows = MakeRows(static_cast<size_t>(state.range(0)));
  if (TimeBulkIngest(*db, rows) < 0) {
    state.SkipWithError("ingest failed");
    return;
  }
  const Table* table = *db->GetTable("OBJ");
  size_t i = 0;
  for (auto _ : state) {
    std::string prefix = StrPrintf("S%06zu", (i++ * 7919) % (rows.size() / 10));
    auto ids = table->RadixPrefixRowIds("NAME", prefix);
    benchmark::DoNotOptimize(ids.size());
  }
}
BENCHMARK(BM_RadixPrefixLookup)
    ->Arg(1000000)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool large = false;
  // Strip our flags before benchmark::Initialize; ctest runs
  // `bench_f13_catalog_scale --smoke` on every build.
  for (int i = 1; i < argc;) {
    if (std::strcmp(argv[i], "--smoke") == 0 ||
        std::strcmp(argv[i], "--large") == 0) {
      if (argv[i][2] == 's') smoke = true;
      if (argv[i][2] == 'l') large = true;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
    } else {
      ++i;
    }
  }
  Config cfg;
  if (smoke) {
    cfg.rows = 20000;
    cfg.insert_rows = 2000;
    cfg.prefix_lookups = 200;
    cfg.query_iters = 2;
  } else if (large) {
    // 10M rows: columnar engine only (a 10M-row row-store twin plus the
    // source vector does not fit the bench machine's memory budget).
    cfg.rows = 10000000;
    cfg.build_row_twin = false;
    cfg.prefix_lookups = 5000;
  }
  int violations = RunReproduction(cfg);
  if (violations != 0) return 1;
  if (smoke) return 0;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
