// F13 — catalog-scale storage engine: binary bulk ingest (COPY) versus a
// per-statement INSERT loop, the planner's columnar scan/aggregate
// kernels versus the legacy row-at-a-time executor, radix prefix-index
// lookup latency, primary-key UPDATE / DELETE cost next to a point SELECT
// on the same key, a scan after a rolled-back DELETE, and the page
// store's footprint under UPDATE churn, on a synthetic object catalogue
// of 1M rows by default (--large: 10M, --smoke: 20k-row gate). Emits a
// JSON block (schema versioned, tagged with the build revision, type and
// core count) so future PRs can track the trajectory; `--smoke` runs as a
// ctest and exits non-zero when the planned and legacy executors disagree
// on results, when a pk UPDATE or DELETE costs more than 10 point
// SELECTs, when a scan after `BEGIN; DELETE; ROLLBACK` costs more than
// 1.5 of the same scan on an untouched twin, or when 100k single-row
// UPDATEs grow the columnar bytes past twice their compacted size plus
// 64 KiB.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
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

/// The --smoke gate on the selective scan after a rolled-back DELETE: it
/// may cost at most this many scans of an untouched twin. The undo
/// re-inserts rows below the newest RowId; without the compaction that
/// follows, every later scan sorts the live slots first (~10x at 20k
/// rows). Reported as the minimum of kScanTrials interleaved runs each.
constexpr double kMaxRolledBackToFreshScan = 1.5;
constexpr int kScanTrials = 5;

/// The --smoke churn gate: kChurnUpdates single-row UPDATEs may grow the
/// churn table's columnar bytes to at most twice their size right after
/// a compaction, plus kChurnSlackBytes. Without compaction each UPDATE
/// re-appended the row's 300-byte CLOB (~30 MB here).
constexpr size_t kChurnUpdates = 100000;
constexpr size_t kChurnSlackBytes = 64 * 1024;

struct Config {
  size_t rows = 1000000;
  /// The INSERT loop is measured on a subset and reported as rows/sec —
  /// at full scale per-statement ingest takes minutes by design.
  size_t insert_rows = 100000;
  size_t prefix_lookups = 2000;
  int query_iters = 3;
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
std::unique_ptr<Database> MakeDatabase(const char* name, bool wal = true) {
  DatabaseOptions opts;
  if (wal) {
    opts.wal_path = std::string("/tmp/easia_bench_f13_") + name + ".wal";
    std::remove(opts.wal_path.c_str());
  }
  auto db = std::make_unique<Database>(name, opts);
  (void)db->Execute(
      "CREATE TABLE OBJ (ID INTEGER NOT NULL, NAME VARCHAR(32),"
      " MAG DOUBLE, PRIMARY KEY (ID))");
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

/// Runs `sql` through the planner (`planned`) or the legacy executor.
Result<QueryResult> RunSelect(Database& db, const std::string& sql,
                              bool planned) {
  EASIA_ASSIGN_OR_RETURN(Statement stmt, ParseSql(sql));
  if (stmt.kind != Statement::Kind::kSelect) {
    return Status::InvalidArgument("not a SELECT: " + sql);
  }
  TableLookup lookup = [&db](const std::string& name) {
    return db.GetTable(name);
  };
  ExecuteOptions options;
  options.use_planner = planned;
  return ExecuteSelect(*stmt.select, lookup, nullptr, options);
}

/// Best-of-`iters` wall time for `sql`; -1 on error.
double TimeSelectMs(Database& db, const std::string& sql, int iters,
                    bool planned = true) {
  double best = -1;
  for (int i = 0; i < iters; ++i) {
    auto t0 = std::chrono::steady_clock::now();
    Result<QueryResult> r = RunSelect(db, sql, planned);
    if (!r.ok()) return -1;
    benchmark::DoNotOptimize(r->rows.size());
    double ms = SecondsSince(t0) * 1000.0;
    if (best < 0 || ms < best) best = ms;
  }
  return best;
}

/// Min-of-kScanTrials wall times of two timed calls, the trials
/// interleaved so a slow phase of the host hits both alike. -1 on error.
template <typename A, typename B>
std::pair<double, double> TimeInterleavedMs(const A& a, const B& b) {
  double a_ms = -1;
  double b_ms = -1;
  auto best = [](double* slot, double ms) {
    if (ms < 0 || *slot < 0 || ms < *slot) *slot = ms;
  };
  for (int t = 0; t < kScanTrials; ++t) {
    best(&a_ms, a());
    best(&b_ms, b());
  }
  return {a_ms, b_ms};
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

/// The parity gate behind --smoke: the planner (filter and aggregate
/// kernels, radix prefix scan) and the legacy executor must agree on a
/// scan, an aggregate and a prefix LIKE. Returns the number of
/// disagreements.
int CheckParity(Database& db) {
  int violations = 0;
  const char* queries[] = {
      "SELECT COUNT(*), SUM(MAG), MIN(NAME), MAX(NAME) FROM OBJ",
      "SELECT COUNT(*) FROM OBJ WHERE MAG > 500.0",
      "SELECT COUNT(*) FROM OBJ WHERE NAME LIKE 'S0000001%'",
      "SELECT * FROM OBJ WHERE MAG > 990.0",
  };
  for (const char* sql : queries) {
    Result<QueryResult> a = RunSelect(db, sql, /*planned=*/true);
    Result<QueryResult> b = RunSelect(db, sql, /*planned=*/false);
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
      std::fprintf(stderr, "parity: %s disagrees between executors\n", sql);
    }
  }
  return violations;
}

struct ChurnBytes {
  size_t after_compaction = 0;
  size_t peak = 0;
};

/// The churn leg: a one-row table with a name and a 300-byte CLOB is
/// compacted (a rolled-back DELETE), then takes kChurnUpdates single-row
/// UPDATEs that bump a counter and rename the row; columnar bytes are
/// sampled every 1,000 statements. Zeroes on error.
ChurnBytes TimeChurn(Database& db) {
  ChurnBytes out;
  const char* setup[] = {
      "CREATE TABLE CHURN (ID INTEGER NOT NULL, N INTEGER,"
      " NAME VARCHAR(32), NOTE CLOB, PRIMARY KEY (ID))",
      nullptr, "BEGIN", "DELETE FROM CHURN WHERE ID = 1", "ROLLBACK"};
  const std::string insert = "INSERT INTO CHURN VALUES (1, 0, 'n0', '" +
                             std::string(300, 'x') + "')";
  for (const char* sql : setup) {
    if (!db.Execute(sql == nullptr ? insert : std::string(sql)).ok()) {
      return {};
    }
  }
  Result<const Table*> table = db.GetTable("CHURN");
  if (!table.ok()) return {};
  out.after_compaction = (*table)->GetStorageStats().columnar_bytes;
  out.peak = out.after_compaction;
  for (size_t i = 1; i <= kChurnUpdates; ++i) {
    std::string sql = StrPrintf(
        "UPDATE CHURN SET N = N + 1, NAME = 'n%zu' WHERE ID = 1", i % 1000);
    if (!db.Execute(sql).ok()) return {};
    if (i % 1000 == 0) {
      out.peak =
          std::max(out.peak, (*table)->GetStorageStats().columnar_bytes);
    }
  }
  return out;
}

int RunReproduction(const Config& cfg) {
  std::vector<Row> rows = MakeRows(cfg.rows);

  // DML leg first, on a WAL-less database dropped before the other legs
  // build theirs.
  DmlCost dml;
  {
    auto db = MakeDatabase("F13D", /*wal=*/false);
    if (TimeBulkIngest(*db, rows) < 0) return 1;
    dml = TimeDml(*db, cfg.rows);
  }

  auto col_db = MakeDatabase("F13C");
  double bulk_secs = TimeBulkIngest(*col_db, rows);

  // The INSERT baseline targets its own table — the same destination
  // storage and index maintenance COPY pays, so the ratio isolates the
  // ingest path (statement parse + one WAL record per row versus binary
  // decode + one WAL record per chunk).
  double insert_secs = -1;
  {
    auto insert_db = MakeDatabase("F13I");
    insert_secs = TimeInsertLoop(*insert_db, rows, cfg.insert_rows);
  }

  const std::string scan_sql = "SELECT * FROM OBJ WHERE MAG > 990.0";
  const std::string agg_sql =
      "SELECT COUNT(*), SUM(MAG), MIN(MAG), MAX(MAG), AVG(MAG) FROM OBJ";
  const std::string group_sql =
      "SELECT ID, COUNT(*) FROM OBJ WHERE MAG > 500.0 GROUP BY ID";

  auto [scan_ms, legacy_scan_ms] = TimeInterleavedMs(
      [&] { return TimeSelectMs(*col_db, scan_sql, 1); },
      [&] { return TimeSelectMs(*col_db, scan_sql, 1, /*planned=*/false); });
  double agg_ms = TimeSelectMs(*col_db, agg_sql, cfg.query_iters);
  double group_ms = TimeSelectMs(*col_db, group_sql, cfg.query_iters);
  double legacy_agg_ms =
      TimeSelectMs(*col_db, agg_sql, cfg.query_iters, /*planned=*/false);
  double legacy_group_ms =
      TimeSelectMs(*col_db, group_sql, cfg.query_iters, /*planned=*/false);

  PrefixLatency prefix =
      TimePrefixLookups(*col_db, cfg.prefix_lookups, cfg.rows);

  // The same scan on a twin whose DELETE of the matching rows was rolled
  // back, interleaved with scans of the untouched table.
  double fresh_ms = -1;
  double rolled_back_ms = -1;
  ChurnBytes churn;
  {
    auto rb_db = MakeDatabase("F13RB", /*wal=*/false);
    bool ready = TimeBulkIngest(*rb_db, rows) >= 0 &&
                 rb_db->Execute("BEGIN").ok() &&
                 rb_db->Execute("DELETE FROM OBJ WHERE MAG > 990.0").ok() &&
                 rb_db->Execute("ROLLBACK").ok();
    if (!ready) return 1;
    std::tie(fresh_ms, rolled_back_ms) = TimeInterleavedMs(
        [&] { return TimeSelectMs(*col_db, scan_sql, 1); },
        [&] { return TimeSelectMs(*rb_db, scan_sql, 1); });
    churn = TimeChurn(*rb_db);
  }

  double bulk_rate = bulk_secs > 0 ? cfg.rows / bulk_secs : -1;
  double insert_rate = insert_secs > 0 ? cfg.insert_rows / insert_secs : -1;
  auto ratio = [](double num, double den) {
    return num > 0 && den > 0 ? num / den : 0.0;
  };

  std::printf("\n=== F13: catalog-scale storage engine ===\n");
  std::printf("{\"bench\":\"f13_catalog_scale\",\"schema\":4,"
              "\"rev\":\"%s\",\"build_type\":\"%s\",\"nproc\":%u,"
              "\"rows\":%zu,\n",
              EASIA_BENCH_REV, EASIA_BUILD_TYPE,
              std::thread::hardware_concurrency(), cfg.rows);
  std::printf(" \"ingest\":{\"bulk_rows_per_sec\":%.0f,"
              "\"insert_rows_per_sec\":%.0f,\"insert_sample_rows\":%zu,"
              "\"chunk_rows\":%zu,\"synced_wal\":true,"
              "\"bulk_speedup\":%.1f},\n",
              bulk_rate, insert_rate, cfg.insert_rows, kChunkRows,
              ratio(bulk_rate, insert_rate));
  std::printf(" \"scan_ms\":{\"trials\":%d,\"planned\":%.2f,"
              "\"legacy\":%.2f,\"legacy_to_planned\":%.2f},\n",
              kScanTrials, scan_ms, legacy_scan_ms,
              ratio(legacy_scan_ms, scan_ms));
  std::printf(" \"aggregate_ms\":{\"planned\":%.2f,\"legacy\":%.2f,"
              "\"speedup\":%.1f},\n",
              agg_ms, legacy_agg_ms, ratio(legacy_agg_ms, agg_ms));
  std::printf(" \"group_by_ms\":{\"planned\":%.2f,\"legacy\":%.2f},\n",
              group_ms, legacy_group_ms);
  std::printf(" \"prefix_lookup\":{\"lookups\":%zu,\"hits\":%zu,"
              "\"p50_us\":%.2f,\"p99_us\":%.2f},\n",
              cfg.prefix_lookups, prefix.total_hits, prefix.p50_us,
              prefix.p99_us);
  std::printf(" \"pk_dml\":{\"ops\":%zu,\"trials\":%d,\"wal\":false,"
              "\"point_select_us\":%.2f,\"update_us\":%.2f,"
              "\"delete_us\":%.2f,\"update_ratio\":%.2f,"
              "\"delete_ratio\":%.2f},\n",
              kDmlOps, kDmlTrials, dml.select_us, dml.update_us,
              dml.delete_us, dml.UpdateRatio(), dml.DeleteRatio());
  std::printf(" \"rollback_scan_ms\":{\"trials\":%d,\"fresh\":%.2f,"
              "\"rolled_back\":%.2f,\"ratio\":%.2f},\n",
              kScanTrials, fresh_ms, rolled_back_ms,
              ratio(rolled_back_ms, fresh_ms));
  std::printf(" \"churn\":{\"updates\":%zu,\"bytes_after_compaction\":%zu,"
              "\"peak_bytes\":%zu,\"ratio\":%.2f}}\n",
              kChurnUpdates, churn.after_compaction, churn.peak,
              ratio(static_cast<double>(churn.peak),
                    static_cast<double>(churn.after_compaction)));

  int violations = 0;
  bool measured = dml.select_us > 0 && dml.update_us > 0 && dml.delete_us > 0;
  if (!measured || dml.UpdateRatio() > kMaxDmlToPointSelect ||
      dml.DeleteRatio() > kMaxDmlToPointSelect) {
    ++violations;
    std::fprintf(stderr,
                 "pk DML gate: update %.1fx, delete %.1fx a point select "
                 "(limit %.0fx)\n",
                 dml.UpdateRatio(), dml.DeleteRatio(), kMaxDmlToPointSelect);
  }
  if (fresh_ms <= 0 || rolled_back_ms <= 0 ||
      rolled_back_ms > kMaxRolledBackToFreshScan * fresh_ms) {
    ++violations;
    std::fprintf(stderr,
                 "rollback scan gate: %.3f ms after ROLLBACK, %.3f ms "
                 "untouched (limit %.1fx)\n",
                 rolled_back_ms, fresh_ms, kMaxRolledBackToFreshScan);
  }
  if (churn.after_compaction == 0 ||
      churn.peak > 2 * churn.after_compaction + kChurnSlackBytes) {
    ++violations;
    std::fprintf(stderr,
                 "churn gate: %zu bytes after %zu updates, %zu after "
                 "compaction (limit 2x + %zu)\n",
                 churn.peak, kChurnUpdates, churn.after_compaction,
                 kChurnSlackBytes);
  }
  violations += CheckParity(*col_db);
  return violations;
}

// ---- Microbenchmarks (skipped under --smoke) ----

void BM_ColumnarAggregate(benchmark::State& state) {
  auto db = MakeDatabase("F13B");
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
  auto db = MakeDatabase("F13P");
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
    cfg.rows = 10000000;
    cfg.prefix_lookups = 5000;
  }
  int violations = RunReproduction(cfg);
  if (violations != 0) return 1;
  if (smoke) return 0;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
