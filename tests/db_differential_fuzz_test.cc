#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "db/database.h"
#include "db/executor.h"
#include "db/parser.h"
#include "db/repl/replica.h"
#include "db/repl/shipper.h"
#include "db/repl/wire.h"
#include "db/shard/coordinator.h"
#include "sim/network.h"

namespace easia::db {
namespace {

int FuzzIters(int default_iters) {
  const char* env = std::getenv("EASIA_FUZZ_ITERS");
  if (env == nullptr) return default_iters;
  int parsed = std::atoi(env);
  return parsed > 0 ? parsed : default_iters;
}

constexpr size_t kFuzzShards = 4;

/// Full-mesh sim network for the sharded differential arm: coordinator
/// "web" plus shard hosts "s0".."s3".
sim::Network MakeShardNet() {
  sim::Network net;
  std::vector<std::string> hosts = {"web"};
  for (size_t i = 0; i < kFuzzShards; ++i) {
    hosts.push_back("s" + std::to_string(i));
  }
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

shard::ShardOptions MakeShardOptions() {
  shard::ShardOptions options;
  options.coordinator_host = "web";
  for (size_t i = 0; i < kFuzzShards; ++i) {
    options.shard_hosts.push_back("s" + std::to_string(i));
  }
  return options;
}

/// One random predicate over the available columns.
std::string RandomPredicate(Random& rng, const std::vector<std::string>& cols) {
  const std::string& col = cols[rng.Uniform(cols.size())];
  static const char* kOps[] = {"=", "<>", "<", ">", "<=", ">="};
  switch (rng.Uniform(8)) {
    case 0:
      return col + " IS NULL";
    case 1:
      return col + " IS NOT NULL";
    default:
      return col + " " + kOps[rng.Uniform(6)] + " " +
             std::to_string(rng.Uniform(5000));
  }
}

/// A random LIKE predicate over SIMULATION.TITLE (values title0..title11).
/// Mostly prefix patterns (planner-pushable to the radix index on the
/// columnar twin), with occasional leading-wildcard, mid-pattern-%,
/// single-char-_ and escaped-wildcard shapes that must NOT take (or must
/// survive) the prefix fast path.
std::string RandomLikePredicate(Random& rng) {
  std::string digit = std::to_string(rng.Uniform(12));
  switch (rng.Uniform(8)) {
    case 0:
      return "TITLE LIKE 'title%'";  // matches everything
    case 1:
      return "TITLE LIKE '%" + digit + "'";  // leading wildcard
    case 2:
      return "TITLE LIKE 'title_'";  // single-char wildcard, no prefix tail
    case 3:
      return "TITLE LIKE 't%" + digit + "'";  // short prefix + wildcard tail
    case 4:
      return "TITLE LIKE 'title\\%'";  // escaped %: literal, matches nothing
    case 5:
      return "TITLE NOT LIKE 'title" + digit + "%'";
    case 6:
      return "TITLE LIKE 'xyz%'";  // empty result prefix
    default:
      return "TITLE LIKE 'title" + digit + "%'";
  }
}

std::string RandomWhere(Random& rng, const std::vector<std::string>& cols,
                        const std::string& prefix = " WHERE ") {
  size_t predicates = rng.Uniform(3);
  if (predicates == 0) return "";
  std::string where = prefix;
  for (size_t i = 0; i < predicates; ++i) {
    if (i > 0) where += rng.OneIn(3) ? " OR " : " AND ";
    where += RandomPredicate(rng, cols);
  }
  return where;
}

/// One generated UPDATE, DELETE or INSERT on AUTHOR or SIMULATION. The
/// WHERE clause is kept apart so the oracle can run it as a SELECT.
struct DmlCase {
  std::string sql;
  std::string table;
  std::string where;  // " WHERE ..." or "" (no WHERE, or an INSERT)
  bool insert = false;
  size_t insert_rows = 0;
};

/// A random DML statement: by primary key, by foreign key, by range, OR,
/// IS NULL or LIKE, or with no WHERE; PK-changing and duplicate-PK
/// UPDATEs (shard migration), FK-violating writes and RESTRICT-violating
/// parent updates and deletes all occur. INSERTs of 1-4 rows replenish
/// the tables; multi-row ones spread their keys across shards. RE takes
/// integral, quarter-fraction and +inf values (`1e308 * 10` literals,
/// `RE * 1e308 * 10` updates). Every RE stays 0 or at least 0.25, so the
/// updates give 0 or +inf and no expression yields NaN: quarter
/// fractions and +inf sum exactly in any order, which keeps SUM and
/// ORDER BY comparable across the arms.
DmlCase RandomDml(Random& rng) {
  DmlCase c;
  bool sim = !rng.OneIn(3);
  c.table = sim ? "SIMULATION" : "AUTHOR";
  const std::string pk = sim ? "SIMULATION_KEY" : "AUTHOR_KEY";
  const uint64_t keys = sim ? 100 : 30;
  auto key = [&] { return std::to_string(1 + rng.Uniform(keys)); };
  auto author = [&] {
    return rng.OneIn(6) ? std::string("NULL")
                        : std::to_string(1 + rng.Uniform(30));
  };
  auto re = [&] {
    static const char* kQuarters[] = {".25", ".5", ".75"};
    switch (rng.Uniform(8)) {
      case 0:
        return std::string("1e308 * 10");  // overflows to +inf
      case 1:
      case 2:
        return std::to_string(rng.Uniform(5000)) + kQuarters[rng.Uniform(3)];
      default:
        return std::to_string(rng.Uniform(5000));
    }
  };
  const uint64_t kind = rng.Uniform(10);
  if (kind < 3) {
    c.insert = true;
    c.insert_rows = rng.OneIn(2) ? 1 : 2 + rng.Uniform(3);
    c.sql = "INSERT INTO " + c.table + " VALUES ";
    for (size_t i = 0; i < c.insert_rows; ++i) {
      if (i > 0) c.sql += ", ";
      c.sql += sim ? "(" + key() + ", " + author() + ", " + re() + ", 'title" +
                         std::to_string(rng.Uniform(12)) + "')"
                   : "(" + key() + ", 'name" +
                         std::to_string(rng.Uniform(10)) + "', " +
                         (rng.OneIn(5) ? std::string("NULL")
                                       : std::to_string(rng.Uniform(60))) +
                         ")";
    }
    return c;
  }
  const std::vector<std::string> cols =
      sim ? std::vector<std::string>{"SIMULATION_KEY", "AUTHOR_KEY", "RE"}
          : std::vector<std::string>{"AUTHOR_KEY", "AGE"};
  bool broad = false;
  switch (rng.Uniform(8)) {
    case 0:
    case 1:
      c.where = " WHERE " + pk + " = " + key();
      break;
    case 2:
      c.where = " WHERE AUTHOR_KEY = " + key();  // FK on SIMULATION
      break;
    case 3: {
      uint64_t low = 1 + rng.Uniform(keys);
      c.where = " WHERE " + pk + " >= " + std::to_string(low) + " AND " + pk +
                " < " + std::to_string(low + 1 + rng.Uniform(6));
      break;
    }
    case 4:
      c.where = " WHERE " + pk + " = " + key() + " OR " + pk + " = " + key();
      break;
    case 5:
      c.where = sim ? " WHERE " + RandomLikePredicate(rng)
                    : " WHERE AGE IS NULL";
      break;
    case 6:
      c.where = RandomWhere(rng, cols);  // may be empty: no WHERE
      broad = true;
      break;
    default:
      c.where = " WHERE " + RandomPredicate(rng, cols);
      broad = true;
  }
  if (kind < 5) {
    // A broad DELETE can empty the table; keep those rare so later
    // statements still find rows.
    if (broad && !rng.OneIn(5)) c.where = " WHERE " + pk + " = " + key();
    c.sql = "DELETE FROM " + c.table + c.where;
    return c;
  }
  std::string set;
  switch (rng.Uniform(sim ? 8 : 4)) {
    case 0:
      set = sim ? "RE = RE + 1" : "AGE = AGE + 1";
      break;
    case 1:
      set = sim ? "TITLE = 'title" + std::to_string(rng.Uniform(12)) + "'"
                : "NAME = 'name" + std::to_string(rng.Uniform(10)) + "'";
      break;
    case 2:
      set = pk + " = " + key();  // duplicate key unless the key is free
      break;
    case 3:  // a random walk keeps keys near the generated range
      set = pk + " = " + pk + (rng.OneIn(2) ? " + " : " - ") +
            std::to_string(1 + rng.Uniform(40));
      break;
    case 4:
      set = "AUTHOR_KEY = " + author();
      break;
    case 5:
      set = "AUTHOR_KEY = " + author() + ", RE = RE * 2";
      break;
    case 6:
      set = "RE = RE * 1e308 * 10";
      break;
    default:  // a partition-key move that carries +inf values
      set = pk + " = " + pk + " + " + std::to_string(1 + rng.Uniform(40)) +
            ", RE = RE * 1e308 * 10";
  }
  c.sql = "UPDATE " + c.table + " SET " + set + c.where;
  return c;
}

constexpr const char kAuthorDump[] = "SELECT * FROM AUTHOR ORDER BY AUTHOR_KEY";
constexpr const char kSimulationDump[] =
    "SELECT * FROM SIMULATION ORDER BY SIMULATION_KEY";

/// Differential fuzzing: seeded random SELECTs executed through both the
/// query planner and the legacy executor must produce identical results.
/// The planner (predicate pushdown, index access, hash joins, columnar
/// filter/aggregate kernels, radix prefix scans, LIMIT short-circuit) is
/// the optimised path; the legacy executor is the naive-but-obviously-
/// correct oracle. Every query additionally runs against a columnar twin
/// database (same DDL `STORE COLUMNAR`, same inserts), against a
/// replica fed purely by WAL-shipped commit entries (never by direct
/// DML), and against a 4-shard hash-partitioned coordinator (same DDL
/// plus `PARTITION BY HASH(<pk>) PARTITIONS 4`, scatter/gather
/// planning over sim links), so each check is six-way: {planned,
/// legacy} x {row store, columnar} plus {replica replay} plus
/// {sharded scatter/gather}. The DML phase runs UPDATE/DELETE/INSERT on
/// the three executing engines, with the legacy SELECT over the
/// pre-state as the oracle for which rows each statement touches.
class DifferentialFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>("FUZZ");
    columnar_db_ = std::make_unique<Database>("CFUZZ");
    replica_ = std::make_unique<repl::ReplicaNode>("r1");
    db_->set_commit_listener(
        [this](uint64_t epoch, const std::vector<WalRecord>& records) {
          log_.Append(epoch, records);
        });
    ExecBoth(
        "CREATE TABLE AUTHOR ("
        " AUTHOR_KEY INTEGER NOT NULL,"
        " NAME VARCHAR(40),"
        " AGE INTEGER,"
        " PRIMARY KEY (AUTHOR_KEY))");
    ExecBoth(
        "CREATE TABLE SIMULATION ("
        " SIMULATION_KEY INTEGER NOT NULL,"
        " AUTHOR_KEY INTEGER,"
        " RE DOUBLE,"
        " TITLE VARCHAR(60),"
        " PRIMARY KEY (SIMULATION_KEY),"
        " FOREIGN KEY (AUTHOR_KEY) REFERENCES AUTHOR (AUTHOR_KEY))");
    Random rng(0xDA7A);
    for (int i = 1; i <= 25; ++i) {
      std::string age = rng.OneIn(5) ? "NULL" : std::to_string(rng.Uniform(60));
      ExecBoth("INSERT INTO AUTHOR VALUES (" + std::to_string(i) + ", 'name" +
               std::to_string(rng.Uniform(10)) + "', " + age + ")");
    }
    for (int i = 1; i <= 80; ++i) {
      std::string author =
          rng.OneIn(6) ? "NULL" : std::to_string(1 + rng.Uniform(25));
      ExecBoth("INSERT INTO SIMULATION VALUES (" + std::to_string(i) + ", " +
               author + ", " + std::to_string(rng.Uniform(5000)) + ", 'title" +
               std::to_string(rng.Uniform(12)) + "')");
    }
  }

  /// Runs DDL/DML against the row-store database, its columnar twin
  /// (CREATE TABLE gains the STORE COLUMNAR clause) and the 4-shard
  /// coordinator (CREATE TABLE gains a PARTITION BY HASH clause on the
  /// table's primary key, so every row is hash-routed to one shard).
  void ExecBoth(const std::string& sql) {
    Result<QueryResult> r = db_->Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    std::string csql = sql;
    if (sql.rfind("CREATE TABLE", 0) == 0) csql += " STORE COLUMNAR";
    Result<QueryResult> cr = columnar_db_->Execute(csql);
    ASSERT_TRUE(cr.ok()) << csql << " -> " << cr.status().ToString();
    std::string ssql = sql;
    if (sql.rfind("CREATE TABLE", 0) == 0) {
      size_t pk = sql.find("PRIMARY KEY (");
      ASSERT_NE(pk, std::string::npos) << sql;
      pk += std::string("PRIMARY KEY (").size();
      size_t end = sql.find(')', pk);
      ASSERT_NE(end, std::string::npos) << sql;
      ssql += " PARTITION BY HASH(" + sql.substr(pk, end - pk) +
              ") PARTITIONS " + std::to_string(kFuzzShards);
    }
    Result<QueryResult> sr = shard_.Execute(ssql);
    ASSERT_TRUE(sr.ok()) << ssql << " -> " << sr.status().ToString();
  }

  /// Rows rendered to comparable strings.
  static std::vector<std::string> Render(const QueryResult& result) {
    std::vector<std::string> out;
    out.reserve(result.rows.size());
    for (const Row& row : result.rows) {
      std::string line;
      for (const Value& v : row) {
        line += v.ToDisplayString();
        line += "|";
      }
      out.push_back(std::move(line));
    }
    return out;
  }

  /// Runs one generated query through planned and legacy executors on the
  /// row-store database AND the columnar twin; all four runs must agree.
  /// `ordered` asserts sequence equality (the query carries a total
  /// ORDER BY); otherwise the row multisets must match.
  void CheckEquivalent(const std::string& sql, bool ordered) {
    SCOPED_TRACE(sql);
    Result<Statement> stmt = ParseSql(sql);
    ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
    ASSERT_EQ(stmt->kind, Statement::Kind::kSelect);
    // Catch the replica up to the primary's shipping log (no network —
    // the wire encode/decode path is still exercised), then include it
    // as a fifth differential arm: replayed state must answer queries
    // exactly like the state built by direct execution.
    std::vector<repl::CommitEntry> pending =
        log_.EntriesAfter(replica_->last_applied_lsn(), log_.size() + 1);
    if (!pending.empty()) {
      Result<repl::ReplicaNode::ApplyOutcome> applied =
          replica_->ApplyShipment(repl::EncodeShipment(pending));
      ASSERT_TRUE(applied.ok()) << applied.status().ToString();
      ASSERT_EQ(applied->applied, pending.size());
    }
    struct Run {
      const char* label;
      Result<QueryResult> result;
    };
    std::vector<Run> runs;
    for (Database* database : {db_.get(), columnar_db_.get()}) {
      TableLookup lookup = [database](const std::string& name) {
        return database->GetTable(name);
      };
      bool row_store = database == db_.get();
      runs.push_back({row_store ? "row/planned" : "columnar/planned",
                      ExecuteSelect(*stmt->select, lookup, nullptr, {true})});
      runs.push_back({row_store ? "row/naive" : "columnar/naive",
                      ExecuteSelect(*stmt->select, lookup, nullptr, {false})});
    }
    {
      Database* database = &replica_->database();
      TableLookup lookup = [database](const std::string& name) {
        return database->GetTable(name);
      };
      runs.push_back({"replica/planned",
                      ExecuteSelect(*stmt->select, lookup, nullptr, {true})});
    }
    // Sixth arm: the shard coordinator plans the same SELECT across four
    // hash partitions (pruning + scatter partial aggregation or
    // coordinator-side gather) and must still agree with the naive
    // single-node oracle.
    runs.push_back({"sharded/planned", shard_.Execute(sql)});
    const Run& oracle = runs[1];  // row-store naive path
    for (const Run& run : runs) {
      ASSERT_EQ(run.result.ok(), oracle.result.ok())
          << run.label << ": " << run.result.status().ToString()
          << "\noracle:  " << oracle.result.status().ToString();
    }
    if (!oracle.result.ok()) return;
    std::vector<std::string> want = Render(*oracle.result);
    if (!ordered) std::sort(want.begin(), want.end());
    for (const Run& run : runs) {
      EXPECT_EQ(run.result->column_names, oracle.result->column_names)
          << run.label;
      std::vector<std::string> got = Render(*run.result);
      if (!ordered) std::sort(got.begin(), got.end());
      EXPECT_EQ(got, want) << run.label;
    }
  }

  /// Both tables in primary-key order, from the row store's legacy path.
  std::vector<std::string> Dump() {
    std::vector<std::string> out;
    for (const char* sql : {kAuthorDump, kSimulationDump}) {
      Result<QueryResult> r = db_->Execute(sql);
      EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
      if (!r.ok()) return out;
      std::vector<std::string> rows = Render(*r);
      out.insert(out.end(), rows.begin(), rows.end());
      out.push_back("--");
    }
    return out;
  }

  /// The dumps agree on all six arms.
  void CheckDumps() {
    CheckEquivalent(kAuthorDump, /*ordered=*/true);
    CheckEquivalent(kSimulationDump, /*ordered=*/true);
  }

  /// Runs one DML statement on the row store, its columnar twin and the
  /// sharded coordinator. All three return the same status code; on
  /// success each affects exactly the rows the legacy executor's SELECT
  /// with the same WHERE returned from the pre-state; on failure nothing
  /// changed. Then the dumps must agree six ways.
  void CheckDml(const DmlCase& dml) {
    SCOPED_TRACE(dml.sql);
    std::vector<std::string> before = Dump();
    Result<size_t> oracle = Status::Internal("no oracle for INSERT");
    if (!dml.insert) {
      Result<Statement> select =
          ParseSql("SELECT * FROM " + dml.table + dml.where);
      ASSERT_TRUE(select.ok()) << select.status().ToString();
      TableLookup lookup = [this](const std::string& name) {
        return db_->GetTable(name);
      };
      Result<QueryResult> rows =
          ExecuteSelect(*select->select, lookup, nullptr, {false});
      if (rows.ok()) oracle = rows->rows.size();
    }
    struct Arm {
      const char* label;
      Result<QueryResult> result;
    };
    std::vector<Arm> arms;
    arms.push_back({"row", db_->Execute(dml.sql)});
    arms.push_back({"columnar", columnar_db_->Execute(dml.sql)});
    arms.push_back({"sharded", shard_.Execute(dml.sql)});
    const Result<QueryResult>& row = arms[0].result;
    for (const Arm& arm : arms) {
      ASSERT_EQ(arm.result.status().code(), row.status().code())
          << arm.label << ": " << arm.result.status().ToString()
          << "\nrow: " << row.status().ToString();
    }
    if (row.ok()) {
      size_t want = dml.insert_rows;
      if (!dml.insert) {
        ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
        want = *oracle;
      }
      for (const Arm& arm : arms) {
        EXPECT_EQ(arm.result->rows_affected, want) << arm.label;
      }
    } else {
      EXPECT_EQ(Dump(), before) << row.status().ToString();
    }
    CheckDumps();
  }

  /// Re-inserts the seed keys the churn removed (AUTHOR 1..25 first, then
  /// SIMULATION 1..80) on every engine, so a long run keeps finding rows.
  void Replenish() {
    for (bool sim : {false, true}) {
      Result<QueryResult> live =
          db_->Execute(sim ? "SELECT SIMULATION_KEY FROM SIMULATION"
                           : "SELECT AUTHOR_KEY FROM AUTHOR");
      ASSERT_TRUE(live.ok()) << live.status().ToString();
      std::set<int64_t> keys;
      for (const Row& row : live->rows) keys.insert(row[0].AsInt());
      for (int64_t k = 1; k <= (sim ? 80 : 25); ++k) {
        if (keys.count(k) > 0) continue;
        std::string n = std::to_string(k);
        ExecBoth(sim ? "INSERT INTO SIMULATION VALUES (" + n + ", " +
                           std::to_string(1 + k % 25) + ", " + n +
                           "0, 'title" + std::to_string(k % 12) + "')"
                     : "INSERT INTO AUTHOR VALUES (" + n + ", 'name" +
                           std::to_string(k % 10) + "', NULL)");
      }
    }
    CheckDumps();
  }

  /// BEGIN, a few DML statements, ROLLBACK — on the two single-node arms
  /// only (the sharded coordinator refuses explicit transactions). A
  /// failing statement already aborts the transaction, which ends the
  /// block. Afterwards every arm is back at the pre-state.
  void CheckRolledBackBlock(Random& rng) {
    std::vector<std::string> before = Dump();
    std::vector<std::string> sqls = {"BEGIN"};
    for (uint64_t n = 1 + rng.Uniform(3); n > 0; --n) {
      sqls.push_back(RandomDml(rng).sql);
    }
    sqls.push_back("ROLLBACK");
    for (const std::string& sql : sqls) {
      SCOPED_TRACE(sql);
      Result<QueryResult> row = db_->Execute(sql);
      Result<QueryResult> col = columnar_db_->Execute(sql);
      ASSERT_EQ(col.status().code(), row.status().code())
          << col.status().ToString() << "\nrow: " << row.status().ToString();
      if (row.ok()) {
        EXPECT_EQ(col->rows_affected, row->rows_affected);
      } else {
        break;
      }
    }
    EXPECT_EQ(Dump(), before);
    CheckDumps();
  }

  void RunSingleTableSelects(int iters, uint64_t seed) {
    Random rng(seed);
    const std::vector<std::string> cols = {"SIMULATION_KEY", "AUTHOR_KEY",
                                           "RE"};
    for (int i = 0; i < iters; ++i) {
      std::string sql = "SELECT ";
      if (rng.OneIn(8)) sql += "DISTINCT ";
      switch (rng.Uniform(3)) {
        case 0:
          sql += "*";
          break;
        case 1:
          sql += cols[rng.Uniform(cols.size())];
          break;
        default:
          sql += "SIMULATION_KEY, TITLE, RE";
      }
      sql += " FROM SIMULATION";
      sql += RandomWhere(rng, cols);
      bool ordered = rng.OneIn(2);
      if (ordered) {
        sql += " ORDER BY " + cols[rng.Uniform(cols.size())];
        if (rng.OneIn(2)) sql += " DESC";
        // Unique tiebreaker keeps the total order engine-independent.
        sql += ", SIMULATION_KEY";
        if (rng.OneIn(3)) {
          sql += " LIMIT " + std::to_string(1 + rng.Uniform(10));
          if (rng.OneIn(2)) {
            sql += " OFFSET " + std::to_string(rng.Uniform(5));
          }
        }
      }
      CheckEquivalent(sql, ordered);
      if (HasFatalFailure() || HasNonfatalFailure()) return;
    }
  }

  void RunJoinSelects(int iters, uint64_t seed) {
    Random rng(seed);
    const std::vector<std::string> cols = {"S.SIMULATION_KEY", "S.RE", "A.AGE",
                                           "A.AUTHOR_KEY"};
    for (int i = 0; i < iters; ++i) {
      std::string sql = "SELECT ";
      switch (rng.Uniform(3)) {
        case 0:
          sql += "*";
          break;
        case 1:
          sql += "A.NAME, S.TITLE";
          break;
        default:
          sql += "S.SIMULATION_KEY, A.AUTHOR_KEY, S.RE";
      }
      if (rng.OneIn(2)) {
        sql += " FROM SIMULATION S JOIN AUTHOR A"
               " ON S.AUTHOR_KEY = A.AUTHOR_KEY";
        sql += RandomWhere(rng, cols);
      } else {
        sql += " FROM SIMULATION S, AUTHOR A";
        sql += " WHERE S.AUTHOR_KEY = A.AUTHOR_KEY";
        sql += RandomWhere(rng, cols, " AND ");
      }
      bool ordered = rng.OneIn(2);
      if (ordered) {
        sql += " ORDER BY " + cols[rng.Uniform(cols.size())];
        if (rng.OneIn(2)) sql += " DESC";
        sql += ", S.SIMULATION_KEY";
        if (rng.OneIn(3)) {
          sql += " LIMIT " + std::to_string(1 + rng.Uniform(12));
        }
      }
      CheckEquivalent(sql, ordered);
      if (HasFatalFailure() || HasNonfatalFailure()) return;
    }
  }

  void RunAggregateSelects(int iters, uint64_t seed) {
    Random rng(seed);
    static const char* kAggs[] = {"COUNT(*)", "SUM(RE)", "MIN(RE)", "MAX(RE)",
                                  "AVG(RE)", "COUNT(AUTHOR_KEY)"};
    const std::vector<std::string> cols = {"SIMULATION_KEY", "AUTHOR_KEY",
                                           "RE"};
    for (int i = 0; i < iters; ++i) {
      std::string sql = "SELECT ";
      bool grouped = rng.OneIn(2);
      if (grouped) sql += "AUTHOR_KEY, ";
      sql += kAggs[rng.Uniform(6)];
      if (rng.OneIn(2)) {
        sql += ", ";
        sql += kAggs[rng.Uniform(6)];
      }
      sql += " FROM SIMULATION";
      // A LIKE conjunct forces the aggregate onto mixed filter shapes: a
      // prefix pattern keeps the columnar fast path via the radix index, a
      // non-pushable one falls back to the row path.
      if (rng.OneIn(3)) {
        sql += " WHERE " + RandomLikePredicate(rng);
        sql += RandomWhere(rng, cols, " AND ");
      } else {
        sql += RandomWhere(rng, cols);
      }
      if (grouped) {
        sql += " GROUP BY AUTHOR_KEY";
        if (rng.OneIn(3)) sql += " HAVING COUNT(*) > 1";
      }
      CheckEquivalent(sql, /*ordered=*/false);
      if (HasFatalFailure() || HasNonfatalFailure()) return;
    }
  }

  void RunPrefixLikeSelects(int iters, uint64_t seed) {
    Random rng(seed);
    const std::vector<std::string> cols = {"SIMULATION_KEY", "AUTHOR_KEY",
                                           "RE"};
    for (int i = 0; i < iters; ++i) {
      std::string sql = "SELECT ";
      switch (rng.Uniform(3)) {
        case 0:
          sql += "*";
          break;
        case 1:
          sql += "TITLE";
          break;
        default:
          sql += "SIMULATION_KEY, TITLE";
      }
      sql += " FROM SIMULATION WHERE " + RandomLikePredicate(rng);
      if (rng.OneIn(3)) sql += " AND " + RandomPredicate(rng, cols);
      if (rng.OneIn(4)) sql += " OR " + RandomLikePredicate(rng);
      bool ordered = rng.OneIn(2);
      if (ordered) {
        sql += " ORDER BY TITLE, SIMULATION_KEY";
        if (rng.OneIn(3)) {
          sql += " LIMIT " + std::to_string(1 + rng.Uniform(10));
        }
      }
      CheckEquivalent(sql, ordered);
      if (HasFatalFailure() || HasNonfatalFailure()) return;
    }
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<Database> columnar_db_;
  repl::ReplicationLog log_;
  std::unique_ptr<repl::ReplicaNode> replica_;
  sim::Network shard_net_ = MakeShardNet();
  shard::ShardCoordinator shard_{&shard_net_, MakeShardOptions()};
};

TEST_F(DifferentialFuzzTest, SingleTableSelects) {
  RunSingleTableSelects(FuzzIters(400), 0x51E7);
}

TEST_F(DifferentialFuzzTest, JoinSelects) {
  RunJoinSelects(FuzzIters(400), 0x70AD);
}

TEST_F(DifferentialFuzzTest, AggregateSelects) {
  RunAggregateSelects(FuzzIters(200), 0xA66E);
}

TEST_F(DifferentialFuzzTest, DmlStatements) {
  // UPDATE/DELETE select their targets through the planner's access paths
  // on every engine; the legacy executor's full-scan SELECT is the oracle
  // for which rows they touch.
  const int iters = FuzzIters(300);
  Random rng(0xD31E);
  for (int i = 0; i < iters; ++i) {
    if (i % 50 == 49) {
      Replenish();
    } else if (rng.OneIn(10)) {
      CheckRolledBackBlock(rng);
    } else {
      CheckDml(RandomDml(rng));
    }
    if (HasFatalFailure() || HasNonfatalFailure()) return;
  }
  // The SELECT checks again, over the churned (migrated, gapped) data.
  RunSingleTableSelects(FuzzIters(400) / 4, 0x51E8);
  if (HasFatalFailure() || HasNonfatalFailure()) return;
  RunJoinSelects(FuzzIters(400) / 4, 0x70AE);
  if (HasFatalFailure() || HasNonfatalFailure()) return;
  RunAggregateSelects(FuzzIters(200) / 4, 0xA66F);
  if (HasFatalFailure() || HasNonfatalFailure()) return;
  RunPrefixLikeSelects(FuzzIters(300) / 4, 0x11CF);
}

TEST_F(DifferentialFuzzTest, NearInt64MaxAggregates) {
  // SUM/AVG accumulation near the INT64 boundary: the row executor, the
  // planner fast path and the columnar aggregation kernel must widen (or
  // saturate) identically, so a sum that would wrap in 64 bits renders
  // the same on all four paths. Seeded values cluster at +/-INT64_MAX so
  // two-element partial sums already overflow, and WHERE clauses compare
  // V with the seeded boundary values themselves.
  ExecBoth(
      "CREATE TABLE EXTREME ("
      " ID INTEGER NOT NULL,"
      " G INTEGER,"
      " V INTEGER,"
      " PRIMARY KEY (ID))");
  Random rng(0xB16);
  static const char* kValues[] = {
      "9223372036854775807",   // INT64_MAX
      "9223372036854775806",   // INT64_MAX - 1
      "-9223372036854775807",  // INT64_MIN + 1
      "-9223372036854775806",
      "4611686018427387904",   // 2^62
      "-4611686018427387904",
      "1",
      "-1",
      "0",
      "NULL"};
  for (int i = 1; i <= 40; ++i) {
    ExecBoth("INSERT INTO EXTREME VALUES (" + std::to_string(i) + ", " +
             std::to_string(rng.Uniform(4)) + ", " +
             kValues[rng.Uniform(10)] + ")");
  }
  static const char* kAggs[] = {"SUM(V)", "AVG(V)", "MIN(V)", "MAX(V)",
                                "COUNT(V)"};
  const int iters = FuzzIters(200);
  for (int i = 0; i < iters; ++i) {
    std::string sql = "SELECT ";
    bool grouped = rng.OneIn(2);
    if (grouped) sql += "G, ";
    sql += kAggs[rng.Uniform(5)];
    if (rng.OneIn(2)) {
      sql += ", ";
      sql += kAggs[rng.Uniform(5)];
    }
    sql += " FROM EXTREME";
    // The boundary comparisons pick out values that share a double with a
    // neighbour, so a filter comparing through double disagrees with the
    // exact row path.
    static const char* kWheres[] = {
        " WHERE V > 0",
        " WHERE V < 0",
        " WHERE V IS NOT NULL",
        " WHERE V > 9223372036854775806",
        " WHERE V = 9223372036854775806",
        " WHERE V < -9223372036854775806",
        " WHERE V >= 4611686018427387904",
        "",  // unfiltered: the full +/-INT64_MAX mix
    };
    sql += kWheres[rng.Uniform(8)];
    if (grouped) sql += " GROUP BY G";
    CheckEquivalent(sql, /*ordered=*/false);
    if (HasFatalFailure() || HasNonfatalFailure()) return;
  }
}

TEST_F(DifferentialFuzzTest, PrefixLikeSelects) {
  RunPrefixLikeSelects(FuzzIters(300), 0x11CE);
}

}  // namespace
}  // namespace easia::db
