#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "db/database.h"
#include "db/executor.h"
#include "db/parser.h"
#include "db/planner.h"

namespace easia::db {
namespace {

class PlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>("TEST");
    Exec("CREATE TABLE AUTHOR ("
         " AUTHOR_KEY VARCHAR(30) NOT NULL,"
         " NAME VARCHAR(80) NOT NULL,"
         " AGE INTEGER,"
         " PRIMARY KEY (AUTHOR_KEY))");
    Exec("CREATE TABLE SIMULATION ("
         " SIMULATION_KEY VARCHAR(30) NOT NULL,"
         " AUTHOR_KEY VARCHAR(30),"
         " TITLE VARCHAR(200),"
         " RE DOUBLE,"
         " PRIMARY KEY (SIMULATION_KEY),"
         " FOREIGN KEY (AUTHOR_KEY) REFERENCES AUTHOR (AUTHOR_KEY))");
    Exec("CREATE TABLE DATASET ("
         " DATASET_KEY VARCHAR(30) NOT NULL,"
         " SIMULATION_KEY VARCHAR(30),"
         " STEP INTEGER,"
         " SIZE_MB DOUBLE,"
         " PRIMARY KEY (DATASET_KEY),"
         " FOREIGN KEY (SIMULATION_KEY) REFERENCES SIMULATION"
         " (SIMULATION_KEY))");
    Exec("INSERT INTO AUTHOR VALUES ('A1', 'Papiani', 30)");
    Exec("INSERT INTO AUTHOR VALUES ('A2', 'Wason', 28)");
    Exec("INSERT INTO AUTHOR VALUES ('A3', 'Nicole', NULL)");
    Exec("INSERT INTO SIMULATION VALUES ('S1', 'A1', 'Channel flow', 1600)");
    Exec("INSERT INTO SIMULATION VALUES ('S2', 'A1', 'Decaying box', 3200)");
    Exec("INSERT INTO SIMULATION VALUES ('S3', 'A2', 'Shear layer', 800)");
    Exec("INSERT INTO SIMULATION VALUES ('S4', NULL, 'Unattributed', 100)");
    Exec("INSERT INTO DATASET VALUES ('D1', 'S1', 0, 512)");
    Exec("INSERT INTO DATASET VALUES ('D2', 'S1', 1, 512)");
    Exec("INSERT INTO DATASET VALUES ('D3', 'S2', 0, 1024)");
    Exec("INSERT INTO DATASET VALUES ('D4', NULL, 0, 8)");
  }

  QueryResult Exec(const std::string& sql) {
    Result<QueryResult> r = db_->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? *r : QueryResult{};
  }

  /// EXPLAIN output joined to one string for substring assertions.
  std::string Plan(const std::string& select_sql) {
    QueryResult r = Exec("EXPLAIN " + select_sql);
    EXPECT_EQ(r.column_names, std::vector<std::string>{"PLAN"});
    std::string joined;
    for (const Row& row : r.rows) {
      joined += row[0].AsString();
      joined += "\n";
    }
    return joined;
  }

  /// Runs `select_sql` through both the planner and the legacy executor and
  /// expects identical result tables (names, order, and every cell).
  void ExpectEquivalent(const std::string& select_sql) {
    Result<Statement> stmt = ParseSql(select_sql);
    ASSERT_TRUE(stmt.ok()) << select_sql << " -> "
                           << stmt.status().ToString();
    ASSERT_EQ(stmt->kind, Statement::Kind::kSelect);
    TableLookup lookup = [this](const std::string& name) {
      return db_->GetTable(name);
    };
    Result<QueryResult> planned =
        ExecuteSelect(*stmt->select, lookup, nullptr, {true});
    Result<QueryResult> naive =
        ExecuteSelect(*stmt->select, lookup, nullptr, {false});
    ASSERT_EQ(planned.ok(), naive.ok())
        << select_sql << "\nplanned: " << planned.status().ToString()
        << "\nnaive:   " << naive.status().ToString();
    if (!planned.ok()) return;
    EXPECT_EQ(planned->column_names, naive->column_names) << select_sql;
    ASSERT_EQ(planned->rows.size(), naive->rows.size()) << select_sql;
    for (size_t r = 0; r < naive->rows.size(); ++r) {
      for (size_t c = 0; c < naive->rows[r].size(); ++c) {
        EXPECT_EQ(planned->rows[r][c].ToDisplayString(),
                  naive->rows[r][c].ToDisplayString())
            << select_sql << " row " << r << " col " << c;
      }
    }
  }

  std::unique_ptr<Database> db_;
};

// --- Plan shape via EXPLAIN ---

TEST_F(PlannerTest, ExplainShowsPushdownAndHashJoin) {
  std::string plan = Plan(
      "SELECT * FROM SIMULATION S, DATASET D"
      " WHERE S.SIMULATION_KEY = D.SIMULATION_KEY AND S.RE > 1000");
  EXPECT_NE(plan.find("pushed: (S.RE>1000)"), std::string::npos) << plan;
  EXPECT_NE(plan.find(
                "hash join on (S.SIMULATION_KEY = D.SIMULATION_KEY)"),
            std::string::npos)
      << plan;
}

TEST_F(PlannerTest, ExplainHashJoinFromOnCondition) {
  std::string plan = Plan(
      "SELECT * FROM SIMULATION S JOIN DATASET D"
      " ON S.SIMULATION_KEY = D.SIMULATION_KEY");
  EXPECT_NE(plan.find("hash join on"), std::string::npos) << plan;
}

TEST_F(PlannerTest, ExplainUniqueLookupOnNonFirstTable) {
  std::string plan = Plan(
      "SELECT * FROM DATASET D JOIN SIMULATION S"
      " ON D.SIMULATION_KEY = S.SIMULATION_KEY"
      " WHERE S.SIMULATION_KEY = 'S1'");
  EXPECT_NE(plan.find(
                "scan SIMULATION AS S: unique lookup via (SIMULATION_KEY)"),
            std::string::npos)
      << plan;
}

TEST_F(PlannerTest, ExplainSecondaryIndexOnForeignKey) {
  std::string plan = Plan("SELECT * FROM SIMULATION WHERE AUTHOR_KEY = 'A1'");
  EXPECT_NE(plan.find("index scan via (AUTHOR_KEY)"), std::string::npos)
      << plan;
}

TEST_F(PlannerTest, ExplainLimitShortCircuit) {
  std::string plan = Plan("SELECT * FROM DATASET LIMIT 2");
  EXPECT_NE(plan.find("limit short-circuit: 2"), std::string::npos) << plan;
  // ORDER BY must see every row, so no cutoff.
  plan = Plan("SELECT * FROM DATASET ORDER BY SIZE_MB LIMIT 2");
  EXPECT_EQ(plan.find("limit short-circuit"), std::string::npos) << plan;
  // Aggregates consume all rows too.
  plan = Plan("SELECT COUNT(*) FROM DATASET LIMIT 2");
  EXPECT_EQ(plan.find("limit short-circuit"), std::string::npos) << plan;
}

TEST_F(PlannerTest, ExplainNestedLoopForNonEquiJoin) {
  std::string plan = Plan(
      "SELECT * FROM SIMULATION S JOIN DATASET D ON S.RE > D.SIZE_MB");
  EXPECT_NE(plan.find("nested loop"), std::string::npos) << plan;
  EXPECT_EQ(plan.find("hash join"), std::string::npos) << plan;
}

TEST_F(PlannerTest, ExplainSeqScanWithoutIndexablePredicate) {
  std::string plan = Plan("SELECT * FROM SIMULATION WHERE RE > 100");
  EXPECT_NE(plan.find("scan SIMULATION AS SIMULATION: seq scan"),
            std::string::npos)
      << plan;
}

TEST_F(PlannerTest, ExplainRejectsUnknownTable) {
  Result<QueryResult> r = db_->Execute("EXPLAIN SELECT * FROM NOPE");
  EXPECT_FALSE(r.ok());
}

// --- Planned execution matches the legacy executor ---

TEST_F(PlannerTest, EquivalenceOnHandwrittenQueries) {
  const char* queries[] = {
      "SELECT * FROM AUTHOR",
      "SELECT * FROM SIMULATION WHERE AUTHOR_KEY = 'A1'",
      "SELECT * FROM SIMULATION WHERE SIMULATION_KEY = 'S2'",
      "SELECT * FROM SIMULATION WHERE SIMULATION_KEY = 'S2' AND RE > 10000",
      // Conflicting equalities on the same indexed column.
      "SELECT * FROM SIMULATION WHERE SIMULATION_KEY = 'S1'"
      " AND SIMULATION_KEY = 'S2'",
      // Equi-join via WHERE over a comma join.
      "SELECT S.TITLE, D.DATASET_KEY FROM SIMULATION S, DATASET D"
      " WHERE S.SIMULATION_KEY = D.SIMULATION_KEY",
      // Equi-join via ON plus pushed filters on both sides.
      "SELECT * FROM SIMULATION S JOIN DATASET D"
      " ON S.SIMULATION_KEY = D.SIMULATION_KEY"
      " WHERE S.RE >= 800 AND D.STEP = 0",
      // Three-way join.
      "SELECT A.NAME, S.TITLE, D.DATASET_KEY FROM AUTHOR A"
      " JOIN SIMULATION S ON A.AUTHOR_KEY = S.AUTHOR_KEY"
      " JOIN DATASET D ON S.SIMULATION_KEY = D.SIMULATION_KEY",
      // NULL join keys must not match.
      "SELECT * FROM SIMULATION S, DATASET D"
      " WHERE S.SIMULATION_KEY = D.SIMULATION_KEY OR D.DATASET_KEY = 'D4'",
      // Non-equi join condition.
      "SELECT * FROM SIMULATION S JOIN DATASET D ON S.RE > D.SIZE_MB",
      // Mixed type equality (double column against integer literal).
      "SELECT * FROM SIMULATION WHERE RE = 1600",
      // Mixed-kind hash-join candidate (numeric vs string) must stay
      // correct via the nested-loop fallback.
      "SELECT * FROM SIMULATION S, DATASET D WHERE S.TITLE = D.STEP",
      // LIMIT/OFFSET with and without ORDER BY.
      "SELECT * FROM DATASET LIMIT 2",
      "SELECT * FROM DATASET LIMIT 2 OFFSET 1",
      "SELECT * FROM DATASET ORDER BY SIZE_MB DESC LIMIT 2",
      "SELECT S.SIMULATION_KEY FROM SIMULATION S, DATASET D"
      " WHERE S.SIMULATION_KEY = D.SIMULATION_KEY LIMIT 1",
      // Aggregates and grouping on top of a join.
      "SELECT S.AUTHOR_KEY, COUNT(*) FROM SIMULATION S, DATASET D"
      " WHERE S.SIMULATION_KEY = D.SIMULATION_KEY GROUP BY S.AUTHOR_KEY",
      "SELECT DISTINCT AUTHOR_KEY FROM SIMULATION",
      // IS NULL pushdown.
      "SELECT * FROM SIMULATION WHERE AUTHOR_KEY IS NULL",
      // Constant predicate.
      "SELECT * FROM SIMULATION WHERE 1 = 1",
      "SELECT * FROM SIMULATION WHERE 1 = 0",
  };
  for (const char* q : queries) ExpectEquivalent(q);
}

TEST_F(PlannerTest, EquivalenceOnRandomizedCatalogue) {
  // Grow a catalogue with deterministic pseudo-random rows (some NULLs,
  // duplicate FK values) and check a battery of query shapes both ways.
  std::mt19937 rng(20260806);
  Exec("CREATE TABLE RUN ("
       " RUN_KEY INTEGER NOT NULL,"
       " SIMULATION_KEY VARCHAR(30),"
       " STEPS INTEGER,"
       " COST DOUBLE,"
       " PRIMARY KEY (RUN_KEY),"
       " FOREIGN KEY (SIMULATION_KEY) REFERENCES SIMULATION"
       " (SIMULATION_KEY))");
  const char* sims[] = {"'S1'", "'S2'", "'S3'", "'S4'", "NULL"};
  for (int i = 0; i < 200; ++i) {
    std::string sim = sims[rng() % 5];
    int steps = static_cast<int>(rng() % 40);
    std::string cost = (rng() % 7 == 0)
                           ? "NULL"
                           : std::to_string((rng() % 10000) / 10.0);
    Exec("INSERT INTO RUN VALUES (" + std::to_string(i) + ", " + sim + ", " +
         std::to_string(steps) + ", " + cost + ")");
  }
  const char* shapes[] = {
      "SELECT * FROM RUN WHERE SIMULATION_KEY = 'S%d'",
      "SELECT * FROM RUN WHERE RUN_KEY = %d",
      "SELECT * FROM RUN WHERE STEPS = %d AND COST > 100",
      "SELECT R.RUN_KEY, S.TITLE FROM RUN R, SIMULATION S"
      " WHERE R.SIMULATION_KEY = S.SIMULATION_KEY AND R.STEPS > %d",
      "SELECT S.SIMULATION_KEY, COUNT(*) FROM SIMULATION S JOIN RUN R"
      " ON S.SIMULATION_KEY = R.SIMULATION_KEY"
      " WHERE R.STEPS < %d GROUP BY S.SIMULATION_KEY",
      "SELECT * FROM RUN WHERE STEPS > %d LIMIT 5",
      "SELECT * FROM RUN R JOIN SIMULATION S"
      " ON R.SIMULATION_KEY = S.SIMULATION_KEY"
      " WHERE S.RE > %d ORDER BY R.RUN_KEY LIMIT 7",
  };
  for (const char* shape : shapes) {
    for (int trial = 0; trial < 5; ++trial) {
      char sql[512];
      std::snprintf(sql, sizeof(sql), shape,
                    static_cast<int>(rng() % 40));
      ExpectEquivalent(sql);
    }
  }
}

TEST_F(PlannerTest, SecondaryIndexMaintainedAcrossDml) {
  // The FK index must follow UPDATE/DELETE, not just INSERT.
  Exec("UPDATE DATASET SET SIMULATION_KEY = 'S3' WHERE DATASET_KEY = 'D3'");
  QueryResult r =
      Exec("SELECT DATASET_KEY FROM DATASET WHERE SIMULATION_KEY = 'S3'");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsString(), "D3");
  Exec("DELETE FROM DATASET WHERE DATASET_KEY = 'D3'");
  r = Exec("SELECT DATASET_KEY FROM DATASET WHERE SIMULATION_KEY = 'S3'");
  EXPECT_EQ(r.rows.size(), 0u);
  ExpectEquivalent("SELECT * FROM DATASET WHERE SIMULATION_KEY = 'S1'");
}

TEST_F(PlannerTest, LimitShortCircuitReturnsCorrectRows) {
  QueryResult r = Exec("SELECT DATASET_KEY FROM DATASET LIMIT 2");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsString(), "D1");
  EXPECT_EQ(r.rows[1][0].AsString(), "D2");
  r = Exec("SELECT DATASET_KEY FROM DATASET LIMIT 2 OFFSET 3");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsString(), "D4");
}

// --- UPDATE/DELETE target selection (SelectDmlTargets) ---

/// The same catalogue as a row store and as a columnar table (the bool
/// parameter): RESULT has a composite primary key and an FK secondary
/// index on SIM_KEY; the columnar twin adds radix indexes on its VARCHAR
/// columns. Both take the filter kernel.
class DmlTargetTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>("DML");
    std::string layout = GetParam() ? " STORE COLUMNAR" : "";
    Exec("CREATE TABLE SIM (SIM_KEY INTEGER NOT NULL, TITLE VARCHAR(40),"
         " PRIMARY KEY (SIM_KEY))" + layout);
    Exec("CREATE TABLE RESULT (FILE_NAME VARCHAR(40) NOT NULL,"
         " SIM_KEY INTEGER NOT NULL, MEASUREMENT VARCHAR(30), SIZE_MB DOUBLE,"
         " PRIMARY KEY (FILE_NAME, SIM_KEY),"
         " FOREIGN KEY (SIM_KEY) REFERENCES SIM (SIM_KEY))" + layout);
    for (int s = 1; s <= 4; ++s) {
      Exec("INSERT INTO SIM VALUES (" + std::to_string(s) + ", 'sim')");
    }
    const char* kinds[] = {"pressure", "velocity", "vorticity"};
    for (int i = 0; i < 60; ++i) {
      std::string size = i % 9 == 0 ? "NULL" : std::to_string(i * 1.5);
      Exec("INSERT INTO RESULT VALUES ('f" + std::to_string(i % 20) + "', " +
           std::to_string(1 + i / 20) + ", '" + kinds[i % 3] + "', " + size +
           ")");
    }
    // Churn so RowIds have gaps and index entries were moved.
    Exec("DELETE FROM RESULT WHERE FILE_NAME = 'f5'");
    Exec("UPDATE RESULT SET SIM_KEY = 4"
         " WHERE FILE_NAME = 'f7' AND SIM_KEY = 1");
  }

  void Exec(const std::string& sql) {
    Result<QueryResult> r = db_->Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  }

  /// Selects the targets of `DELETE FROM RESULT WHERE <where>`, checks them
  /// against a naive full scan (same RowIds, same order) and returns the
  /// chosen access path.
  ScanPlan::Access Targets(const std::string& where, bool* kernel = nullptr) {
    SCOPED_TRACE(where);
    Result<Statement> stmt = ParseSql("DELETE FROM RESULT WHERE " + where);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    const Table* table = *db_->GetTable("RESULT");
    const Expr& expr = *stmt->del->where;
    std::vector<ColumnBinding> schema = TableSchema(table->def(), "RESULT");
    std::vector<RowId> naive;
    table->ForEachRow([&](RowId id, const Row& row) {
      EvalEnv env{&schema, &row};
      Result<Value> v = EvalExpr(expr, env);
      ASSERT_TRUE(v.ok()) << v.status().ToString();
      if (IsTruthy(*v)) naive.push_back(id);
    });
    Result<DmlTargets> targets = SelectDmlTargets(*table, &expr);
    EXPECT_TRUE(targets.ok()) << targets.status().ToString();
    if (!targets.ok()) return ScanPlan::Access::kSeqScan;
    EXPECT_EQ(targets->row_ids, naive);
    EXPECT_TRUE(std::is_sorted(targets->row_ids.begin(),
                               targets->row_ids.end()));
    if (kernel != nullptr) *kernel = targets->scan.kernel_filter;
    return targets->scan.access;
  }

  std::unique_ptr<Database> db_;
};

TEST_P(DmlTargetTest, FullPrimaryKeyTakesTheUniqueLookup) {
  EXPECT_EQ(Targets("FILE_NAME = 'f3' AND SIM_KEY = 2"),
            ScanPlan::Access::kUniqueLookup);
  EXPECT_EQ(Targets("SIM_KEY = 2 AND FILE_NAME = 'f3'"),
            ScanPlan::Access::kUniqueLookup);
  // Extra conjuncts are still evaluated on the looked-up row.
  EXPECT_EQ(Targets("SIM_KEY = 2 AND FILE_NAME = 'f3' AND SIZE_MB < 0"),
            ScanPlan::Access::kUniqueLookup);
  EXPECT_EQ(Targets("FILE_NAME = 'nope' AND SIM_KEY = 2"),
            ScanPlan::Access::kUniqueLookup);
}

TEST_P(DmlTargetTest, ForeignKeyEqualityTakesTheSecondaryIndex) {
  EXPECT_EQ(Targets("SIM_KEY = 4"), ScanPlan::Access::kIndexScan);
  EXPECT_EQ(Targets("SIM_KEY = 1 AND MEASUREMENT = 'velocity'"),
            ScanPlan::Access::kIndexScan);
}

TEST_P(DmlTargetTest, ColumnarPrefixAndRangeUseRadixAndKernel) {
  bool prefix_kernel = false;
  bool range_kernel = false;
  bool null_kernel = false;
  ScanPlan::Access prefix = Targets("MEASUREMENT LIKE 'p%'", &prefix_kernel);
  ScanPlan::Access range =
      Targets("SIZE_MB > 30 AND SIZE_MB <= 60", &range_kernel);
  // Only the columnar twin has a radix index for the prefix; on the row
  // store the filter kernel runs it. Range and IS NULL take the kernel on
  // both layouts.
  EXPECT_EQ(prefix, GetParam() ? ScanPlan::Access::kPrefixScan
                               : ScanPlan::Access::kSeqScan);
  EXPECT_EQ(prefix_kernel, !GetParam());
  EXPECT_EQ(range, ScanPlan::Access::kSeqScan);
  EXPECT_TRUE(range_kernel);
  EXPECT_EQ(Targets("SIZE_MB IS NULL", &null_kernel),
            ScanPlan::Access::kSeqScan);
  EXPECT_TRUE(null_kernel);
}

TEST_P(DmlTargetTest, OrAndMissingWhereScan) {
  bool kernel = true;
  EXPECT_EQ(Targets("SIM_KEY = 1 OR SIM_KEY = 3", &kernel),
            ScanPlan::Access::kSeqScan);
  EXPECT_FALSE(kernel);
  const Table* table = *db_->GetTable("RESULT");
  Result<DmlTargets> all = SelectDmlTargets(*table, nullptr);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->scan.access, ScanPlan::Access::kSeqScan);
  EXPECT_EQ(all->row_ids.size(), table->RowCount());
}

TEST_P(DmlTargetTest, UnresolvedColumnKeepsTheFullScan) {
  // With the key conjuncts alone the index finds no candidate and would
  // never evaluate the bad reference; the full scan reports it on the
  // first row, as the unplanned UPDATE/DELETE always did.
  const Table* table = *db_->GetTable("RESULT");
  std::vector<ColumnBinding> schema = TableSchema(table->def(), "RESULT");
  for (const char* where :
       {"FILE_NAME = 'nope' AND SIM_KEY = 2 AND NOPE = 1",
        "SIM_KEY = 99 AND OTHER.SIM_KEY = 1"}) {
    SCOPED_TRACE(where);
    std::string sql = std::string("DELETE FROM RESULT WHERE ") + where;
    Result<Statement> stmt = ParseSql(sql);
    ASSERT_TRUE(stmt.ok());
    const Expr& expr = *stmt->del->where;
    Status first_error = Status::OK();
    table->ForEachRow([&](RowId, const Row& row) {
      EvalEnv env{&schema, &row};
      Result<Value> v = EvalExpr(expr, env);
      if (first_error.ok() && !v.ok()) first_error = v.status();
    });
    ASSERT_FALSE(first_error.ok());
    Result<DmlTargets> targets = SelectDmlTargets(*table, &expr);
    ASSERT_FALSE(targets.ok());
    EXPECT_EQ(targets.status().ToString(), first_error.ToString());
    EXPECT_EQ(db_->Execute(sql).status().ToString(), first_error.ToString());
  }
}

TEST_P(DmlTargetTest, RestrictProbeKeepsEqualitySemantics) {
  const Table* result = *db_->GetTable("RESULT");
  size_t sim_key = *result->def().ColumnIndex("SIM_KEY");
  EXPECT_TRUE(result->AnyRowWithValue(sim_key, Value::Integer(4)));
  // Numeric family: a DOUBLE probe coerces to the INTEGER column.
  EXPECT_TRUE(result->AnyRowWithValue(sim_key, Value::Double(2.0)));
  EXPECT_FALSE(result->AnyRowWithValue(sim_key, Value::Double(2.5)));
  EXPECT_FALSE(result->AnyRowWithValue(sim_key, Value::Integer(9)));
  EXPECT_FALSE(result->AnyRowWithValue(sim_key, Value::Null()));
  // Mixed families compare by display form: scanned, still exact.
  EXPECT_TRUE(result->AnyRowWithValue(sim_key, Value::Varchar("3")));
  EXPECT_FALSE(result->AnyRowWithValue(sim_key, Value::Varchar("03")));
  // `accept` filters index hits: every SIM_KEY = 2 row is excluded.
  EXPECT_FALSE(result->AnyRowWithValue(
      sim_key, Value::Integer(2),
      [](const Row& row) { return row[1].AsInt() != 2; }));
  // RESTRICT refuses the parent delete until its children are gone.
  Result<QueryResult> refused =
      db_->Execute("DELETE FROM SIM WHERE SIM_KEY = 4");
  ASSERT_FALSE(refused.ok());
  EXPECT_NE(refused.status().message().find("RESTRICT"), std::string::npos);
  Exec("DELETE FROM RESULT WHERE SIM_KEY = 4");
  Exec("DELETE FROM SIM WHERE SIM_KEY = 4");
}

INSTANTIATE_TEST_SUITE_P(Layouts, DmlTargetTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Columnar" : "RowStore";
                         });

}  // namespace
}  // namespace easia::db
