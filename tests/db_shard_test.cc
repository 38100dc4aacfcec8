#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/io.h"
#include "db/database.h"
#include "db/executor.h"
#include "db/parser.h"
#include "db/shard/coordinator.h"
#include "db/store/bulk_loader.h"
#include "obs/metrics.h"
#include "sim/network.h"
#include "web/cache.h"
#include "web/server.h"
#include "web/session.h"
#include "web/users.h"
#include "xuis/customize.h"
#include "xuis/generator.h"

namespace easia::db::shard {
namespace {

/// Full-mesh sim network: coordinator "web", shards "s0".."sN-1" and
/// optional replica hosts "s<i>-r1".."s<i>-rK".
sim::Network MakeNet(size_t shards, size_t replicas_per_shard = 0) {
  sim::Network net;
  std::vector<std::string> hosts = {"web"};
  for (size_t i = 0; i < shards; ++i) {
    hosts.push_back("s" + std::to_string(i));
    for (size_t r = 1; r <= replicas_per_shard; ++r) {
      hosts.push_back("s" + std::to_string(i) + "-r" + std::to_string(r));
    }
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

ShardOptions MakeOptions(size_t shards, size_t replicas_per_shard = 0) {
  ShardOptions options;
  options.coordinator_host = "web";
  for (size_t i = 0; i < shards; ++i) {
    options.shard_hosts.push_back("s" + std::to_string(i));
  }
  options.replicas_per_shard = replicas_per_shard;
  return options;
}

std::string Render(const QueryResult& r, bool ordered) {
  std::ostringstream out;
  for (size_t i = 0; i < r.column_names.size(); ++i) {
    out << (i > 0 ? "," : "") << r.column_names[i];
  }
  out << "\n";
  std::vector<std::string> rows;
  for (const Row& row : r.rows) {
    std::string line;
    for (const Value& v : row) line += v.ToDisplayString() + "|";
    rows.push_back(std::move(line));
  }
  if (!ordered) std::sort(rows.begin(), rows.end());
  for (const std::string& line : rows) out << line << "\n";
  return out.str();
}

/// Runs identical SQL against the sharded coordinator and a single-node
/// reference database (the PARTITION clause is routing metadata there),
/// asserting equal outcomes.
class ShardPair {
 public:
  explicit ShardPair(size_t shards, size_t replicas_per_shard = 0)
      : net_(MakeNet(shards, replicas_per_shard)),
        coord_(&net_, MakeOptions(shards, replicas_per_shard)),
        reference_("REF") {}

  void Exec(const std::string& sql) {
    Result<QueryResult> sharded = coord_.Execute(sql);
    Result<QueryResult> single = reference_.Execute(sql);
    ASSERT_EQ(sharded.ok(), single.ok())
        << sql << "\nsharded: " << sharded.status().message()
        << "\nsingle: " << single.status().message();
    if (!sharded.ok()) {
      EXPECT_EQ(sharded.status().message(), single.status().message()) << sql;
    }
  }

  void Check(const std::string& sql, bool ordered = false) {
    Result<QueryResult> sharded = coord_.Execute(sql);
    Result<QueryResult> single = reference_.Execute(sql);
    ASSERT_EQ(sharded.ok(), single.ok())
        << sql << "\nsharded: " << sharded.status().message()
        << "\nsingle: " << single.status().message();
    if (!sharded.ok()) {
      EXPECT_EQ(sharded.status().message(), single.status().message()) << sql;
      return;
    }
    EXPECT_EQ(Render(*sharded, ordered), Render(*single, ordered)) << sql;
  }

  ShardCoordinator& coord() { return coord_; }
  Database& reference() { return reference_; }

 private:
  sim::Network net_;
  ShardCoordinator coord_;
  Database reference_;
};

std::vector<std::string> PlanLines(ShardCoordinator& coord,
                                   const std::string& sql) {
  Result<QueryResult> r = coord.Execute(sql);
  EXPECT_TRUE(r.ok()) << sql << ": " << r.status().message();
  std::vector<std::string> lines;
  if (r.ok()) {
    for (const Row& row : r->rows) lines.push_back(row[0].ToDisplayString());
  }
  return lines;
}

// ---- Routing ----

TEST(ShardRouting, RowsSpreadDeterministically) {
  ShardPair pair(4);
  pair.Exec("CREATE TABLE SIM (ID INTEGER PRIMARY KEY, HOST VARCHAR(16)) "
            "PARTITION BY HASH(ID) PARTITIONS 8");
  for (int i = 0; i < 64; ++i) {
    pair.Exec("INSERT INTO SIM VALUES (" + std::to_string(i) + ", 'h" +
              std::to_string(i % 3) + "')");
  }
  // Every row lives on exactly one shard; all shards hold some rows.
  size_t total = 0;
  std::set<int64_t> seen;
  for (size_t s = 0; s < pair.coord().num_shards(); ++s) {
    Result<const Table*> table = pair.coord().shard_db(s)->GetTable("SIM");
    ASSERT_TRUE(table.ok());
    EXPECT_GT((*table)->RowCount(), 0u) << "shard " << s << " empty";
    total += (*table)->RowCount();
    (*table)->ForEachRow([&](RowId, const Row& row) {
      EXPECT_TRUE(seen.insert(row[0].AsInt()).second)
          << "row " << row[0].AsInt() << " on two shards";
    });
  }
  EXPECT_EQ(total, 64u);

  // An identical coordinator routes identically (hash is deterministic).
  sim::Network net2 = MakeNet(4);
  ShardCoordinator coord2(&net2, MakeOptions(4));
  ASSERT_TRUE(coord2
                  .Execute("CREATE TABLE SIM (ID INTEGER PRIMARY KEY, "
                           "HOST VARCHAR(16)) "
                           "PARTITION BY HASH(ID) PARTITIONS 8")
                  .ok());
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(coord2
                    .Execute("INSERT INTO SIM VALUES (" + std::to_string(i) +
                             ", 'x')")
                    .ok());
  }
  for (size_t s = 0; s < 4; ++s) {
    Result<const Table*> a = pair.coord().shard_db(s)->GetTable("SIM");
    Result<const Table*> b = coord2.shard_db(s)->GetTable("SIM");
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ((*a)->RowCount(), (*b)->RowCount()) << "shard " << s;
  }
}

TEST(ShardRouting, NumericPkHashesConsistentlyAcrossLiteralForms) {
  ShardPair pair(4);
  pair.Exec("CREATE TABLE D (K DOUBLE PRIMARY KEY, V INTEGER) "
            "PARTITION BY HASH(K) PARTITIONS 4");
  pair.Exec("INSERT INTO D VALUES (5, 1)");  // integer literal, double column
  // The row must be findable through a double-literal equality too.
  pair.Check("SELECT V FROM D WHERE K = 5.0");
  pair.Check("SELECT V FROM D WHERE K = 5");
  pair.Exec("INSERT INTO D VALUES (5.0, 2)");  // same key: duplicate
}

TEST(ShardRouting, DuplicatePrimaryKeyAcrossStatements) {
  ShardPair pair(3);
  pair.Exec("CREATE TABLE T (ID INTEGER PRIMARY KEY, V INTEGER) "
            "PARTITION BY HASH(ID) PARTITIONS 3");
  pair.Exec("INSERT INTO T VALUES (1, 10), (2, 20)");
  pair.Exec("INSERT INTO T VALUES (2, 99)");        // duplicate
  pair.Exec("INSERT INTO T VALUES (3, 30), (3, 31)");  // dup inside statement
  pair.Check("SELECT * FROM T ORDER BY ID");
}

TEST(ShardRouting, BroadcastTablesAreIdenticalEverywhere) {
  ShardPair pair(3);
  pair.Exec("CREATE TABLE LOOKUP (ID INTEGER PRIMARY KEY, NAME VARCHAR(8))");
  pair.Exec("INSERT INTO LOOKUP VALUES (1, 'a'), (2, 'b')");
  pair.Exec("UPDATE LOOKUP SET NAME = 'z' WHERE ID = 2");
  for (size_t s = 0; s < 3; ++s) {
    Result<const Table*> table = pair.coord().shard_db(s)->GetTable("LOOKUP");
    ASSERT_TRUE(table.ok());
    EXPECT_EQ((*table)->RowCount(), 2u) << "shard " << s;
  }
  pair.Check("SELECT * FROM LOOKUP ORDER BY ID");
}

// ---- Pruning, proven through EXPLAIN ----

TEST(ShardPruning, EqualityPrunesToOneShard) {
  ShardPair pair(4);
  pair.Exec("CREATE TABLE T (ID INTEGER PRIMARY KEY, V INTEGER) "
            "PARTITION BY HASH(ID) PARTITIONS 4");
  for (int i = 0; i < 32; ++i) {
    pair.Exec("INSERT INTO T VALUES (" + std::to_string(i) + ", " +
              std::to_string(i * 10) + ")");
  }
  std::vector<std::string> lines =
      PlanLines(pair.coord(), "EXPLAIN SELECT V FROM T WHERE ID = 7");
  ASSERT_FALSE(lines.empty());
  EXPECT_NE(lines[0].find("strategy=single"), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("scanned 1 of 4 shards (3 pruned)"),
            std::string::npos)
      << lines[0];
  pair.Check("SELECT V FROM T WHERE ID = 7");
  // A NULL equality matches nothing: every shard prunes.
  ShardCounters before = pair.coord().counters();
  pair.Check("SELECT V FROM T WHERE ID = NULL");
  ShardCounters after = pair.coord().counters();
  EXPECT_EQ(after.scanned_shards - before.scanned_shards, 0u);
  EXPECT_EQ(after.pruned_shards - before.pruned_shards, 4u);
}

TEST(ShardPruning, InListScansOnlyMatchingShards) {
  ShardPair pair(4);
  pair.Exec("CREATE TABLE T (ID INTEGER PRIMARY KEY, V INTEGER) "
            "PARTITION BY HASH(ID) PARTITIONS 4");
  for (int i = 0; i < 32; ++i) {
    pair.Exec("INSERT INTO T VALUES (" + std::to_string(i) + ", " +
              std::to_string(i) + ")");
  }
  std::vector<std::string> lines = PlanLines(
      pair.coord(), "EXPLAIN SELECT COUNT(*) FROM T WHERE ID IN (3, 4)");
  ASSERT_FALSE(lines.empty());
  // At most two shards can hold two keys.
  EXPECT_TRUE(lines[0].find("scanned 1 of 4") != std::string::npos ||
              lines[0].find("scanned 2 of 4") != std::string::npos)
      << lines[0];
  pair.Check("SELECT COUNT(*) FROM T WHERE ID IN (3, 4)");
  pair.Check("SELECT V FROM T WHERE ID IN (3, 4, NULL)");
}

TEST(ShardPruning, RangePrunesFromShardSketches) {
  ShardPair pair(4);
  pair.Exec("CREATE TABLE T (ID INTEGER PRIMARY KEY, V INTEGER) "
            "PARTITION BY HASH(ID) PARTITIONS 4");
  for (int i = 0; i < 64; ++i) {
    pair.Exec("INSERT INTO T VALUES (" + std::to_string(i) + ", " +
              std::to_string(i) + ")");
  }
  // ID > 1000 is beyond every shard's max sketch: all four shards prune.
  std::vector<std::string> lines =
      PlanLines(pair.coord(), "EXPLAIN SELECT * FROM T WHERE ID > 1000");
  ASSERT_FALSE(lines.empty());
  EXPECT_NE(lines[0].find("scanned 0 of 4 shards (4 pruned)"),
            std::string::npos)
      << lines[0];
  pair.Check("SELECT * FROM T WHERE ID > 1000");
  pair.Check("SELECT COUNT(*) FROM T WHERE ID <= 10");
  pair.Check("SELECT COUNT(*) FROM T WHERE 20 < ID");
}

TEST(ShardPruning, AblationKnobScansEverything) {
  sim::Network net = MakeNet(4);
  ShardOptions options = MakeOptions(4);
  options.enable_pruning = false;
  ShardCoordinator coord(&net, options);
  ASSERT_TRUE(coord
                  .Execute("CREATE TABLE T (ID INTEGER PRIMARY KEY, "
                           "V INTEGER) PARTITION BY HASH(ID) PARTITIONS 4")
                  .ok());
  ASSERT_TRUE(coord.Execute("INSERT INTO T VALUES (1, 1), (2, 2)").ok());
  std::vector<std::string> lines =
      PlanLines(coord, "EXPLAIN SELECT V FROM T WHERE ID = 1");
  ASSERT_FALSE(lines.empty());
  EXPECT_NE(lines[0].find("scanned 4 of 4 shards (0 pruned)"),
            std::string::npos)
      << lines[0];
}

TEST(ShardPruning, ExplainAnalyzeReportsPerShardActuals) {
  ShardPair pair(4);
  pair.Exec("CREATE TABLE T (ID INTEGER PRIMARY KEY, G INTEGER, V INTEGER) "
            "PARTITION BY HASH(ID) PARTITIONS 4");
  for (int i = 0; i < 40; ++i) {
    pair.Exec("INSERT INTO T VALUES (" + std::to_string(i) + ", " +
              std::to_string(i % 4) + ", " + std::to_string(i) + ")");
  }
  std::vector<std::string> lines = PlanLines(
      pair.coord(), "EXPLAIN ANALYZE SELECT G, SUM(V) FROM T GROUP BY G");
  ASSERT_FALSE(lines.empty());
  EXPECT_NE(lines[0].find("strategy=scatter"), std::string::npos) << lines[0];
  bool saw_actual = false;
  bool saw_total = false;
  for (const std::string& line : lines) {
    if (line.find("actual rows=") != std::string::npos) saw_actual = true;
    if (line.find("total: 4 rows") != std::string::npos) saw_total = true;
  }
  EXPECT_TRUE(saw_actual);
  EXPECT_TRUE(saw_total);
}

// ---- Scatter/gather merge edge cases ----

TEST(ShardMerge, AggregatesMatchSingleNode) {
  ShardPair pair(4);
  pair.Exec("CREATE TABLE M (ID INTEGER PRIMARY KEY, G INTEGER, V INTEGER, "
            "D DOUBLE, S VARCHAR(8)) "
            "PARTITION BY HASH(ID) PARTITIONS 4");
  for (int i = 0; i < 50; ++i) {
    pair.Exec("INSERT INTO M VALUES (" + std::to_string(i) + ", " +
              std::to_string(i % 5) + ", " + std::to_string(i * 3) + ", " +
              std::to_string(i) + ".5, 's" + std::to_string(i % 7) + "')");
  }
  pair.Check("SELECT COUNT(*) FROM M");
  pair.Check("SELECT G, COUNT(*), SUM(V), MIN(V), MAX(V), AVG(V) FROM M "
             "GROUP BY G ORDER BY G", true);
  pair.Check("SELECT G, SUM(D) FROM M GROUP BY G ORDER BY G", true);
  pair.Check("SELECT G, MIN(S), MAX(S) FROM M GROUP BY G ORDER BY G", true);
  pair.Check("SELECT G, SUM(V) + COUNT(*) FROM M GROUP BY G ORDER BY G", true);
  pair.Check("SELECT G FROM M GROUP BY G HAVING SUM(V) > 300 ORDER BY G",
             true);
  pair.Check("SELECT S, COUNT(*) FROM M WHERE V > 30 GROUP BY S ORDER BY S",
             true);
}

TEST(ShardMerge, NullOnlyGroups) {
  ShardPair pair(4);
  pair.Exec("CREATE TABLE N (ID INTEGER PRIMARY KEY, G INTEGER, V INTEGER) "
            "PARTITION BY HASH(ID) PARTITIONS 4");
  for (int i = 0; i < 12; ++i) {
    // Group 0 holds only NULL values; group 1 mixes NULL and non-NULL.
    std::string v = (i % 2 == 0) ? "NULL" : std::to_string(i);
    std::string g = (i % 2 == 0) ? "0" : "1";
    pair.Exec("INSERT INTO N VALUES (" + std::to_string(i) + ", " + g + ", " +
              v + ")");
  }
  pair.Exec("INSERT INTO N VALUES (100, NULL, NULL)");  // NULL group key
  pair.Check("SELECT G, COUNT(V), SUM(V), MIN(V), AVG(V) FROM N "
             "GROUP BY G ORDER BY G", true);
  pair.Check("SELECT COUNT(V), SUM(V) FROM N WHERE G = 0");
}

TEST(ShardMerge, EmptyShardsAndEmptyTables) {
  ShardPair pair(4);
  pair.Exec("CREATE TABLE E (ID INTEGER PRIMARY KEY, V INTEGER) "
            "PARTITION BY HASH(ID) PARTITIONS 4");
  // Aggregates over an entirely empty table: one synthesized group.
  pair.Check("SELECT COUNT(*), SUM(V), MIN(V) FROM E");
  pair.Check("SELECT V, COUNT(*) FROM E GROUP BY V");
  // One row: three shards stay empty but still participate in scatter.
  pair.Exec("INSERT INTO E VALUES (1, 42)");
  pair.Check("SELECT COUNT(*), SUM(V), AVG(V) FROM E");
  pair.Check("SELECT V, COUNT(*) FROM E GROUP BY V");
}

TEST(ShardMerge, LimitAndOffsetBoundMergedGroups) {
  ShardPair pair(4);
  pair.Exec("CREATE TABLE L (ID INTEGER PRIMARY KEY, G INTEGER, V INTEGER) "
            "PARTITION BY HASH(ID) PARTITIONS 4");
  for (int i = 0; i < 60; ++i) {
    pair.Exec("INSERT INTO L VALUES (" + std::to_string(i) + ", " +
              std::to_string(i % 10) + ", " + std::to_string(i) + ")");
  }
  pair.Check("SELECT G, SUM(V) FROM L GROUP BY G ORDER BY G LIMIT 3", true);
  pair.Check("SELECT G, SUM(V) FROM L GROUP BY G ORDER BY G "
             "LIMIT 4 OFFSET 7", true);
  pair.Check("SELECT G, SUM(V) FROM L GROUP BY G ORDER BY SUM(V) DESC "
             "LIMIT 2", true);
  // Without ORDER BY the group output order is first-encounter order —
  // the sequence map must reproduce it exactly for LIMIT to agree.
  pair.Check("SELECT G, COUNT(*) FROM L GROUP BY G LIMIT 5", true);
}

TEST(ShardMerge, GatherHandlesNonAggregateShapes) {
  ShardPair pair(3);
  pair.Exec("CREATE TABLE G1 (ID INTEGER PRIMARY KEY, V INTEGER, "
            "S VARCHAR(8)) PARTITION BY HASH(ID) PARTITIONS 3");
  for (int i = 0; i < 30; ++i) {
    pair.Exec("INSERT INTO G1 VALUES (" + std::to_string(i) + ", " +
              std::to_string(i % 6) + ", 'v" + std::to_string(i % 4) + "')");
  }
  pair.Check("SELECT DISTINCT V FROM G1");
  pair.Check("SELECT * FROM G1 WHERE V > 2 ORDER BY ID", true);
  pair.Check("SELECT S, V FROM G1 ORDER BY S, V, ID LIMIT 7", true);
  // Insertion order (no ORDER BY + LIMIT) must match the single node.
  pair.Check("SELECT ID FROM G1 LIMIT 10", true);
}

// ---- Cross-shard joins and foreign keys ----

TEST(ShardJoins, CrossShardFkJoinMatchesSingleNode) {
  ShardPair pair(4);
  pair.Exec("CREATE TABLE AUTHOR (AUTHOR_KEY INTEGER PRIMARY KEY, "
            "NAME VARCHAR(16)) PARTITION BY HASH(AUTHOR_KEY) PARTITIONS 4");
  pair.Exec("CREATE TABLE SIMULATION (SIM_KEY INTEGER PRIMARY KEY, "
            "AUTHOR_KEY INTEGER, POINTS INTEGER, "
            "FOREIGN KEY (AUTHOR_KEY) REFERENCES AUTHOR (AUTHOR_KEY)) "
            "PARTITION BY HASH(SIM_KEY) PARTITIONS 4");
  for (int i = 0; i < 8; ++i) {
    pair.Exec("INSERT INTO AUTHOR VALUES (" + std::to_string(i) + ", 'a" +
              std::to_string(i) + "')");
  }
  for (int i = 0; i < 40; ++i) {
    pair.Exec("INSERT INTO SIMULATION VALUES (" + std::to_string(i) + ", " +
              std::to_string(i % 8) + ", " + std::to_string(i * 100) + ")");
  }
  pair.Check("SELECT A.NAME, S.POINTS FROM SIMULATION S "
             "JOIN AUTHOR A ON S.AUTHOR_KEY = A.AUTHOR_KEY "
             "WHERE S.POINTS > 1000 ORDER BY S.SIM_KEY", true);
  pair.Check("SELECT A.NAME, COUNT(*) FROM SIMULATION S "
             "JOIN AUTHOR A ON S.AUTHOR_KEY = A.AUTHOR_KEY "
             "GROUP BY A.NAME ORDER BY A.NAME", true);
  // Legacy (non-planned) executor over the reference tables as a second
  // oracle: materialised nested-loop joins, whole-WHERE filter.
  const std::string join_sql =
      "SELECT A.NAME, S.POINTS FROM SIMULATION S "
      "JOIN AUTHOR A ON S.AUTHOR_KEY = A.AUTHOR_KEY ORDER BY S.SIM_KEY";
  Result<Statement> stmt = ParseSql(join_sql);
  ASSERT_TRUE(stmt.ok());
  Database& reference = pair.reference();
  TableLookup lookup = [&reference](const std::string& name) {
    return reference.GetTable(name);
  };
  ExecuteOptions legacy;
  legacy.use_planner = false;
  Result<QueryResult> naive =
      ExecuteSelect(*stmt->select, lookup, nullptr, legacy);
  Result<QueryResult> sharded = pair.coord().Execute(join_sql);
  ASSERT_TRUE(sharded.ok()) << sharded.status().message();
  ASSERT_TRUE(naive.ok()) << naive.status().message();
  EXPECT_EQ(Render(*sharded, true), Render(*naive, true));
}

TEST(ShardJoins, ColocatedPkJoinPrunesBothSides) {
  ShardPair pair(4);
  pair.Exec("CREATE TABLE A (ID INTEGER PRIMARY KEY, V INTEGER) "
            "PARTITION BY HASH(ID) PARTITIONS 4");
  pair.Exec("CREATE TABLE B (ID INTEGER PRIMARY KEY, W INTEGER) "
            "PARTITION BY HASH(ID) PARTITIONS 4");
  for (int i = 0; i < 20; ++i) {
    pair.Exec("INSERT INTO A VALUES (" + std::to_string(i) + ", " +
              std::to_string(i) + ")");
    pair.Exec("INSERT INTO B VALUES (" + std::to_string(i) + ", " +
              std::to_string(i * 2) + ")");
  }
  // Equality on A's pk propagates through the colocated join to B.
  std::vector<std::string> lines = PlanLines(
      pair.coord(),
      "EXPLAIN SELECT A.V, B.W FROM A JOIN B ON A.ID = B.ID WHERE A.ID = 5");
  ASSERT_FALSE(lines.empty());
  EXPECT_NE(lines[0].find("scanned 1 of 4 shards (3 pruned)"),
            std::string::npos)
      << lines[0];
  pair.Check("SELECT A.V, B.W FROM A JOIN B ON A.ID = B.ID WHERE A.ID = 5");
  pair.Check("SELECT A.V, B.W FROM A JOIN B ON A.ID = B.ID ORDER BY A.ID",
             true);
}

TEST(ShardFk, ViolationsDetectedAcrossShards) {
  ShardPair pair(4);
  pair.Exec("CREATE TABLE P (ID INTEGER PRIMARY KEY, NAME VARCHAR(8)) "
            "PARTITION BY HASH(ID) PARTITIONS 4");
  pair.Exec("CREATE TABLE C (ID INTEGER PRIMARY KEY, P_ID INTEGER, "
            "FOREIGN KEY (P_ID) REFERENCES P (ID)) "
            "PARTITION BY HASH(ID) PARTITIONS 4");
  pair.Exec("INSERT INTO P VALUES (1, 'a'), (2, 'b')");
  pair.Exec("INSERT INTO C VALUES (10, 1)");   // parent on another shard
  pair.Exec("INSERT INTO C VALUES (11, 99)");  // no parent anywhere
  pair.Exec("INSERT INTO C VALUES (12, NULL)");  // NULL FK: allowed
  pair.Exec("DELETE FROM P WHERE ID = 1");     // RESTRICT: child 10 exists
  pair.Exec("DELETE FROM P WHERE ID = 2");     // no children: fine
  pair.Exec("UPDATE C SET P_ID = 2 WHERE ID = 10");  // parent gone
  pair.Check("SELECT * FROM P ORDER BY ID");
  pair.Check("SELECT * FROM C ORDER BY ID");
}

// ---- DML semantics ----

TEST(ShardDml, UpdateMigratesRowsBetweenShards) {
  ShardPair pair(4);
  pair.Exec("CREATE TABLE T (ID INTEGER PRIMARY KEY, V INTEGER) "
            "PARTITION BY HASH(ID) PARTITIONS 4");
  for (int i = 0; i < 20; ++i) {
    pair.Exec("INSERT INTO T VALUES (" + std::to_string(i) + ", " +
              std::to_string(i) + ")");
  }
  uint64_t before = pair.coord().counters().migrations;
  // Shifting every pk by 100 moves most rows to different shards.
  pair.Exec("UPDATE T SET ID = ID + 100 WHERE V < 10");
  EXPECT_GT(pair.coord().counters().migrations, before);
  pair.Check("SELECT * FROM T ORDER BY ID");
  pair.Check("SELECT COUNT(*), SUM(ID) FROM T");
  // Aggregation after migration still matches (order_dirty path).
  pair.Check("SELECT V, COUNT(*) FROM T GROUP BY V LIMIT 5", true);
  // Reassigning onto an existing key is a duplicate.
  pair.Exec("UPDATE T SET ID = 110 WHERE ID = 111");
  // Swap-style chain: 19 -> 20 is fine because 20 is free.
  pair.Exec("UPDATE T SET ID = ID + 1 WHERE ID = 19");
  pair.Check("SELECT * FROM T ORDER BY ID");
}

TEST(ShardDml, MultiRowInsertSplitsAcrossShards) {
  ShardPair pair(4);
  pair.Exec("CREATE TABLE T (ID INTEGER PRIMARY KEY, V VARCHAR(8)) "
            "PARTITION BY HASH(ID) PARTITIONS 4");
  pair.Exec("INSERT INTO T VALUES (1, 'a'), (2, 'b'), (3, 'c'), (4, 'd'), "
            "(5, 'e'), (6, 'f')");
  pair.Check("SELECT * FROM T ORDER BY ID");
  pair.Check("SELECT ID FROM T LIMIT 3", true);  // insertion order preserved
  // A failing row (duplicate) must leave nothing applied.
  pair.Exec("INSERT INTO T VALUES (7, 'g'), (1, 'dup')");
  pair.Check("SELECT * FROM T ORDER BY ID");
}

TEST(ShardDml, SplitInsertCarriesNonFiniteDoubles) {
  // Rows the coordinator splits across shards reach them as typed values,
  // so overflowed, infinite, NaN and negative-zero doubles arrive intact.
  ShardPair pair(4);
  pair.Exec("CREATE TABLE T (ID INTEGER PRIMARY KEY, X DOUBLE) "
            "PARTITION BY HASH(ID) PARTITIONS 4");
  pair.Exec("INSERT INTO T VALUES (1, 1e308 * 10), (2, 0.5), (3, 0.25), "
            "(4, 7)");
  pair.Exec("INSERT INTO T VALUES (5, 'inf'), (6, 'nan'), (7, -0.0), "
            "(8, -1e308 * 10), (9, 0.1)");
  pair.Check("SELECT * FROM T ORDER BY ID", true);
  pair.Check("SELECT ID FROM T", true);  // insertion order preserved
}

TEST(ShardDml, MigratingUpdateKeepsNonFiniteRow) {
  // Moving a row to another shard re-inserts its stored values; an
  // infinite value must neither fail the move nor lose the row.
  ShardPair pair(4);
  pair.Exec("CREATE TABLE T (ID INTEGER PRIMARY KEY, X DOUBLE) "
            "PARTITION BY HASH(ID) PARTITIONS 4");
  pair.Exec("INSERT INTO T VALUES (21, 1e308 * 10)");
  pair.Exec("INSERT INTO T VALUES (22, 2.5)");
  uint64_t before = pair.coord().counters().migrations;
  pair.Exec("UPDATE T SET ID = ID + 100 WHERE ID = 21");
  EXPECT_GT(pair.coord().counters().migrations, before);
  pair.Check("SELECT * FROM T ORDER BY ID", true);
}

TEST(ShardDml, PkAssigningUpdateWritesNonFiniteValues) {
  // A partition-key UPDATE writes each target by primary key (same shard)
  // or as a delete plus insert (other shard); both carry computed
  // infinities.
  ShardPair pair(4);
  pair.Exec("CREATE TABLE T (ID INTEGER PRIMARY KEY, X DOUBLE) "
            "PARTITION BY HASH(ID) PARTITIONS 4");
  pair.Exec("INSERT INTO T VALUES (1, 2), (2, -3), (3, 4.5), (4, 0.5), "
            "(5, -6), (6, 7), (7, 8), (8, 9)");
  pair.Exec("UPDATE T SET ID = ID + 40, X = X * 1e308 * 10 WHERE ID <= 8");
  pair.Check("SELECT * FROM T ORDER BY ID", true);
  pair.Check("SELECT ID, X FROM T", true);
}

TEST(ShardDml, AbortedFanOutUndoesEveryShard) {
  // Shard 1's replica is unreachable, so its writes commit below the ack
  // quorum (kAborted). The statement fails, and no shard primary may keep
  // a row of it: a broadcast table stays identical on every shard, and a
  // split INSERT stays atomic.
  sim::Network net = MakeNet(2, 1);
  ShardOptions options = MakeOptions(2, 1);
  options.repl_options.ack_quorum = 1;
  ShardCoordinator coord(&net, options);
  ASSERT_TRUE(
      coord.Execute("CREATE TABLE B (ID INTEGER PRIMARY KEY, V INTEGER)")
          .ok());
  ASSERT_TRUE(coord
                  .Execute("CREATE TABLE P (ID INTEGER PRIMARY KEY, "
                           "V INTEGER) PARTITION BY HASH(ID) PARTITIONS 2")
                  .ok());
  ASSERT_TRUE(net.SetLinkDown("s1", "s1-r1", true).ok());
  Result<QueryResult> broadcast =
      coord.Execute("INSERT INTO B VALUES (1, 1), (2, 2)");
  ASSERT_FALSE(broadcast.ok());
  EXPECT_EQ(broadcast.status().code(), StatusCode::kAborted);
  Result<QueryResult> split = coord.Execute(
      "INSERT INTO P VALUES (1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (6, 6), "
      "(7, 7), (8, 8)");
  ASSERT_FALSE(split.ok());
  EXPECT_EQ(split.status().code(), StatusCode::kAborted);
  for (size_t s = 0; s < coord.num_shards(); ++s) {
    for (const char* table : {"B", "P"}) {
      Result<const Table*> rows = coord.shard_db(s)->GetTable(table);
      ASSERT_TRUE(rows.ok());
      EXPECT_EQ((*rows)->RowCount(), 0u) << table << " on shard " << s;
    }
  }
  // CREATE TABLE follows the same rule: dropped again on every shard.
  Result<QueryResult> create =
      coord.Execute("CREATE TABLE C (ID INTEGER PRIMARY KEY)");
  ASSERT_FALSE(create.ok());
  EXPECT_EQ(create.status().code(), StatusCode::kAborted);
  for (size_t s = 0; s < coord.num_shards(); ++s) {
    EXPECT_FALSE(coord.shard_db(s)->GetTable("C").ok()) << "shard " << s;
  }
  ASSERT_TRUE(net.SetLinkDown("s1", "s1-r1", false).ok());
}

/// The primary keys of `table`'s rows on shard `s`.
std::set<int64_t> KeysOnShard(ShardCoordinator& coord, size_t s,
                              const std::string& table) {
  std::set<int64_t> keys;
  Result<const Table*> rows = coord.shard_db(s)->GetTable(table);
  EXPECT_TRUE(rows.ok()) << table;
  if (rows.ok()) {
    (*rows)->ForEachRow(
        [&](RowId, const Row& row) { keys.insert(row[0].AsInt()); });
  }
  return keys;
}

TEST(ShardDml, AbortedMoveRestoresTheRow) {
  // A partition-key UPDATE moves a row from shard 0 to shard 1, whose
  // replica is unreachable: the INSERT there commits below quorum. The
  // move is undone on both shards — the row is back under its old key on
  // shard 0 and the new key is on no shard.
  sim::Network net = MakeNet(2, 1);
  ShardOptions options = MakeOptions(2, 1);
  options.repl_options.ack_quorum = 1;
  ShardCoordinator coord(&net, options);
  for (const char* table : {"P", "PROBE"}) {
    ASSERT_TRUE(coord
                    .Execute(std::string("CREATE TABLE ") + table +
                             " (ID INTEGER PRIMARY KEY, V INTEGER) "
                             "PARTITION BY HASH(ID) PARTITIONS 2")
                    .ok());
  }
  ASSERT_TRUE(coord.Execute("INSERT INTO P VALUES (1, 1), (2, 2), (3, 3), "
                            "(4, 4)")
                  .ok());
  // PROBE routes like P, so its rows show which keys shard 1 owns.
  ASSERT_TRUE(coord.Execute("INSERT INTO PROBE VALUES (101, 0), (102, 0), "
                            "(103, 0), (104, 0)")
                  .ok());
  std::set<int64_t> on_shard0 = KeysOnShard(coord, 0, "P");
  std::set<int64_t> shard1_keys = KeysOnShard(coord, 1, "PROBE");
  ASSERT_FALSE(on_shard0.empty());
  ASSERT_FALSE(shard1_keys.empty());
  int64_t from = *on_shard0.begin();
  int64_t to = *shard1_keys.begin();
  ASSERT_TRUE(net.SetLinkDown("s1", "s1-r1", true).ok());
  Result<QueryResult> moved =
      coord.Execute("UPDATE P SET ID = " + std::to_string(to) +
                    " WHERE ID = " + std::to_string(from));
  ASSERT_FALSE(moved.ok());
  EXPECT_EQ(moved.status().code(), StatusCode::kAborted);
  EXPECT_EQ(KeysOnShard(coord, 0, "P"), on_shard0);
  EXPECT_EQ(KeysOnShard(coord, 1, "P").count(to), 0u);
  ASSERT_TRUE(net.SetLinkDown("s1", "s1-r1", false).ok());
}

TEST(ShardDml, BroadcastCopyAppliesEverywhereAndCompensatesOnFailure) {
  sim::Network net = MakeNet(2, 1);
  ShardOptions options = MakeOptions(2, 1);
  options.repl_options.ack_quorum = 1;
  ShardCoordinator coord(&net, options);
  ASSERT_TRUE(
      coord.Execute("CREATE TABLE B (ID INTEGER PRIMARY KEY, V INTEGER)")
          .ok());
  ASSERT_TRUE(coord.Execute("INSERT INTO B VALUES (1, 1)").ok());

  Result<const TableDef*> def = coord.catalog().GetTable("B");
  ASSERT_TRUE(def.ok());
  std::vector<Row> rows;
  for (int i = 10; i < 20; ++i) {
    rows.push_back({Value::Integer(i), Value::Integer(i)});
  }
  std::string path = ::testing::TempDir() + "easia_shard_bcast.ebk";
  ASSERT_TRUE(
      store::WriteBulkFile(io::RealEnv(), path, **def, rows, 4).ok());

  // Happy path: COPY fans out to every shard identically.
  Result<QueryResult> copied = coord.Execute("COPY B FROM '" + path + "'");
  ASSERT_TRUE(copied.ok()) << copied.status().message();
  EXPECT_EQ(copied->rows_affected, 10u);
  for (size_t s = 0; s < coord.num_shards(); ++s) {
    Result<const Table*> table = coord.shard_db(s)->GetTable("B");
    ASSERT_TRUE(table.ok());
    EXPECT_EQ((*table)->RowCount(), 11u) << "shard " << s;
  }

  // Failure mid-fan-out: shard 1's replica is unreachable, so its write
  // commits under quorum (kAborted). The coordinator must compensate —
  // deleting the copied rows from every shard written — instead of
  // leaving the broadcast table divergent across shards.
  std::vector<Row> more;
  for (int i = 30; i < 40; ++i) {
    more.push_back({Value::Integer(i), Value::Integer(i)});
  }
  std::string path2 = ::testing::TempDir() + "easia_shard_bcast2.ebk";
  ASSERT_TRUE(
      store::WriteBulkFile(io::RealEnv(), path2, **def, more, 4).ok());
  ASSERT_TRUE(net.SetLinkDown("s1", "s1-r1", true).ok());
  Result<QueryResult> failed = coord.Execute("COPY B FROM '" + path2 + "'");
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kAborted);
  for (size_t s = 0; s < coord.num_shards(); ++s) {
    Result<const Table*> table = coord.shard_db(s)->GetTable("B");
    ASSERT_TRUE(table.ok());
    EXPECT_EQ((*table)->RowCount(), 11u) << "shard " << s;
  }
  ASSERT_TRUE(net.SetLinkDown("s1", "s1-r1", false).ok());
  Result<QueryResult> count = coord.Execute("SELECT COUNT(*) FROM B");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->rows[0][0].AsInt(), 11);

  // A bad chunk: the first four-row chunk loads, the second repeats key 1,
  // so shard 0 commits chunk 1 before failing with an ordinary error. It
  // must be undone there too, or shard 0 alone would keep rows 50..53.
  std::vector<Row> bad;
  for (int i : {50, 51, 52, 53, 54, 1, 56, 57}) {
    bad.push_back({Value::Integer(i), Value::Integer(i)});
  }
  std::string path3 = ::testing::TempDir() + "easia_shard_bcast3.ebk";
  ASSERT_TRUE(
      store::WriteBulkFile(io::RealEnv(), path3, **def, bad, 4).ok());
  Result<QueryResult> dup = coord.Execute("COPY B FROM '" + path3 + "'");
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kConstraintViolation);
  for (size_t s = 0; s < coord.num_shards(); ++s) {
    Result<const Table*> table = coord.shard_db(s)->GetTable("B");
    ASSERT_TRUE(table.ok());
    EXPECT_EQ((*table)->RowCount(), 11u) << "shard " << s;
  }
  (void)std::remove(path.c_str());
  (void)std::remove(path2.c_str());
  (void)std::remove(path3.c_str());
}

TEST(ShardDml, TransactionsAndPartitionedCopyRejected) {
  sim::Network net = MakeNet(2);
  ShardCoordinator coord(&net, MakeOptions(2));
  ASSERT_TRUE(coord
                  .Execute("CREATE TABLE T (ID INTEGER PRIMARY KEY) "
                           "PARTITION BY HASH(ID) PARTITIONS 2")
                  .ok());
  Result<QueryResult> begin = coord.Execute("BEGIN");
  ASSERT_FALSE(begin.ok());
  EXPECT_EQ(begin.status().code(), StatusCode::kFailedPrecondition);
  Result<QueryResult> copy = coord.Execute("COPY T FROM '/tmp/x.bulk'");
  ASSERT_FALSE(copy.ok());
  EXPECT_EQ(copy.status().code(), StatusCode::kFailedPrecondition);
}

// ---- Replication composition ----

TEST(ShardRepl, ScatterReadsSurviveShardFailover) {
  sim::Network net = MakeNet(3, 2);
  ShardOptions options = MakeOptions(3, 2);
  options.repl_options.ack_quorum = 2;
  ShardCoordinator coord(&net, options);
  ASSERT_TRUE(coord
                  .Execute("CREATE TABLE T (ID INTEGER PRIMARY KEY, "
                           "V INTEGER) PARTITION BY HASH(ID) PARTITIONS 3")
                  .ok());
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(coord
                    .Execute("INSERT INTO T VALUES (" + std::to_string(i) +
                             ", " + std::to_string(i) + ")")
                    .ok());
  }
  Result<QueryResult> before = coord.Execute("SELECT COUNT(*), SUM(V) FROM T");
  ASSERT_TRUE(before.ok());
  // Fail over shard 1's primary; its fully-shipped replica takes over.
  ASSERT_TRUE(coord.repl(1) != nullptr);
  coord.repl(1)->Heartbeat();
  ASSERT_TRUE(coord.repl(1)->ShipAll().ok());
  net.clock().Advance(options.repl_options.heartbeat_timeout_seconds + 1);
  ASSERT_TRUE(coord.repl(1)->PrimaryDown());
  Result<std::string> promoted = coord.repl(1)->MaybeFailover();
  ASSERT_TRUE(promoted.ok()) << promoted.status().message();
  // The sim clock is shared: re-heartbeat the untouched shards so their
  // (live) primaries are not presumed dead too.
  for (size_t s = 0; s < coord.num_shards(); ++s) coord.repl(s)->Heartbeat();
  Result<QueryResult> after = coord.Execute("SELECT COUNT(*), SUM(V) FROM T");
  ASSERT_TRUE(after.ok()) << after.status().message();
  EXPECT_EQ(Render(*before, false), Render(*after, false));
  // Writes keep flowing through the promoted primary.
  ASSERT_TRUE(coord.Execute("INSERT INTO T VALUES (100, 100)").ok());
  Result<QueryResult> count = coord.Execute("SELECT COUNT(*) FROM T");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->rows[0][0].AsInt(), 31);
}

TEST(ShardRepl, CoordinatorReadsFollowPromotedPrimary) {
  sim::Network net = MakeNet(3, 2);
  ShardOptions options = MakeOptions(3, 2);
  options.repl_options.ack_quorum = 2;
  ShardCoordinator coord(&net, options);
  ASSERT_TRUE(coord
                  .Execute("CREATE TABLE T (ID INTEGER PRIMARY KEY, "
                           "V INTEGER) PARTITION BY HASH(ID) PARTITIONS 3")
                  .ok());
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(
        coord.Execute("INSERT INTO T VALUES (" + std::to_string(i) + ", 0)")
            .ok());
  }
  // Fail over shard 0's primary onto a fully-shipped replica.
  ASSERT_TRUE(coord.repl(0) != nullptr);
  coord.repl(0)->Heartbeat();
  ASSERT_TRUE(coord.repl(0)->ShipAll().ok());
  net.clock().Advance(options.repl_options.heartbeat_timeout_seconds + 1);
  ASSERT_TRUE(coord.repl(0)->PrimaryDown());
  ASSERT_TRUE(coord.repl(0)->MaybeFailover().ok());
  for (size_t s = 0; s < coord.num_shards(); ++s) coord.repl(s)->Heartbeat();

  // Rows committed after the failover land on the promoted primary; the
  // coordinator's own reads — duplicate-pk probes, UPDATE target scans,
  // min/max pruning sketches, the web cache validator — must see them
  // there, not on the demoted initial primary.
  uint64_t epoch_before = coord.combined_epoch();
  for (int i = 100; i < 112; ++i) {
    ASSERT_TRUE(
        coord.Execute("INSERT INTO T VALUES (" + std::to_string(i) + ", 1)")
            .ok());
  }
  EXPECT_GT(coord.combined_epoch(), epoch_before);

  // Duplicate-pk probe sees post-failover rows.
  Result<QueryResult> dup = coord.Execute("INSERT INTO T VALUES (105, 2)");
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kConstraintViolation);

  // UPDATE target scan finds post-failover rows (a stale scan would find
  // no target and silently update nothing).
  Result<QueryResult> update =
      coord.Execute("UPDATE T SET V = 9 WHERE ID = 105");
  ASSERT_TRUE(update.ok()) << update.status().message();
  EXPECT_EQ(update->rows_affected, 1u);
  Result<QueryResult> read = coord.Execute("SELECT V FROM T WHERE ID = 105");
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->rows.size(), 1u);
  EXPECT_EQ(read->rows[0][0].AsInt(), 9);

  // Range pruning reads the promoted primary's min/max sketch: shards
  // whose only in-range rows arrived after the failover must not be
  // pruned via the demoted primary's stale sketch.
  Result<QueryResult> count =
      coord.Execute("SELECT COUNT(*) FROM T WHERE ID >= 100");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->rows[0][0].AsInt(), 12);

  // shard_db follows the promotion: summing per-shard rows covers all 24.
  size_t rows = 0;
  for (const ShardInfo& info : coord.shard_info()) {
    rows += info.partitioned_rows;
  }
  EXPECT_EQ(rows, 24u);
}

// ---- Observability ----

TEST(ShardObs, CountersAndMetricsFamilies) {
  ShardPair pair(4);
  pair.Exec("CREATE TABLE T (ID INTEGER PRIMARY KEY, G INTEGER, V INTEGER) "
            "PARTITION BY HASH(ID) PARTITIONS 4");
  for (int i = 0; i < 20; ++i) {
    pair.Exec("INSERT INTO T VALUES (" + std::to_string(i) + ", " +
              std::to_string(i % 2) + ", " + std::to_string(i) + ")");
  }
  pair.Check("SELECT G, SUM(V) FROM T GROUP BY G ORDER BY G", true);  // scatter
  pair.Check("SELECT V FROM T WHERE ID = 3");                // single (pruned)
  pair.Check("SELECT DISTINCT G FROM T");                    // gather
  ShardCounters c = pair.coord().counters();
  EXPECT_GE(c.queries_scatter, 1u);
  EXPECT_GE(c.queries_single, 1u);
  EXPECT_GE(c.queries_gather, 1u);
  EXPECT_GT(c.writes, 0u);
  EXPECT_GT(c.scanned_shards, 0u);
  EXPECT_GT(c.pruned_shards, 0u);

  obs::MetricsRegistry metrics;
  pair.coord().RegisterMetrics(&metrics);
  std::string text = metrics.RenderPrometheusText();
  for (const char* family :
       {"easia_shard_rows", "easia_shard_lag_epochs",
        "easia_shard_queries_total", "easia_shard_scanned_shards_total",
        "easia_shard_pruned_shards_total", "easia_shard_writes_total",
        "easia_shard_migrations_total"}) {
    EXPECT_NE(text.find(family), std::string::npos) << family;
  }
  EXPECT_NE(text.find("easia_shard_queries_total{strategy=\"scatter\"}"),
            std::string::npos)
      << text;

  std::vector<ShardInfo> info = pair.coord().shard_info();
  ASSERT_EQ(info.size(), 4u);
  size_t rows = 0;
  for (const ShardInfo& i : info) rows += i.partitioned_rows;
  EXPECT_EQ(rows, 20u);
}

// ---- Web layer over a sharded backend ----

TEST(ShardWeb, BrowseAndStatsRouteThroughCoordinator) {
  sim::Network net = MakeNet(4);
  ShardCoordinator coord(&net, MakeOptions(4));
  ASSERT_TRUE(coord
                  .Execute("CREATE TABLE STAR (ID INTEGER PRIMARY KEY, "
                           "NAME VARCHAR(32)) "
                           "PARTITION BY HASH(ID) PARTITIONS 4")
                  .ok());
  for (int i = 1; i <= 12; ++i) {
    ASSERT_TRUE(coord
                    .Execute("INSERT INTO STAR VALUES (" + std::to_string(i) +
                             ", 'star" + std::to_string(i) + "')")
                    .ok());
  }

  // Shard 0's catalogue mirror drives XUIS generation unchanged.
  Result<xuis::XuisSpec> spec = xuis::GenerateDefaultXuis(*coord.shard_db(0));
  ASSERT_TRUE(spec.ok()) << spec.status().message();
  xuis::XuisRegistry registry;
  registry.SetDefault(*spec);
  web::UserManager users;
  ManualClock clock(0);
  web::SessionManager sessions(&users, &clock);
  web::RenderCache cache;

  web::ArchiveWebServer::Deps deps;
  deps.database = coord.shard_db(0);
  deps.xuis = &registry;
  deps.users = &users;
  deps.sessions = &sessions;
  deps.cache = &cache;
  deps.shard = &coord;
  web::ArchiveWebServer server(deps);

  web::HttpRequest login;
  login.path = "/login";
  login.params = {{"user", "guest"}, {"password", "guest"}};
  web::HttpResponse resp = server.Handle(login);
  ASSERT_EQ(resp.status, 200) << resp.body;
  std::string session_id = resp.body;

  // /browse by a non-partition-key value: rows live on several shards,
  // but the page shows them all (the query gathers across shards).
  web::HttpRequest browse;
  browse.path = "/browse";
  browse.params = {{"table", "STAR"}, {"column", "NAME"}, {"value", "star7"}};
  browse.session_id = session_id;
  resp = server.Handle(browse);
  ASSERT_EQ(resp.status, 200) << resp.body;
  EXPECT_NE(resp.body.find("star7"), std::string::npos);

  // A write through the coordinator bumps the combined epoch, so the
  // cached page invalidates even when the write landed on another shard.
  web::HttpRequest browse2 = browse;
  resp = server.Handle(browse2);
  ASSERT_EQ(resp.status, 200);
  EXPECT_EQ(cache.stats().hits, 1u);
  ASSERT_TRUE(coord.Execute("UPDATE STAR SET NAME = 'nova7' WHERE ID = 7")
                  .ok());
  resp = server.Handle(browse);
  ASSERT_EQ(resp.status, 200);
  EXPECT_EQ(resp.body.find("star7"), std::string::npos) << resp.body;

  // /stats renders the per-shard table.
  web::HttpRequest stats;
  stats.path = "/stats";
  stats.session_id = session_id;
  resp = server.Handle(stats);
  ASSERT_EQ(resp.status, 200);
  EXPECT_NE(resp.body.find("sharding: 4 shards"), std::string::npos)
      << resp.body;
  EXPECT_NE(resp.body.find("s3"), std::string::npos);
  EXPECT_NE(resp.body.find("partitioned rows"), std::string::npos);
}

/// The author names a guest's /search over SIM shows when AUTHOR_KEY cells
/// substitute AUTHOR.NAME, through a web server over `database` (routed
/// through `shard` when set).
std::set<std::string> SearchedAuthorNames(Database* database,
                                          ShardCoordinator* shard,
                                          const xuis::XuisSpec& spec) {
  xuis::XuisRegistry registry;
  registry.SetDefault(spec);
  web::UserManager users;
  ManualClock clock(0);
  web::SessionManager sessions(&users, &clock);
  web::ArchiveWebServer::Deps deps;
  deps.database = database;
  deps.xuis = &registry;
  deps.users = &users;
  deps.sessions = &sessions;
  deps.shard = shard;
  web::ArchiveWebServer server(deps);
  web::HttpRequest login;
  login.path = "/login";
  login.params = {{"user", "guest"}, {"password", "guest"}};
  web::HttpResponse resp = server.Handle(login);
  EXPECT_EQ(resp.status, 200) << resp.body;
  web::HttpRequest search;
  search.path = "/search";
  search.params = {{"table", "SIM"}, {"all", "1"}};
  search.session_id = resp.body;
  resp = server.Handle(search);
  EXPECT_EQ(resp.status, 200) << resp.body;
  std::set<std::string> names;
  for (int i = 0; i < 8; ++i) {
    std::string name = "writer" + std::to_string(i);
    if (resp.body.find(name) != std::string::npos) names.insert(name);
  }
  return names;
}

TEST(ShardWeb, FkSubstitutionFindsParentsOnEveryShard) {
  ShardPair pair(4);
  pair.Exec("CREATE TABLE AUTHOR (AUTHOR_KEY INTEGER PRIMARY KEY, "
            "NAME VARCHAR(16)) PARTITION BY HASH(AUTHOR_KEY) PARTITIONS 4");
  pair.Exec("CREATE TABLE SIM (SIM_KEY INTEGER PRIMARY KEY, "
            "AUTHOR_KEY INTEGER, "
            "FOREIGN KEY (AUTHOR_KEY) REFERENCES AUTHOR (AUTHOR_KEY)) "
            "PARTITION BY HASH(SIM_KEY) PARTITIONS 4");
  for (int i = 0; i < 8; ++i) {
    pair.Exec("INSERT INTO AUTHOR VALUES (" + std::to_string(i) +
              ", 'writer" + std::to_string(i) + "')");
    pair.Exec("INSERT INTO SIM VALUES (" + std::to_string(100 + i) + ", " +
              std::to_string(i) + ")");
  }
  // One spec for both servers, so only the query path differs.
  Result<xuis::XuisSpec> spec = xuis::GenerateDefaultXuis(pair.reference());
  ASSERT_TRUE(spec.ok()) << spec.status().message();
  ASSERT_TRUE(xuis::XuisCustomizer(&*spec)
                  .SetFkSubstitution("SIM.AUTHOR_KEY", "AUTHOR.NAME")
                  .ok());
  std::set<std::string> single =
      SearchedAuthorNames(&pair.reference(), nullptr, *spec);
  EXPECT_EQ(single.size(), 8u);
  EXPECT_EQ(SearchedAuthorNames(pair.coord().shard_db(0), &pair.coord(), *spec),
            single);
}

}  // namespace
}  // namespace easia::db::shard
