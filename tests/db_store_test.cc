#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/io.h"
#include "common/string_util.h"
#include "db/database.h"
#include "db/executor.h"
#include "db/parser.h"
#include "db/planner.h"
#include "db/store/bulk_loader.h"
#include "db/store/column_page.h"
#include "db/store/radix_index.h"

namespace easia::db {
namespace {

// ---------------------------------------------------------------------------
// Radix prefix index
// ---------------------------------------------------------------------------

TEST(RadixIndexTest, PrefixLookupAscendingRowIds) {
  store::RadixIndex idx;
  idx.Insert("NGC1275", 3);
  idx.Insert("NGC1275", 1);  // duplicate key, second row
  idx.Insert("NGC224", 2);
  idx.Insert("M31", 4);
  idx.Insert("NGC1", 5);

  EXPECT_EQ(idx.PrefixRowIds("NGC"), (std::vector<uint64_t>{1, 2, 3, 5}));
  EXPECT_EQ(idx.PrefixRowIds("NGC1"), (std::vector<uint64_t>{1, 3, 5}));
  EXPECT_EQ(idx.PrefixRowIds("NGC1275"), (std::vector<uint64_t>{1, 3}));
  EXPECT_EQ(idx.PrefixRowIds("M"), (std::vector<uint64_t>{4}));
  EXPECT_TRUE(idx.PrefixRowIds("X").empty());
  EXPECT_TRUE(idx.PrefixRowIds("NGC12755").empty());
  // Empty prefix enumerates everything.
  EXPECT_EQ(idx.PrefixRowIds("").size(), 5u);
}

TEST(RadixIndexTest, PrefixValuesLexicographicWithLimit) {
  store::RadixIndex idx;
  idx.Insert("carbon", 1);
  idx.Insert("calcium", 2);
  idx.Insert("cadmium", 3);
  idx.Insert("argon", 4);
  idx.Insert("carbon", 5);  // duplicate value: reported once

  EXPECT_EQ(idx.PrefixValues("ca", 0),
            (std::vector<std::string>{"cadmium", "calcium", "carbon"}));
  EXPECT_EQ(idx.PrefixValues("ca", 2),
            (std::vector<std::string>{"cadmium", "calcium"}));
  EXPECT_EQ(idx.PrefixValues("", 0).size(), 4u);
}

TEST(RadixIndexTest, RemovePrunesAndRecompresses) {
  store::RadixIndex idx;
  const size_t baseline_nodes = idx.GetStats().nodes;
  for (uint64_t i = 0; i < 64; ++i) {
    idx.Insert("key" + std::to_string(i), i);
  }
  EXPECT_EQ(idx.entries(), 64u);
  EXPECT_GT(idx.GetStats().nodes, baseline_nodes);

  for (uint64_t i = 0; i < 64; ++i) {
    idx.Remove("key" + std::to_string(i), i);
  }
  EXPECT_EQ(idx.entries(), 0u);
  EXPECT_TRUE(idx.PrefixRowIds("").empty());
  // Emptied leaves are pruned: the trie shrinks back to its root.
  EXPECT_EQ(idx.GetStats().nodes, baseline_nodes);

  // Removing an absent pair is a no-op.
  idx.Insert("abc", 1);
  idx.Remove("abc", 99);
  idx.Remove("abd", 1);
  EXPECT_EQ(idx.PrefixRowIds("abc"), (std::vector<uint64_t>{1}));
}

TEST(RadixIndexTest, SplitEdgeKeepsBothValues) {
  store::RadixIndex idx;
  idx.Insert("stream", 1);
  idx.Insert("strong", 2);  // splits the "str" edge
  idx.Insert("str", 3);     // value ends exactly at the split point
  EXPECT_EQ(idx.PrefixRowIds("str"), (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_EQ(idx.PrefixRowIds("stre"), (std::vector<uint64_t>{1}));
  EXPECT_EQ(idx.PrefixValues("str", 0),
            (std::vector<std::string>{"str", "stream", "strong"}));
}

// ---------------------------------------------------------------------------
// Columnar pages
// ---------------------------------------------------------------------------

ColumnDef MakeColumn(const char* name, DataType type) {
  ColumnDef col;
  col.name = name;
  col.type = type;
  return col;
}

TableDef CatalogDef() {
  TableDef def;
  def.name = "OBJ";
  def.columns = {MakeColumn("ID", DataType::kInteger),
                 MakeColumn("NAME", DataType::kVarchar),
                 MakeColumn("MAG", DataType::kDouble)};
  def.primary_key = {"ID"};
  return def;
}

Row CatalogRow(int64_t id, const char* name, double mag) {
  return {Value::Integer(id), Value::Varchar(name), Value::Double(mag)};
}

TEST(ColumnStoreTest, AppendGetUpdateDelete) {
  TableDef def = CatalogDef();
  store::ColumnStore cs(def);
  ASSERT_TRUE(cs.Append(1, CatalogRow(1, "M31", 3.4)).ok());
  ASSERT_TRUE(cs.Append(2, CatalogRow(2, "M33", 5.7)).ok());
  ASSERT_TRUE(
      cs.Append(3, {Value::Integer(3), Value::Null(), Value::Null()}).ok());
  EXPECT_EQ(cs.LiveRows(), 3u);

  Result<Row> got = cs.Get(2);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ((*got)[1].AsString(), "M33");
  EXPECT_DOUBLE_EQ((*got)[2].AsDouble(), 5.7);

  got = cs.Get(3);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE((*got)[1].is_null());

  ASSERT_TRUE(cs.Update(2, CatalogRow(2, "Triangulum", 5.72)).ok());
  got = cs.Get(2);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ((*got)[1].AsString(), "Triangulum");

  ASSERT_TRUE(cs.Delete(1).ok());
  EXPECT_EQ(cs.LiveRows(), 2u);
  EXPECT_FALSE(cs.Get(1).ok());
  EXPECT_FALSE(cs.Contains(1));
  EXPECT_FALSE(cs.Delete(1).ok());
  EXPECT_FALSE(cs.Update(99, CatalogRow(99, "x", 0)).ok());
}

TEST(ColumnStoreTest, ForEachRowAscendingAfterOutOfOrderAppend) {
  TableDef def = CatalogDef();
  store::ColumnStore cs(def);
  // WAL replay can append out of RowId order; scans must still be sorted.
  ASSERT_TRUE(cs.Append(5, CatalogRow(5, "e", 1)).ok());
  ASSERT_TRUE(cs.Append(2, CatalogRow(2, "b", 2)).ok());
  ASSERT_TRUE(cs.Append(9, CatalogRow(9, "i", 3)).ok());
  std::vector<RowId> seen;
  cs.ForEachRow([&](RowId id, const Row&) { seen.push_back(id); });
  EXPECT_EQ(seen, (std::vector<RowId>{2, 5, 9}));
  EXPECT_EQ(cs.FilterScan({}), (std::vector<RowId>{2, 5, 9}));
}

TEST(ColumnStoreTest, FilterScanKernel) {
  TableDef def = CatalogDef();
  store::ColumnStore cs(def);
  ASSERT_TRUE(cs.Append(1, CatalogRow(1, "NGC1275", 11.9)).ok());
  ASSERT_TRUE(cs.Append(2, CatalogRow(2, "NGC224", 3.4)).ok());
  ASSERT_TRUE(cs.Append(3, CatalogRow(3, "M33", 5.7)).ok());
  ASSERT_TRUE(
      cs.Append(4, {Value::Integer(4), Value::Null(), Value::Null()}).ok());

  using Op = store::ColPredicate::Op;
  auto pred = [](size_t col, Op op, Value lit) {
    store::ColPredicate p;
    p.column = col;
    p.op = op;
    p.literal = std::move(lit);
    return p;
  };

  EXPECT_EQ(cs.FilterScan({pred(2, Op::kGt, Value::Double(5.0))}),
            (std::vector<RowId>{1, 3}));
  EXPECT_EQ(cs.FilterScan({pred(1, Op::kLike, Value::Varchar("NGC%"))}),
            (std::vector<RowId>{1, 2}));
  EXPECT_EQ(cs.FilterScan({pred(1, Op::kNotLike, Value::Varchar("NGC%"))}),
            (std::vector<RowId>{3}));  // NULL never matches either way
  EXPECT_EQ(cs.FilterScan({pred(1, Op::kIsNull, Value::Null())}),
            (std::vector<RowId>{4}));
  EXPECT_EQ(cs.FilterScan({pred(1, Op::kIsNotNull, Value::Null())}),
            (std::vector<RowId>{1, 2, 3}));
  // Conjunction.
  EXPECT_EQ(cs.FilterScan({pred(1, Op::kLike, Value::Varchar("NGC%")),
                           pred(2, Op::kLt, Value::Double(5.0))}),
            (std::vector<RowId>{2}));
  // NULL literal comparisons reject every row (SQL three-valued logic).
  EXPECT_TRUE(cs.FilterScan({pred(0, Op::kEq, Value::Null())}).empty());
  // Integer column compared against an integer literal.
  EXPECT_EQ(cs.FilterScan({pred(0, Op::kGe, Value::Integer(3))}),
            (std::vector<RowId>{3, 4}));
}

TEST(ColumnStoreTest, AggregateScanZeroRowsAndGroups) {
  TableDef def = CatalogDef();
  store::ColumnStore cs(def);
  std::vector<store::AggSpec> aggs = {
      {store::AggSpec::Fn::kCountStar, 0},
      {store::AggSpec::Fn::kSum, 2},
      {store::AggSpec::Fn::kMin, 2},
  };
  // Global group over an empty store: one row, COUNT 0, SUM/MIN NULL.
  Result<std::vector<store::AggGroup>> r = cs.AggregateScan({}, {}, aggs);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ((*r)[0].aggregates[0].AsInt(), 0);
  EXPECT_TRUE((*r)[0].aggregates[1].is_null());
  EXPECT_TRUE((*r)[0].aggregates[2].is_null());

  // GROUP BY over an empty store: no groups at all.
  r = cs.AggregateScan({}, {1}, aggs);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());

  ASSERT_TRUE(cs.Append(1, CatalogRow(1, "a", 2.0)).ok());
  ASSERT_TRUE(cs.Append(2, CatalogRow(2, "b", 4.0)).ok());
  ASSERT_TRUE(cs.Append(3, CatalogRow(3, "a", 6.0)).ok());
  r = cs.AggregateScan({}, {1}, aggs);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 2u);  // first-seen order: "a" then "b"
  EXPECT_EQ((*r)[0].first_row[1].AsString(), "a");
  EXPECT_EQ((*r)[0].aggregates[0].AsInt(), 2);
  EXPECT_DOUBLE_EQ((*r)[0].aggregates[1].AsDouble(), 8.0);
  EXPECT_DOUBLE_EQ((*r)[0].aggregates[2].AsDouble(), 2.0);
  EXPECT_EQ((*r)[1].first_row[1].AsString(), "b");
  EXPECT_EQ((*r)[1].aggregates[0].AsInt(), 1);
}

// ---------------------------------------------------------------------------
// Bulk file format
// ---------------------------------------------------------------------------

TEST(BulkFormatTest, SerializeParseRoundTrip) {
  TableDef def = CatalogDef();
  std::vector<Row> rows;
  for (int i = 0; i < 10; ++i) {
    rows.push_back(CatalogRow(i, ("obj" + std::to_string(i)).c_str(),
                              i * 0.5));
  }
  std::string image = store::SerializeBulk(def, rows, 4);
  Result<store::BulkFile> parsed = store::ParseBulk(image);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->columns,
            (std::vector<std::string>{"ID", "NAME", "MAG"}));
  EXPECT_EQ(parsed->types,
            (std::vector<DataType>{DataType::kInteger, DataType::kVarchar,
                                   DataType::kDouble}));
  ASSERT_EQ(parsed->chunks.size(), 3u);  // 4 + 4 + 2
  EXPECT_EQ(parsed->chunks[0].size(), 4u);
  EXPECT_EQ(parsed->chunks[2].size(), 2u);
  EXPECT_EQ(parsed->total_rows(), 10u);
  EXPECT_EQ(parsed->chunks[1][0][1].AsString(), "obj4");
}

TEST(BulkFormatTest, CorruptionAndTruncationRejected) {
  TableDef def = CatalogDef();
  std::vector<Row> rows = {CatalogRow(1, "a", 1.0), CatalogRow(2, "b", 2.0)};
  std::string image = store::SerializeBulk(def, rows, 0);

  EXPECT_FALSE(store::ParseBulk("EASIAJUNK1" + image.substr(10)).ok());
  EXPECT_FALSE(store::ParseBulk(image.substr(0, image.size() - 3)).ok());

  // Flip one payload byte: the chunk CRC must catch it.
  std::string corrupt = image;
  corrupt[corrupt.size() - 2] ^= 0x40;
  Result<store::BulkFile> r = store::ParseBulk(corrupt);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
}

// ---------------------------------------------------------------------------
// COPY ... FROM (binary bulk ingest through the SQL surface)
// ---------------------------------------------------------------------------

class CopyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "easia_copy_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    db_ = std::make_unique<Database>("COPYDB");
    Exec(
        "CREATE TABLE STAR (ID INTEGER PRIMARY KEY, NAME VARCHAR(64), "
        "MAG DOUBLE) STORE COLUMNAR");
    Exec(
        "CREATE TABLE STAR_ROW (ID INTEGER PRIMARY KEY, NAME VARCHAR(64), "
        "MAG DOUBLE)");
  }

  QueryResult Exec(const std::string& sql) {
    Result<QueryResult> r = db_->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? *r : QueryResult{};
  }

  std::string WriteBulk(const std::string& file, const TableDef& def,
                        const std::vector<Row>& rows, size_t chunk_rows) {
    std::string path = dir_ + "_" + file;
    EXPECT_TRUE(
        store::WriteBulkFile(io::RealEnv(), path, def, rows, chunk_rows)
            .ok());
    return path;
  }

  const TableDef& Def(const std::string& name) {
    Result<const TableDef*> def = db_->catalog().GetTable(name);
    EXPECT_TRUE(def.ok());
    return **def;
  }

  int64_t Count(const std::string& table) {
    QueryResult r = Exec("SELECT COUNT(*) FROM " + table);
    return r.rows[0][0].AsInt();
  }

  std::string dir_;
  std::unique_ptr<Database> db_;
};

TEST_F(CopyTest, BulkIngestIntoColumnarAndRowTables) {
  std::vector<Row> rows;
  for (int i = 0; i < 2500; ++i) {
    rows.push_back(CatalogRow(i, ("S" + std::to_string(i)).c_str(), i * 0.1));
  }
  std::string path = WriteBulk("stars.ebk", Def("STAR"), rows, 1000);

  QueryResult r = Exec("COPY STAR FROM '" + path + "'");
  EXPECT_EQ(r.rows_affected, 2500u);
  EXPECT_EQ(Count("STAR"), 2500);
  EXPECT_EQ(db_->stats().bulk_chunks, 3u);  // 1000 + 1000 + 500

  // The same file loads into the row-store twin (format is storage
  // agnostic; the header matches both defs modulo the table name).
  QueryResult r2 = Exec("COPY STAR_ROW FROM '" + path + "'");
  EXPECT_EQ(r2.rows_affected, 2500u);
  EXPECT_EQ(Count("STAR_ROW"), 2500);
  EXPECT_EQ(db_->stats().bulk_chunks, 6u);

  // Loaded data is queryable through every path, including the radix
  // index built during ingest.
  QueryResult q = Exec("SELECT NAME FROM STAR WHERE NAME LIKE 'S249%'");
  EXPECT_EQ(q.rows.size(), 11u);  // S249 + S2490..S2499
}

TEST_F(CopyTest, HeaderMismatchRejected) {
  TableDef other;
  other.name = "OTHER";
  other.columns = {MakeColumn("ID", DataType::kInteger),
                   MakeColumn("TITLE", DataType::kVarchar),
                   MakeColumn("MAG", DataType::kDouble)};
  std::string path = WriteBulk("other.ebk", other,
                               {CatalogRow(1, "x", 1.0)}, 0);
  Result<QueryResult> r = db_->Execute("COPY STAR FROM '" + path + "'");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Count("STAR"), 0);

  // Arity mismatch.
  TableDef narrow;
  narrow.name = "NARROW";
  narrow.columns = {MakeColumn("ID", DataType::kInteger)};
  std::string path2 =
      WriteBulk("narrow.ebk", narrow, {{Value::Integer(1)}}, 0);
  EXPECT_FALSE(db_->Execute("COPY STAR FROM '" + path2 + "'").ok());

  // Missing file.
  EXPECT_FALSE(db_->Execute("COPY STAR FROM '/no/such/file.ebk'").ok());
}

TEST_F(CopyTest, BadRowAbortsItsChunkKeepsPriorChunks) {
  // Chunks of 2: {1,2}, {3,1} — the second chunk hits a duplicate PK.
  std::vector<Row> rows = {CatalogRow(1, "a", 1.0), CatalogRow(2, "b", 2.0),
                           CatalogRow(3, "c", 3.0), CatalogRow(1, "d", 4.0)};
  std::string path = WriteBulk("dup.ebk", Def("STAR"), rows, 2);
  Result<QueryResult> r = db_->Execute("COPY STAR FROM '" + path + "'");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kConstraintViolation);
  // Chunk 1 committed and stays; chunk 2 rolled back entirely.
  EXPECT_EQ(Count("STAR"), 2);
  EXPECT_EQ(db_->stats().bulk_chunks, 1u);
  QueryResult q = Exec("SELECT NAME FROM STAR WHERE ID = 3");
  EXPECT_TRUE(q.rows.empty());
}

TEST_F(CopyTest, RejectedInsideExplicitTransaction) {
  std::vector<Row> rows = {CatalogRow(1, "a", 1.0)};
  std::string path = WriteBulk("one.ebk", Def("STAR"), rows, 0);
  Exec("BEGIN");
  Result<QueryResult> r = db_->Execute("COPY STAR FROM '" + path + "'");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  Exec("ROLLBACK");
  // Outside the transaction it works.
  EXPECT_EQ(Exec("COPY STAR FROM '" + path + "'").rows_affected, 1u);
}

TEST_F(CopyTest, NullsAndCoercionMatchInsert) {
  std::vector<Row> rows = {
      {Value::Integer(1), Value::Null(), Value::Integer(7)},  // int -> double
      {Value::Integer(2), Value::Varchar("x"), Value::Null()},
  };
  std::string path = WriteBulk("nulls.ebk", Def("STAR"), rows, 0);
  EXPECT_EQ(Exec("COPY STAR FROM '" + path + "'").rows_affected, 2u);
  Exec("INSERT INTO STAR_ROW VALUES (1, NULL, 7)");
  Exec("INSERT INTO STAR_ROW VALUES (2, 'x', NULL)");
  QueryResult a = Exec("SELECT * FROM STAR ORDER BY ID");
  QueryResult b = Exec("SELECT * FROM STAR_ROW ORDER BY ID");
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (size_t i = 0; i < a.rows.size(); ++i) {
    for (size_t c = 0; c < a.rows[i].size(); ++c) {
      EXPECT_EQ(a.rows[i][c].ToDisplayString(), b.rows[i][c].ToDisplayString())
          << "row " << i << " col " << c;
    }
  }
}

// ---------------------------------------------------------------------------
// Columnar tables behave like row tables through the whole SQL surface
// ---------------------------------------------------------------------------

class ColumnarParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>("PARITY");
    for (const char* suffix : {"", "_ROW"}) {
      std::string store =
          std::string(suffix).empty() ? " STORE COLUMNAR" : "";
      Exec("CREATE TABLE OBJ" + std::string(suffix) +
           " (ID INTEGER PRIMARY KEY, NAME VARCHAR(64), KIND VARCHAR(16), "
           "MAG DOUBLE, HITS INTEGER)" +
           store);
    }
    const char* seed[][4] = {
        {"1", "'NGC1275'", "'galaxy'", "11.9"},
        {"2", "'NGC224'", "'galaxy'", "3.4"},
        {"3", "'M33'", "'galaxy'", "5.7"},
        {"4", "'Vega'", "'star'", "0.03"},
        {"5", "'Sirius'", "'star'", "-1.46"},
        {"6", "'NGC7000'", "'nebula'", "4.0"},
        {"7", "'unnamed'", "NULL", "NULL"},
    };
    int hits = 0;
    for (const auto& s : seed) {
      for (const char* suffix : {"", "_ROW"}) {
        Exec(std::string("INSERT INTO OBJ") + suffix + " VALUES (" + s[0] +
             ", " + s[1] + ", " + s[2] + ", " + s[3] + ", " +
             std::to_string(hits % 3) + ")");
      }
      ++hits;
    }
  }

  QueryResult Exec(const std::string& sql) {
    Result<QueryResult> r = db_->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? *r : QueryResult{};
  }

  /// Runs the same query shape against the columnar table and its
  /// row-store twin and expects identical result tables.
  void ExpectSameAsRowStore(const std::string& query_tail) {
    QueryResult a = Exec("SELECT " + ReplaceAll(query_tail, "$T", "OBJ"));
    QueryResult b =
        Exec("SELECT " + ReplaceAll(query_tail, "$T", "OBJ_ROW"));
    EXPECT_EQ(a.column_names, b.column_names) << query_tail;
    EXPECT_EQ(a.column_types, b.column_types) << query_tail;
    ASSERT_EQ(a.rows.size(), b.rows.size()) << query_tail;
    for (size_t i = 0; i < a.rows.size(); ++i) {
      ASSERT_EQ(a.rows[i].size(), b.rows[i].size());
      for (size_t c = 0; c < a.rows[i].size(); ++c) {
        EXPECT_EQ(a.rows[i][c].ToDisplayString(),
                  b.rows[i][c].ToDisplayString())
            << query_tail << " row " << i << " col " << c;
      }
    }
  }

  std::unique_ptr<Database> db_;
};

TEST_F(ColumnarParityTest, ScansFiltersAndDml) {
  ExpectSameAsRowStore("* FROM $T");
  ExpectSameAsRowStore("* FROM $T WHERE MAG > 3.0");
  ExpectSameAsRowStore("NAME FROM $T WHERE NAME LIKE 'NGC%'");
  ExpectSameAsRowStore("NAME FROM $T WHERE NAME LIKE '%7%'");
  ExpectSameAsRowStore("* FROM $T WHERE KIND IS NULL");
  ExpectSameAsRowStore("* FROM $T WHERE ID = 4");

  for (const char* t : {"OBJ", "OBJ_ROW"}) {
    Exec(std::string("UPDATE ") + t +
         " SET NAME = 'Andromeda', MAG = 3.44 WHERE ID = 2");
    Exec(std::string("DELETE FROM ") + t + " WHERE ID = 6");
  }
  ExpectSameAsRowStore("* FROM $T");
  ExpectSameAsRowStore("NAME FROM $T WHERE NAME LIKE 'Andro%'");
  // The radix index dropped the deleted/renamed entries.
  ExpectSameAsRowStore("NAME FROM $T WHERE NAME LIKE 'NGC%'");
}

TEST_F(ColumnarParityTest, AggregatesMatchRowPath) {
  for (const char* tail : {
           "COUNT(*) FROM $T",
           "COUNT(KIND) FROM $T",
           "COUNT(*), SUM(MAG), MIN(MAG), MAX(MAG), AVG(MAG) FROM $T",
           "SUM(HITS) FROM $T",
           "KIND, COUNT(*) FROM $T GROUP BY KIND",
           "KIND, COUNT(*), AVG(MAG) FROM $T GROUP BY KIND",
           "KIND, MIN(NAME), MAX(NAME) FROM $T GROUP BY KIND",
           "KIND, HITS, COUNT(*) FROM $T GROUP BY KIND, HITS",
           "COUNT(*) FROM $T WHERE MAG > 3.0",
           "KIND, SUM(MAG) FROM $T WHERE NAME LIKE 'NGC%' GROUP BY KIND",
           "COUNT(*) FROM $T WHERE MAG > 1000",  // empty: COUNT 0
           "SUM(MAG) FROM $T WHERE MAG > 1000",  // empty: NULL
           "KIND, COUNT(*) FROM $T WHERE MAG > 1000 GROUP BY KIND",
       }) {
    ExpectSameAsRowStore(tail);
  }
}

TEST_F(ColumnarParityTest, IntegerFiltersCompareExactlyPast2To53) {
  // 2^53 + 1 and INT64_MAX - 1 have no double of their own: a filter that
  // compared through double would tie them with a neighbour. Both layouts
  // must answer as Value::Compare does, exactly.
  const char* values[] = {"9007199254740992", "9007199254740993",
                          "9223372036854775806", "9223372036854775807",
                          "-9223372036854775807"};
  for (const std::string t : {"BIG", "BIG_ROW"}) {
    Exec("CREATE TABLE " + t + " (ID INTEGER PRIMARY KEY, X INTEGER)" +
         (t == "BIG" ? " STORE COLUMNAR" : ""));
    for (int i = 0; i < 5; ++i) {
      Exec("INSERT INTO " + t + " VALUES (" + std::to_string(i + 1) + ", " +
           values[i] + ")");
    }
  }
  const std::pair<const char*, const char*> cases[] = {
      {"ID FROM $T WHERE X > 9223372036854775806", "4"},
      {"COUNT(X) FROM $T WHERE X > 9223372036854775806", "1"},
      {"SUM(X) FROM $T WHERE X > 9223372036854775806", "9223372036854775807"},
      {"COUNT(*) FROM $T WHERE X = 9007199254740993", "1"},
      {"ID FROM $T WHERE X < 9007199254740993", "1,5"},
      {"ID FROM $T WHERE X >= 9223372036854775807", "4"},
      {"ID FROM $T WHERE X < -9223372036854775806", "5"},
      {"ID FROM $T WHERE X <> 9223372036854775806", "1,2,4,5"},
  };
  for (const auto& [tail, want] : cases) {
    for (const char* t : {"BIG", "BIG_ROW"}) {
      QueryResult r = Exec("SELECT " + ReplaceAll(tail, "$T", t));
      std::vector<std::string> cells;
      for (const Row& row : r.rows) cells.push_back(row[0].ToDisplayString());
      EXPECT_EQ(Join(cells, ","), want) << t << ": " << tail;
    }
  }
}

TEST_F(ColumnarParityTest, RollbackRestoresColumnarStateAndIndexes) {
  Exec("BEGIN");
  Exec("UPDATE OBJ SET NAME = 'renamed' WHERE ID = 1");
  Exec("DELETE FROM OBJ WHERE ID = 2");
  Exec("INSERT INTO OBJ VALUES (8, 'NGC9999', 'galaxy', 9.9, 0)");
  Exec("ROLLBACK");
  ExpectSameAsRowStore("* FROM $T");
  ExpectSameAsRowStore("NAME FROM $T WHERE NAME LIKE 'NGC%'");
  QueryResult q = Exec("SELECT NAME FROM OBJ WHERE NAME LIKE 'renamed%'");
  EXPECT_TRUE(q.rows.empty());
}

// ---------------------------------------------------------------------------
// Planner: columnar kernels, prefix scans and the aggregate fast path
// ---------------------------------------------------------------------------

class StorePlannerTest : public ColumnarParityTest {
 protected:
  std::string Plan(const std::string& select_sql) {
    QueryResult r = Exec("EXPLAIN " + select_sql);
    std::string joined;
    for (const Row& row : r.rows) {
      joined += row[0].AsString();
      joined += "\n";
    }
    return joined;
  }
};

TEST_F(StorePlannerTest, ColumnarFilterKernelInExplain) {
  // The kernel belongs to the WHERE clause, not the layout: both twins
  // take it, and the access path still reads "seq scan".
  for (const char* table : {"OBJ", "OBJ_ROW"}) {
    SCOPED_TRACE(table);
    std::string plan =
        Plan(std::string("SELECT * FROM ") + table + " WHERE MAG > 3.0");
    EXPECT_NE(plan.find(": seq scan, pushed: "), std::string::npos) << plan;
    EXPECT_NE(plan.find("[filter kernel]"), std::string::npos) << plan;
    // A non-convertible conjunct disables the kernel wholesale.
    plan = Plan(std::string("SELECT * FROM ") + table +
                " WHERE MAG > 3.0 AND ID + 1 > 2");
    EXPECT_EQ(plan.find("[filter kernel]"), std::string::npos) << plan;
  }
}

TEST_F(StorePlannerTest, PrefixScanInExplain) {
  std::string plan = Plan("SELECT NAME FROM OBJ WHERE NAME LIKE 'NGC%'");
  EXPECT_NE(plan.find("prefix scan via (NAME), prefix 'NGC'"),
            std::string::npos)
      << plan;
  // Leading wildcard: nothing to narrow, stays a seq scan.
  plan = Plan("SELECT NAME FROM OBJ WHERE NAME LIKE '%NGC'");
  EXPECT_EQ(plan.find("prefix scan"), std::string::npos) << plan;
  // Row store has no radix index.
  plan = Plan("SELECT NAME FROM OBJ_ROW WHERE NAME LIKE 'NGC%'");
  EXPECT_EQ(plan.find("prefix scan"), std::string::npos) << plan;
  // Escaped wildcard resolves into the literal prefix.
  plan = Plan("SELECT NAME FROM OBJ WHERE NAME LIKE 'a\\%b%'");
  EXPECT_NE(plan.find("prefix 'a%b'"), std::string::npos) << plan;
}

TEST_F(StorePlannerTest, AggregateFastPathInExplain) {
  std::string plan = Plan("SELECT KIND, COUNT(*) FROM OBJ GROUP BY KIND");
  EXPECT_NE(plan.find("[columnar fast path]"), std::string::npos) << plan;
  plan = Plan("SELECT KIND, COUNT(*) FROM OBJ_ROW GROUP BY KIND");
  EXPECT_NE(plan.find("[row path]"), std::string::npos) << plan;
  // HAVING keeps the row path even on columnar tables.
  plan = Plan(
      "SELECT KIND, COUNT(*) FROM OBJ GROUP BY KIND HAVING COUNT(*) > 1");
  EXPECT_NE(plan.find("[row path]"), std::string::npos) << plan;
  // SUM over a text column is ineligible (kernel would reject statically
  // where the row path errors only on actual aggregation).
  plan = Plan("SELECT SUM(NAME) FROM OBJ");
  EXPECT_NE(plan.find("[row path]"), std::string::npos) << plan;
}

TEST_F(StorePlannerTest, PrefixScanParityWithNaiveExecutor) {
  // Planned (prefix scan) and naive (full scan) paths agree on escapes,
  // mid-pattern wildcards, and patterns with no literal prefix.
  for (const char* pattern :
       {"NGC%", "NGC_2%", "M%", "%", "NGC1275", "S%s", "NGC\\%", "unn%d"}) {
    std::string sql = std::string("SELECT NAME FROM OBJ WHERE NAME LIKE '") +
                      pattern + "' ORDER BY NAME";
    Result<Statement> stmt = ParseSql(sql);
    ASSERT_TRUE(stmt.ok());
    TableLookup lookup = [this](const std::string& name) {
      return db_->GetTable(name);
    };
    ExecuteOptions planned_opts;
    planned_opts.use_planner = true;
    ExecuteOptions naive_opts;
    naive_opts.use_planner = false;
    Result<QueryResult> planned =
        ExecuteSelect(*stmt->select, lookup, nullptr, planned_opts);
    Result<QueryResult> naive =
        ExecuteSelect(*stmt->select, lookup, nullptr, naive_opts);
    ASSERT_TRUE(planned.ok()) << sql;
    ASSERT_TRUE(naive.ok()) << sql;
    ASSERT_EQ(planned->rows.size(), naive->rows.size()) << sql;
    for (size_t i = 0; i < planned->rows.size(); ++i) {
      EXPECT_EQ(planned->rows[i][0].AsString(), naive->rows[i][0].AsString())
          << sql;
    }
  }
}

TEST_F(StorePlannerTest, TypeaheadValuesMatchLikeQuery) {
  Result<const Table*> table = db_->GetTable("OBJ");
  ASSERT_TRUE(table.ok());
  std::vector<std::string> values =
      (*table)->RadixPrefixValues("NAME", "NGC", 10);
  QueryResult q = Exec(
      "SELECT DISTINCT NAME FROM OBJ WHERE NAME LIKE 'NGC%' ORDER BY NAME");
  ASSERT_EQ(values.size(), q.rows.size());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(values[i], q.rows[i][0].AsString());
  }
}

// ---------------------------------------------------------------------------
// Secondary (non-unique) index maintenance under UPDATE/DELETE churn
// ---------------------------------------------------------------------------

class SecondaryIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>("IDX");
    Exec("CREATE TABLE AUTHOR (AK VARCHAR(10) PRIMARY KEY, NAME VARCHAR(40))");
    Exec(
        "CREATE TABLE SIM (SK VARCHAR(10) PRIMARY KEY, AK VARCHAR(10), "
        "TITLE VARCHAR(80), FOREIGN KEY (AK) REFERENCES AUTHOR (AK))");
    Exec("INSERT INTO AUTHOR VALUES ('A1', 'Papiani')");
    Exec("INSERT INTO AUTHOR VALUES ('A2', 'Wason')");
    Exec("INSERT INTO SIM VALUES ('S1', 'A1', 'channel')");
    Exec("INSERT INTO SIM VALUES ('S2', 'A1', 'box')");
    Exec("INSERT INTO SIM VALUES ('S3', 'A2', 'shear')");
    Exec("INSERT INTO SIM VALUES ('S4', NULL, 'unowned')");
  }

  QueryResult Exec(const std::string& sql) {
    Result<QueryResult> r = db_->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? *r : QueryResult{};
  }

  /// RowIds FindByIndex returns for SIM.AK = `key` (the secondary index
  /// the FK maintains), cross-checked against a full scan.
  std::vector<RowId> IndexIds(const std::string& key) {
    Result<const Table*> table = db_->GetTable("SIM");
    EXPECT_TRUE(table.ok());
    Result<std::vector<RowId>> ids =
        (*table)->FindByIndex({"AK"}, {Value::Varchar(key)});
    EXPECT_TRUE(ids.ok()) << ids.status().ToString();
    std::vector<RowId> via_index = ids.ok() ? *ids : std::vector<RowId>{};
    // The index answer must equal a predicate scan (stale entries and
    // lost entries both show up here).
    std::vector<RowId> via_scan;
    (*table)->ForEachRow([&](RowId id, const Row& row) {
      if (!row[1].is_null() && row[1].AsString() == key) {
        via_scan.push_back(id);
      }
    });
    EXPECT_EQ(via_index, via_scan) << "index disagrees with scan for " << key;
    return via_index;
  }

  std::unique_ptr<Database> db_;
};

TEST_F(SecondaryIndexTest, UpdateMovesEntryBetweenKeys) {
  EXPECT_EQ(IndexIds("A1").size(), 2u);
  EXPECT_EQ(IndexIds("A2").size(), 1u);
  Exec("UPDATE SIM SET AK = 'A2' WHERE SK = 'S1'");
  EXPECT_EQ(IndexIds("A1").size(), 1u);
  EXPECT_EQ(IndexIds("A2").size(), 2u);
}

TEST_F(SecondaryIndexTest, NullTransitions) {
  Exec("UPDATE SIM SET AK = NULL WHERE SK = 'S3'");
  EXPECT_TRUE(IndexIds("A2").empty());
  Exec("UPDATE SIM SET AK = 'A2' WHERE SK = 'S4'");
  EXPECT_EQ(IndexIds("A2").size(), 1u);
}

TEST_F(SecondaryIndexTest, DeleteRemovesEntry) {
  Exec("DELETE FROM SIM WHERE SK = 'S2'");
  EXPECT_EQ(IndexIds("A1").size(), 1u);
  Exec("DELETE FROM SIM WHERE AK = 'A1'");
  EXPECT_TRUE(IndexIds("A1").empty());
}

TEST_F(SecondaryIndexTest, RollbackRestoresIndexEntries) {
  Exec("BEGIN");
  Exec("UPDATE SIM SET AK = 'A2' WHERE SK = 'S1'");
  Exec("DELETE FROM SIM WHERE SK = 'S3'");
  Exec("INSERT INTO SIM VALUES ('S5', 'A1', 'extra')");
  Exec("ROLLBACK");
  EXPECT_EQ(IndexIds("A1").size(), 2u);
  EXPECT_EQ(IndexIds("A2").size(), 1u);
}

TEST_F(SecondaryIndexTest, PlannedIndexScanAgreesAfterChurn) {
  // Churn, then compare the planner's index scan against the naive path.
  Exec("UPDATE SIM SET AK = 'A2' WHERE SK = 'S2'");
  Exec("UPDATE SIM SET AK = NULL WHERE SK = 'S1'");
  Exec("DELETE FROM SIM WHERE SK = 'S3'");
  Exec("INSERT INTO SIM VALUES ('S5', 'A2', 'late')");
  const std::string sql = "SELECT SK FROM SIM WHERE AK = 'A2' ORDER BY SK";
  Result<Statement> stmt = ParseSql(sql);
  ASSERT_TRUE(stmt.ok());
  TableLookup lookup = [this](const std::string& name) {
    return db_->GetTable(name);
  };
  ExecuteOptions planned_opts;
  planned_opts.use_planner = true;
  ExecuteOptions naive_opts;
  naive_opts.use_planner = false;
  Result<QueryResult> planned =
      ExecuteSelect(*stmt->select, lookup, nullptr, planned_opts);
  Result<QueryResult> naive =
      ExecuteSelect(*stmt->select, lookup, nullptr, naive_opts);
  ASSERT_TRUE(planned.ok());
  ASSERT_TRUE(naive.ok());
  ASSERT_EQ(planned->rows.size(), naive->rows.size());
  for (size_t i = 0; i < planned->rows.size(); ++i) {
    EXPECT_EQ(planned->rows[i][0].AsString(), naive->rows[i][0].AsString());
  }
}

// ---------------------------------------------------------------------------
// Storage stats feed the observability gauges
// ---------------------------------------------------------------------------

TEST(StorageStatsTest, ColumnarTablesReportPagesAndRadix) {
  Database db("STATS");
  ASSERT_TRUE(db.Execute(
                    "CREATE TABLE C (ID INTEGER PRIMARY KEY, "
                    "NAME VARCHAR(32)) STORE COLUMNAR")
                  .ok());
  ASSERT_TRUE(
      db.Execute("CREATE TABLE R (ID INTEGER PRIMARY KEY, NAME VARCHAR(32))")
          .ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(db.Execute("INSERT INTO C VALUES (" + std::to_string(i) +
                           ", 'n" + std::to_string(i) + "')")
                    .ok());
  }
  Result<const Table*> c = db.GetTable("C");
  Result<const Table*> r = db.GetTable("R");
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(r.ok());
  Table::StorageStats cs = (*c)->GetStorageStats();
  EXPECT_TRUE(cs.columnar);
  EXPECT_EQ(cs.rows, 50u);
  EXPECT_GT(cs.columnar_bytes, 0u);
  EXPECT_GT(cs.radix_nodes, 1u);
  EXPECT_GT(cs.radix_bytes, 0u);
  Table::StorageStats rs = (*r)->GetStorageStats();
  EXPECT_FALSE(rs.columnar);
  EXPECT_EQ(rs.rows, 0u);
  EXPECT_EQ(rs.radix_nodes, 0u);
}

}  // namespace
}  // namespace easia::db
