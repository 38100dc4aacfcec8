#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/io.h"
#include "common/random.h"
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

TEST(RadixIndexTest, StatsCountersMatchNodeWalk) {
  store::RadixIndex idx;
  auto check = [&](const char* step) {
    store::RadixIndex::Stats counted = idx.GetStats();
    store::RadixIndex::Stats walked = idx.WalkStats();
    EXPECT_EQ(counted.nodes, walked.nodes) << step;
    EXPECT_EQ(counted.bytes, walked.bytes) << step;
    EXPECT_EQ(counted.entries, walked.entries) << step;
  };
  check("empty");
  idx.Insert("carbon", 1);
  idx.Insert("carbonate", 2);  // extends a leaf
  idx.Insert("calcium", 3);    // splits "carbon" at "ca"
  idx.Insert("car", 4);        // splits "rbon" at "r"
  idx.Insert("car", 5);
  check("inserts and splits");
  idx.Remove("car", 4);
  idx.Remove("car", 5);  // "car" node empties: re-merges with "bon"
  check("re-merge");
  idx.Remove("calcium", 3);  // leaf pruned, "ca" merges with its child
  idx.Remove("nope", 9);     // absent: no change
  check("prune");
  // Random churn over a small key space exercises every path repeatedly.
  Random rng(7);
  std::vector<std::pair<std::string, uint64_t>> live;
  for (int i = 0; i < 3000; ++i) {
    if (!live.empty() && rng.OneIn(2)) {
      size_t at = rng.Uniform(live.size());
      idx.Remove(live[at].first, live[at].second);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
    } else {
      std::string key = "k";
      for (uint64_t n = rng.Uniform(4); n > 0; --n) {
        key += static_cast<char>('a' + rng.Uniform(3));
      }
      idx.Insert(key, static_cast<uint64_t>(i));
      live.emplace_back(key, static_cast<uint64_t>(i));
    }
  }
  check("churn");
  for (const auto& [key, id] : live) idx.Remove(key, id);
  idx.Remove("carbon", 1);
  idx.Remove("carbonate", 2);
  check("drained");
  EXPECT_EQ(idx.GetStats().nodes, 1u);
  EXPECT_EQ(idx.GetStats().entries, 0u);
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

TEST(ColumnStoreTest, CompactRestoresRowIdOrder) {
  TableDef def = CatalogDef();
  store::ColumnStore cs(def);
  for (RowId id : {1, 2, 3, 4}) {
    ASSERT_TRUE(cs.Append(id, CatalogRow(static_cast<int64_t>(id), "n", 1))
                    .ok());
  }
  ASSERT_TRUE(cs.Delete(2).ok());
  // The undo of a DELETE re-appends below the newest RowId.
  ASSERT_TRUE(cs.Append(2, CatalogRow(2, "back", 2)).ok());
  EXPECT_FALSE(cs.ordered());
  EXPECT_EQ(cs.FilterScan({}), (std::vector<RowId>{1, 2, 3, 4}));
  cs.Compact();
  EXPECT_TRUE(cs.ordered());
  EXPECT_EQ(cs.Slots(), 4u);
  std::vector<std::string> names;
  cs.ForEachRow([&](RowId, const Row& row) {
    names.push_back(row[1].AsString());
  });
  EXPECT_EQ(names, (std::vector<std::string>{"n", "back", "n", "n"}));
  std::vector<std::string> mags;
  cs.ForEachValue(2, [&](const Value& v) {
    mags.push_back(v.ToDisplayString());
    return mags.size() < 3;  // stops early
  });
  EXPECT_EQ(mags, (std::vector<std::string>{"1", "2", "1"}));
}

/// A table shaped like the churn probe: a key, a counter, a name and a
/// 300-byte CLOB.
TableDef ChurnDef() {
  TableDef def;
  def.name = "CHURN";
  def.columns = {MakeColumn("ID", DataType::kInteger),
                 MakeColumn("N", DataType::kInteger),
                 MakeColumn("NAME", DataType::kVarchar),
                 MakeColumn("NOTE", DataType::kClob)};
  def.primary_key = {"ID"};
  return def;
}

Row ChurnRow(int64_t id, int64_t n, const std::string& name) {
  return {Value::Integer(id), Value::Integer(n), Value::Varchar(name),
          Value::Clob(std::string(300, 'x'))};
}

TEST(ColumnStoreTest, UpdateChurnKeepsBytesBounded) {
  Table table(ChurnDef());
  Result<RowId> id = table.Insert(ChurnRow(1, 0, "name"));
  ASSERT_TRUE(id.ok());
  const size_t initial = table.GetStorageStats().columnar_bytes;
  // UPDATE ... SET N = N + 1: no text cell changes, so nothing is appended.
  for (int64_t n = 1; n <= 100000; ++n) {
    ASSERT_TRUE(table.Update(*id, ChurnRow(1, n, "name")).ok());
  }
  EXPECT_EQ(table.GetStorageStats().columnar_bytes, initial);
  // A changing name leaves garbage; compaction keeps it within 2x.
  size_t peak = 0;
  for (int64_t n = 1; n <= 100000; ++n) {
    ASSERT_TRUE(
        table.Update(*id, ChurnRow(1, n, "name" + std::to_string(n))).ok());
    peak = std::max(peak, table.GetStorageStats().columnar_bytes);
  }
  EXPECT_LE(peak, 2 * initial);
  EXPECT_EQ(table.column_store().Slots(), 1u);
  Result<Row> row = table.Get(*id);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[2].AsString(), "name100000");
  EXPECT_EQ((*row)[3].AsString(), std::string(300, 'x'));
}

TEST(ColumnStoreTest, DeleteInsertChurnKeepsSlotsBounded) {
  // Retire the oldest row, ingest a new one: 1,000 live rows throughout.
  Table table(ChurnDef());
  std::vector<RowId> ids;
  for (int64_t i = 0; i < 1000; ++i) {
    Result<RowId> id = table.Insert(ChurnRow(i, 0, "f" + std::to_string(i)));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  const size_t initial = table.GetStorageStats().columnar_bytes;
  size_t peak_bytes = 0;
  size_t peak_slots = 0;
  for (int64_t i = 1000; i < 101000; ++i) {
    ASSERT_TRUE(table.Delete(ids[static_cast<size_t>(i - 1000)]).ok());
    Result<RowId> id = table.Insert(ChurnRow(i, 0, "f" + std::to_string(i)));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
    peak_bytes = std::max(peak_bytes, table.GetStorageStats().columnar_bytes);
    peak_slots = std::max(peak_slots, table.column_store().Slots());
  }
  EXPECT_EQ(table.RowCount(), 1000u);
  EXPECT_LE(peak_slots, 2001u);
  EXPECT_LE(peak_bytes, 2 * initial);
  // Scans still visit the survivors in RowId order.
  std::vector<RowId> scanned = table.FilterScan({});
  EXPECT_EQ(scanned, std::vector<RowId>(ids.end() - 1000, ids.end()));
  // f100990..f100999 are live; the retired f10099 is gone.
  EXPECT_EQ(table.RadixPrefixRowIds("NAME", "f10099").size(), 10u);
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
    // The same table without the (no-op) layout clause.
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

  // The same file loads into the twin declared without `STORE COLUMNAR`
  // (the header matches both defs modulo the table name).
  QueryResult r2 = Exec("COPY STAR_ROW FROM '" + path + "'");
  EXPECT_EQ(r2.rows_affected, 2500u);
  EXPECT_EQ(Count("STAR_ROW"), 2500);
  EXPECT_EQ(db_->stats().bulk_chunks, 6u);

  // Loaded data is queryable through every path, including the radix
  // index built during ingest, on both tables.
  for (const char* table : {"STAR", "STAR_ROW"}) {
    QueryResult q = Exec(std::string("SELECT NAME FROM ") + table +
                         " WHERE NAME LIKE 'S249%'");
    EXPECT_EQ(q.rows.size(), 11u) << table;  // S249 + S2490..S2499
  }
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
// The planner's columnar kernels answer like the legacy executor through
// the whole SQL surface. OBJ_ROW is OBJ declared without the (no-op)
// `STORE COLUMNAR` clause; it must answer identically too.
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

  /// Runs the same query shape through the planner on OBJ, and through
  /// the legacy executor on OBJ and on OBJ_ROW, and expects identical
  /// result tables.
  void ExpectSameAsLegacy(const std::string& query_tail) {
    QueryResult a = Exec("SELECT " + ReplaceAll(query_tail, "$T", "OBJ"));
    for (const char* table : {"OBJ", "OBJ_ROW"}) {
      std::string sql = "SELECT " + ReplaceAll(query_tail, "$T", table);
      Result<Statement> stmt = ParseSql(sql);
      ASSERT_TRUE(stmt.ok()) << sql;
      TableLookup lookup = [this](const std::string& name) {
        return db_->GetTable(name);
      };
      ExecuteOptions legacy;
      legacy.use_planner = false;
      Result<QueryResult> b =
          ExecuteSelect(*stmt->select, lookup, nullptr, legacy);
      ASSERT_TRUE(b.ok()) << sql << " -> " << b.status().ToString();
      EXPECT_EQ(a.column_names, b->column_names) << sql;
      EXPECT_EQ(a.column_types, b->column_types) << sql;
      ASSERT_EQ(a.rows.size(), b->rows.size()) << sql;
      for (size_t i = 0; i < a.rows.size(); ++i) {
        ASSERT_EQ(a.rows[i].size(), b->rows[i].size());
        for (size_t c = 0; c < a.rows[i].size(); ++c) {
          EXPECT_EQ(a.rows[i][c].ToDisplayString(),
                    b->rows[i][c].ToDisplayString())
              << sql << " row " << i << " col " << c;
        }
      }
    }
  }

  std::unique_ptr<Database> db_;
};

TEST_F(ColumnarParityTest, ScansFiltersAndDml) {
  ExpectSameAsLegacy("* FROM $T");
  ExpectSameAsLegacy("* FROM $T WHERE MAG > 3.0");
  ExpectSameAsLegacy("NAME FROM $T WHERE NAME LIKE 'NGC%'");
  ExpectSameAsLegacy("NAME FROM $T WHERE NAME LIKE '%7%'");
  ExpectSameAsLegacy("* FROM $T WHERE KIND IS NULL");
  ExpectSameAsLegacy("* FROM $T WHERE ID = 4");

  for (const char* t : {"OBJ", "OBJ_ROW"}) {
    Exec(std::string("UPDATE ") + t +
         " SET NAME = 'Andromeda', MAG = 3.44 WHERE ID = 2");
    Exec(std::string("DELETE FROM ") + t + " WHERE ID = 6");
  }
  ExpectSameAsLegacy("* FROM $T");
  ExpectSameAsLegacy("NAME FROM $T WHERE NAME LIKE 'Andro%'");
  // The radix index dropped the deleted/renamed entries.
  ExpectSameAsLegacy("NAME FROM $T WHERE NAME LIKE 'NGC%'");
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
    ExpectSameAsLegacy(tail);
  }
}

TEST_F(ColumnarParityTest, IntegerFiltersCompareExactlyPast2To53) {
  // 2^53 + 1 and INT64_MAX - 1 have no double of their own: a filter that
  // compared through double would tie them with a neighbour. Both tables
  // (with and without the layout clause) must answer as Value::Compare
  // does, exactly.
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
  ExpectSameAsLegacy("* FROM $T");
  ExpectSameAsLegacy("NAME FROM $T WHERE NAME LIKE 'NGC%'");
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
  // The kernel belongs to the WHERE clause: both tables take it, and the
  // access path still reads "seq scan".
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
  // Every VARCHAR column has a radix index, with or without the clause.
  plan = Plan("SELECT NAME FROM OBJ_ROW WHERE NAME LIKE 'NGC%'");
  EXPECT_NE(plan.find("prefix scan via (NAME), prefix 'NGC'"),
            std::string::npos)
      << plan;
  // Escaped wildcard resolves into the literal prefix.
  plan = Plan("SELECT NAME FROM OBJ WHERE NAME LIKE 'a\\%b%'");
  EXPECT_NE(plan.find("prefix 'a%b'"), std::string::npos) << plan;
}

TEST_F(StorePlannerTest, AggregateFastPathInExplain) {
  std::string plan = Plan("SELECT KIND, COUNT(*) FROM OBJ GROUP BY KIND");
  EXPECT_NE(plan.find("[columnar fast path]"), std::string::npos) << plan;
  // The fast path depends on the query's shape only.
  plan = Plan("SELECT KIND, COUNT(*) FROM OBJ_ROW GROUP BY KIND");
  EXPECT_NE(plan.find("[columnar fast path]"), std::string::npos) << plan;
  // HAVING keeps the row path.
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
// Rolled-back DELETEs leave the store in RowId order
// ---------------------------------------------------------------------------

TEST(RollbackOrderTest, RolledBackDeletesCompactBackIntoOrder) {
  Database db("ORDER");
  ASSERT_TRUE(db.Execute("CREATE TABLE P (ID INTEGER PRIMARY KEY, "
                         "NAME VARCHAR(16))")
                  .ok());
  ASSERT_TRUE(db.Execute("CREATE TABLE C (ID INTEGER PRIMARY KEY, "
                         "PID INTEGER, FOREIGN KEY (PID) REFERENCES P (ID))")
                  .ok());
  for (int i = 1; i <= 200; ++i) {
    ASSERT_TRUE(db.Execute("INSERT INTO P VALUES (" + std::to_string(i) +
                           ", 'p" + std::to_string(i) + "')")
                    .ok());
  }
  ASSERT_TRUE(db.Execute("INSERT INTO C VALUES (1, 150)").ok());
  const Table* p = *db.GetTable("P");
  const std::vector<RowId> all = p->FilterScan({});

  // An explicit ROLLBACK of a multi-row DELETE.
  ASSERT_TRUE(db.Execute("BEGIN").ok());
  ASSERT_TRUE(db.Execute("DELETE FROM P WHERE ID > 100 AND ID < 140").ok());
  ASSERT_TRUE(db.Execute("ROLLBACK").ok());
  EXPECT_TRUE(p->column_store().ordered());
  EXPECT_EQ(p->FilterScan({}), all);

  // An autocommit DELETE whose later row RESTRICT refuses: the statement
  // rollback re-inserts the rows it had already deleted.
  Result<QueryResult> refused =
      db.Execute("DELETE FROM P WHERE ID > 140 AND ID < 160");
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsConstraintViolation());
  EXPECT_TRUE(p->column_store().ordered());
  EXPECT_EQ(p->FilterScan({}), all);
  EXPECT_EQ(p->column_store().Slots(), all.size());
  Result<QueryResult> names =
      db.Execute("SELECT NAME FROM P WHERE NAME LIKE 'p14%'");
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names->rows.size(), 11u);  // p14, p140..p149
}

// ---------------------------------------------------------------------------
// UPDATE moves only the index entries whose cells change
// ---------------------------------------------------------------------------

class ReindexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>("REINDEX");
    Exec("CREATE TABLE A (AK INTEGER PRIMARY KEY, NAME VARCHAR(20))");
    Exec("CREATE TABLE T (ID INTEGER PRIMARY KEY, CODE VARCHAR(10), "
         "AK INTEGER, TAG VARCHAR(10), V DOUBLE, UNIQUE (CODE), "
         "FOREIGN KEY (AK) REFERENCES A (AK))");
    for (int a = 1; a <= 3; ++a) {
      Exec("INSERT INTO A VALUES (" + std::to_string(a) + ", 'a')");
    }
    for (int i = 1; i <= 12; ++i) {
      std::string ak = i % 4 == 0 ? "NULL" : std::to_string(1 + i % 3);
      std::string tag = i % 5 == 0 ? "NULL" : "'t" + std::to_string(i % 2) +
                                                  "'";
      Exec("INSERT INTO T VALUES (" + std::to_string(i) + ", 'c" +
           std::to_string(i) + "', " + ak + ", " + tag + ", " +
           std::to_string(i * 0.5) + ")");
    }
  }

  void Exec(const std::string& sql) {
    Result<QueryResult> r = db_->Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  }

  /// Every index of T answers like a scan of the stored rows: the PK and
  /// UNIQUE lookups, the FK secondary index, and both radix indexes.
  void ExpectIndexesMatchRows() {
    const Table* t = *db_->GetTable("T");
    std::map<std::string, std::vector<RowId>> by_ak;
    std::map<std::string, std::vector<RowId>> by_tag;
    std::vector<RowId> with_code;
    t->ForEachRow([&](RowId id, const Row& row) {
      Result<RowId> pk = t->FindUnique({"ID"}, {row[0]});
      EXPECT_TRUE(pk.ok() && *pk == id) << "ID " << row[0].AsInt();
      if (!row[1].is_null()) {
        Result<RowId> code = t->FindUnique({"CODE"}, {row[1]});
        EXPECT_TRUE(code.ok() && *code == id) << row[1].AsString();
        with_code.push_back(id);
      }
      if (!row[2].is_null()) by_ak[row[2].ToDisplayString()].push_back(id);
      if (!row[3].is_null()) by_tag[row[3].AsString()].push_back(id);
    });
    for (int a = 0; a <= 4; ++a) {
      Result<std::vector<RowId>> ids =
          t->FindByIndex({"AK"}, {Value::Integer(a)});
      ASSERT_TRUE(ids.ok());
      EXPECT_EQ(*ids, by_ak[std::to_string(a)]) << "AK " << a;
    }
    for (const char* tag : {"t0", "t1", "t2"}) {
      EXPECT_EQ(t->RadixPrefixRowIds("TAG", tag), by_tag[tag]) << tag;
    }
    EXPECT_EQ(t->RadixPrefixRowIds("CODE", "c"), with_code);
    std::vector<std::string> stale = t->RadixPrefixValues("CODE", "", 0);
    EXPECT_EQ(stale.size(), with_code.size());
  }

  std::unique_ptr<Database> db_;
};

TEST_F(ReindexTest, EveryIndexAgreesAfterNoneSomeAllChange) {
  ExpectIndexesMatchRows();
  // No indexed cell changes.
  Exec("UPDATE T SET V = V + 1");
  Exec("UPDATE T SET TAG = TAG, AK = AK WHERE ID < 6");
  ExpectIndexesMatchRows();
  // Some: the FK and one radix column.
  Exec("UPDATE T SET AK = 3, TAG = 't2' WHERE ID = 2");
  ExpectIndexesMatchRows();
  // All indexed cells of one row, the key included.
  Exec("UPDATE T SET ID = 99, CODE = 'c99', AK = 1, TAG = 't0' "
       "WHERE ID = 7");
  ExpectIndexesMatchRows();
  // NULL transitions, both ways, on the FK, the UNIQUE and a radix column.
  Exec("UPDATE T SET AK = NULL, CODE = NULL, TAG = NULL WHERE ID = 3");
  Exec("UPDATE T SET AK = 2, TAG = 't1' WHERE ID = 4");
  Exec("UPDATE T SET TAG = 't0' WHERE ID = 5");
  ExpectIndexesMatchRows();
  Exec("UPDATE T SET CODE = 'c3' WHERE ID = 3");
  ExpectIndexesMatchRows();
  // A refused update (duplicate UNIQUE) and a rollback move nothing.
  EXPECT_FALSE(db_->Execute("UPDATE T SET CODE = 'c1' WHERE ID = 2").ok());
  Exec("BEGIN");
  Exec("UPDATE T SET CODE = 'cx', TAG = 'tx', AK = NULL WHERE ID = 9");
  Exec("UPDATE T SET ID = 100, TAG = NULL WHERE ID = 10");
  Exec("ROLLBACK");
  ExpectIndexesMatchRows();
}

// ---------------------------------------------------------------------------
// Snapshots and WALs written while `STORE COLUMNAR` chose the layout
// ---------------------------------------------------------------------------

/// Rewrites a V4 snapshot image as version `version` (1-4), appending
/// ` STORE COLUMNAR` to the DDL of `columnar_table`, as the writer did
/// when the clause chose the layout. V1 carries no counters, V2 seven,
/// V3 and V4 eight; only V4 carries the planner-stats blocks.
Result<std::string> TranscodeSnapshot(const std::string& v4, int version,
                                      const std::string& columnar_table) {
  constexpr size_t kMagic = 10;
  Decoder dec(std::string_view(v4).substr(kMagic, v4.size() - kMagic - 4));
  std::string body;
  for (int i = 0; i < 8; ++i) {
    EASIA_ASSIGN_OR_RETURN(uint64_t counter, dec.GetU64());
    if (version >= 3 || (version == 2 && i < 7)) PutU64(&body, counter);
  }
  EASIA_ASSIGN_OR_RETURN(uint32_t tables, dec.GetU32());
  PutU32(&body, tables);
  for (uint32_t t = 0; t < tables; ++t) {
    EASIA_ASSIGN_OR_RETURN(std::string ddl, dec.GetLengthPrefixed());
    if (ddl.rfind("CREATE TABLE " + columnar_table + " ", 0) == 0) {
      ddl += " STORE COLUMNAR";
    }
    PutLengthPrefixed(&body, ddl);
    EASIA_ASSIGN_OR_RETURN(uint64_t next_row_id, dec.GetU64());
    PutU64(&body, next_row_id);
    EASIA_ASSIGN_OR_RETURN(uint32_t rows, dec.GetU32());
    PutU32(&body, rows);
    for (uint32_t r = 0; r < rows; ++r) {
      EASIA_ASSIGN_OR_RETURN(uint64_t id, dec.GetU64());
      PutU64(&body, id);
      EASIA_ASSIGN_OR_RETURN(Row row, DecodeRow(&dec));
      EncodeRow(&body, row);
    }
    EASIA_ASSIGN_OR_RETURN(std::string stats, dec.GetLengthPrefixed());
    if (version == 4) PutLengthPrefixed(&body, stats);
  }
  std::string out = "EASIASNAP" + std::to_string(version) + body;
  PutU32(&out, Crc32(body));
  return out;
}

/// Every table's DDL and live rows with their RowIds.
std::vector<std::string> DumpTables(const Database& db) {
  std::vector<std::string> out;
  for (const std::string& name : db.catalog().TableNames()) {
    const Table* table = *db.GetTable(name);
    out.push_back(table->def().ToSql());
    table->ForEachRow([&](RowId id, const Row& row) {
      std::string line = name + " " + std::to_string(id);
      for (const Value& v : row) line += " | " + v.ToDisplayString();
      out.push_back(line);
    });
  }
  return out;
}

/// A catalogue with a clause-declared table, churned so RowIds have gaps.
void BuildLayoutCatalogue(Database* db, const std::string& layout) {
  for (const std::string& sql : {
           "CREATE TABLE OBJ (ID INTEGER PRIMARY KEY, NAME VARCHAR(16), "
           "MAG DOUBLE, NOTE CLOB)" +
               layout,
           std::string("CREATE TABLE TAG (ID INTEGER PRIMARY KEY, "
                       "OBJ_ID INTEGER, T VARCHAR(8), "
                       "FOREIGN KEY (OBJ_ID) REFERENCES OBJ (ID))"),
       }) {
    ASSERT_TRUE(db->Execute(sql).ok()) << sql;
  }
  for (int i = 1; i <= 30; ++i) {
    std::string n = std::to_string(i);
    ASSERT_TRUE(db->Execute("INSERT INTO OBJ VALUES (" + n + ", 'NGC" + n +
                            "', " + n + ".5, " +
                            (i % 4 == 0 ? "NULL" : "'note " + n + "'") + ")")
                    .ok());
    ASSERT_TRUE(db->Execute("INSERT INTO TAG VALUES (" + n + ", " + n +
                            ", 't" + std::to_string(i % 3) + "')")
                    .ok());
  }
  for (const char* sql : {
           "UPDATE OBJ SET NAME = 'renamed', NOTE = NULL WHERE ID = 3",
           "DELETE FROM TAG WHERE ID > 20", "DELETE FROM OBJ WHERE ID > 25",
           "BEGIN", "DELETE FROM TAG WHERE ID < 5", "ROLLBACK",
           "INSERT INTO OBJ VALUES (40, 'M31', 3.4, 'after churn')"}) {
    ASSERT_TRUE(db->Execute(sql).ok()) << sql;
  }
}

TEST(LayoutClauseTest, SnapshotsOfEveryVersionLoadTheSameDump) {
  Database db("SNAP");
  BuildLayoutCatalogue(&db, " STORE COLUMNAR");
  if (HasFatalFailure()) return;
  const std::string v4 = db.SerializeSnapshot();
  ASSERT_EQ(v4.substr(0, 10), "EASIASNAP4");
  // The clause is no longer written back.
  EXPECT_EQ(v4.find("STORE COLUMNAR"), std::string::npos);
  const std::vector<std::string> dump = DumpTables(db);
  for (int version = 1; version <= 4; ++version) {
    SCOPED_TRACE("V" + std::to_string(version));
    Result<std::string> image = TranscodeSnapshot(v4, version, "OBJ");
    ASSERT_TRUE(image.ok()) << image.status().ToString();
    ASSERT_NE(image->find("STORE COLUMNAR"), std::string::npos);
    Database loaded("LOADED");
    ASSERT_TRUE(loaded.LoadSnapshotFromString(*image).ok());
    EXPECT_EQ(DumpTables(loaded), dump);
    // The secondary and radix indexes were rebuilt from the rows.
    Result<QueryResult> q = loaded.Execute(
        "SELECT T.ID FROM TAG T, OBJ O WHERE T.OBJ_ID = O.ID AND "
        "O.NAME LIKE 'NGC1%' AND T.T = 't1'");
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    EXPECT_EQ(q->rows.size(), 5u);  // 1, 10, 13, 16, 19
  }
}

TEST(LayoutClauseTest, WalWithTheClauseRecoversTheSameDump) {
  const std::string wal =
      (std::filesystem::temp_directory_path() /
       ("easia_layout_clause_" + std::to_string(::getpid()) + ".wal"))
          .string();
  std::remove(wal.c_str());
  DatabaseOptions opts;
  opts.wal_path = wal;
  std::vector<std::string> dump;
  {
    Database db("WAL", opts);
    ASSERT_TRUE(db.Recover().ok());
    BuildLayoutCatalogue(&db, " STORE COLUMNAR");
    if (HasFatalFailure()) return;
    dump = DumpTables(db);
  }
  Result<std::string> contents = io::RealEnv()->ReadFileToString(wal);
  ASSERT_TRUE(contents.ok());
  EXPECT_NE(contents->find("STORE COLUMNAR"), std::string::npos);
  Database recovered("WAL", opts);
  ASSERT_TRUE(recovered.Recover().ok());
  EXPECT_EQ(DumpTables(recovered), dump);
  // The same statements without the clause build the same state.
  Database plain("PLAIN");
  BuildLayoutCatalogue(&plain, "");
  EXPECT_EQ(DumpTables(plain), dump);
  std::remove(wal.c_str());
}

// ---------------------------------------------------------------------------
// Storage stats feed the observability gauges
// ---------------------------------------------------------------------------

TEST(StorageStatsTest, ColumnarTablesReportPagesAndRadix) {
  // Every table is columnar; R is declared without the (no-op) clause and
  // left empty.
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
  EXPECT_EQ(cs.rows, 50u);
  EXPECT_GT(cs.columnar_bytes, 0u);
  EXPECT_GT(cs.radix_nodes, 1u);
  EXPECT_GT(cs.radix_bytes, 0u);
  Table::StorageStats rs = (*r)->GetStorageStats();
  EXPECT_EQ(rs.rows, 0u);
  EXPECT_LT(rs.columnar_bytes, cs.columnar_bytes);
  EXPECT_EQ(rs.radix_nodes, 1u);  // NAME's index: the root alone
}

}  // namespace
}  // namespace easia::db
