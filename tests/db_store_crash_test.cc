#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "db/database.h"
#include "db/store/bulk_loader.h"
#include "testing/fault_injection.h"

namespace easia::db {
namespace {

constexpr const char* kCreateSql =
    "CREATE TABLE T (ID INTEGER PRIMARY KEY, NAME VARCHAR(32)) "
    "STORE COLUMNAR";
constexpr const char* kWalPath = "/wal";
constexpr const char* kBulkPath = "/bulk.ebk";
constexpr size_t kChunkRows = 3;
constexpr size_t kTotalRows = 10;  // chunks of 3, 3, 3, 1

std::vector<Row> SeedRows() {
  std::vector<Row> rows;
  for (size_t i = 0; i < kTotalRows; ++i) {
    rows.push_back({Value::Integer(static_cast<int64_t>(i)),
                    Value::Varchar("row" + std::to_string(i))});
  }
  return rows;
}

size_t RowsInChunks(uint64_t chunks) {
  size_t n = 0;
  for (uint64_t c = 0; c < chunks; ++c) {
    n += std::min(kChunkRows, kTotalRows - n);
  }
  return n;
}

struct CopyCrashOutcome {
  bool crashed = false;
  uint64_t wal_bytes = 0;
  /// Chunks the crash run durably committed (= acked to the caller).
  uint64_t acked_chunks = 0;
  std::vector<std::string> violations;
};

/// One COPY run against a fault-injected WAL, crashing after
/// `crash_after_bytes` WAL bytes (negative = never). After the crash the
/// environment restarts and a fresh engine recovers; the recovered table
/// must hold exactly the rows of the acked chunks — no torn chunk applied,
/// no acked chunk lost — and the bulk-chunk counter must match.
CopyCrashOutcome RunCopyCrashCase(int64_t crash_after_bytes) {
  CopyCrashOutcome outcome;
  testing::FaultPlan plan;
  plan.crash_after_bytes = crash_after_bytes;
  plan.crash_path_filter = kWalPath;
  plan.survival = testing::CrashSurvival::kAll;
  testing::FaultyEnv env(plan);

  DatabaseOptions opts;
  opts.wal_path = kWalPath;
  opts.env = &env;

  {
    Database db("CRASH", opts);
    Status create = db.Execute(kCreateSql).status();
    if (create.ok()) {
      Status wrote = store::WriteBulkFile(
          &env, kBulkPath, **db.catalog().GetTable("T"), SeedRows(),
          kChunkRows);
      if (wrote.ok()) {
        // The COPY either succeeds or fails mid-file; either way the
        // chunks it acked are exactly stats().bulk_chunks.
        (void)db.Execute(std::string("COPY T FROM '") + kBulkPath + "'");
      }
    }
    outcome.acked_chunks = db.stats().bulk_chunks;
  }

  outcome.crashed = env.crashed();
  outcome.wal_bytes = env.bytes_appended();

  env.Reopen();
  Database recovered("CRASH", opts);
  Status rs = recovered.Recover();
  if (!rs.ok()) {
    outcome.violations.push_back("recover failed: " +
                                 std::string(rs.message()));
    return outcome;
  }

  size_t expected_rows = RowsInChunks(outcome.acked_chunks);
  size_t got_rows = 0;
  Result<const Table*> table = recovered.GetTable("T");
  if (table.ok()) {
    size_t next_id = 0;
    bool ordered = true;
    (*table)->ForEachRow([&](RowId, const Row& row) {
      if (static_cast<size_t>(row[0].AsInt()) != next_id) ordered = false;
      ++next_id;
      ++got_rows;
    });
    if (!ordered) {
      outcome.violations.push_back("recovered rows out of order or gapped");
    }
  } else if (outcome.acked_chunks > 0) {
    outcome.violations.push_back("acked chunks but table missing");
  }
  if (got_rows != expected_rows) {
    outcome.violations.push_back(
        "recovered " + std::to_string(got_rows) + " rows, acked chunks say " +
        std::to_string(expected_rows));
  }
  if (recovered.stats().bulk_chunks != outcome.acked_chunks) {
    outcome.violations.push_back(
        "recovered bulk_chunks " +
        std::to_string(recovered.stats().bulk_chunks) + " != acked " +
        std::to_string(outcome.acked_chunks));
  }
  return outcome;
}

std::string Describe(const CopyCrashOutcome& o) {
  std::string out;
  for (const std::string& v : o.violations) {
    out += v;
    out += "\n";
  }
  return out;
}

/// Uncrashed baseline: every chunk acked, everything recovered.
TEST(CopyCrashTest, UncrashedRunRecoversEveryChunk) {
  CopyCrashOutcome o = RunCopyCrashCase(-1);
  EXPECT_TRUE(o.violations.empty()) << Describe(o);
  EXPECT_FALSE(o.crashed);
  EXPECT_EQ(o.acked_chunks, 4u);
  EXPECT_GT(o.wal_bytes, 0u);
}

/// Sweep a crash across every byte boundary of the WAL stream — through
/// the DDL record and each per-chunk kBulkLoad/commit pair. At every
/// boundary, recovery must land on an exact chunk prefix: the acked chunks
/// and nothing else.
TEST(CopyCrashTest, EveryWalByteBoundaryRecoversAckedChunksExactly) {
  CopyCrashOutcome full = RunCopyCrashCase(-1);
  ASSERT_TRUE(full.violations.empty()) << Describe(full);
  ASSERT_GT(full.wal_bytes, 0u);

  uint64_t max_acked = 0;
  for (uint64_t boundary = 0; boundary <= full.wal_bytes; ++boundary) {
    CopyCrashOutcome o = RunCopyCrashCase(static_cast<int64_t>(boundary));
    EXPECT_TRUE(o.violations.empty())
        << "crash at byte " << boundary << " of " << full.wal_bytes << ":\n"
        << Describe(o);
    if (!o.violations.empty()) break;
    if (boundary < full.wal_bytes) {
      EXPECT_TRUE(o.crashed);
    }
    // Acked chunks grow monotonically with the crash point and reach the
    // full file — i.e. the sweep really does cross every chunk boundary.
    EXPECT_GE(o.acked_chunks, max_acked);
    max_acked = std::max(max_acked, o.acked_chunks);
  }
  EXPECT_EQ(max_acked, 4u);
}

/// A checkpoint between COPY and the crash folds the bulk rows and the
/// chunk counter into the snapshot; recovery from snapshot + empty WAL
/// reports the same state.
TEST(CopyCrashTest, CheckpointCarriesBulkStateAcrossRestart) {
  testing::FaultPlan plan;
  testing::FaultyEnv env(plan);
  DatabaseOptions opts;
  opts.wal_path = kWalPath;
  opts.snapshot_path = "/snap";
  opts.env = &env;
  {
    Database db("CKPT", opts);
    ASSERT_TRUE(db.Execute(kCreateSql).ok());
    ASSERT_TRUE(store::WriteBulkFile(&env, kBulkPath,
                                     **db.catalog().GetTable("T"), SeedRows(),
                                     kChunkRows)
                    .ok());
    ASSERT_TRUE(
        db.Execute(std::string("COPY T FROM '") + kBulkPath + "'").ok());
    ASSERT_EQ(db.stats().bulk_chunks, 4u);
    ASSERT_TRUE(db.Checkpoint().ok());
  }
  env.Reopen();
  Database recovered("CKPT", opts);
  ASSERT_TRUE(recovered.Recover().ok());
  EXPECT_EQ(recovered.stats().bulk_chunks, 4u);
  Result<const Table*> table = recovered.GetTable("T");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->RowCount(), kTotalRows);
  // The recovered table has its radix index rebuilt.
  EXPECT_TRUE((*table)->HasRadixIndex("NAME"));
  EXPECT_EQ((*table)->RadixPrefixRowIds("NAME", "row").size(), kTotalRows);
}

}  // namespace
}  // namespace easia::db
