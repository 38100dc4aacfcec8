#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/string_util.h"
#include "common/random.h"
#include "db/database.h"
#include "fileserver/file_server.h"
#include "med/datalink_manager.h"
#include "med/token.h"

namespace easia::med {
namespace {

// ---- TokenManager ----

TEST(TokenTest, IssueAndValidate) {
  TokenManager tokens("secret", 300);
  std::string token = tokens.Issue("/archive/file.tbf", 1000.0);
  EXPECT_TRUE(tokens.Validate(token, "/archive/file.tbf", 1100.0).ok());
  EXPECT_EQ(tokens.issued(), 1u);
  EXPECT_EQ(tokens.validated_ok(), 1u);
}

TEST(TokenTest, ExpiresAfterTtl) {
  TokenManager tokens("secret", 300);
  std::string token = tokens.Issue("/f", 1000.0);
  EXPECT_TRUE(tokens.Validate(token, "/f", 1299.0).ok());
  Status late = tokens.Validate(token, "/f", 1301.0);
  EXPECT_TRUE(late.IsTokenExpired());
}

TEST(TokenTest, BoundToPath) {
  TokenManager tokens("secret", 300);
  std::string token = tokens.Issue("/fileA", 0.0);
  EXPECT_TRUE(tokens.Validate(token, "/fileB", 1.0).IsPermissionDenied());
}

TEST(TokenTest, KeyedBySecret) {
  TokenManager a("secret-a", 300), b("secret-b", 300);
  std::string token = a.Issue("/f", 0.0);
  EXPECT_TRUE(b.Validate(token, "/f", 1.0).IsPermissionDenied());
}

TEST(TokenTest, GarbageRejected) {
  TokenManager tokens("secret", 300);
  EXPECT_TRUE(tokens.Validate("", "/f", 0.0).IsPermissionDenied());
  EXPECT_TRUE(tokens.Validate("notatoken", "/f", 0.0).IsPermissionDenied());
  EXPECT_TRUE(tokens.Validate("!!!***", "/f", 0.0).IsPermissionDenied());
  EXPECT_EQ(tokens.rejected(), 3u);
}

TEST(TokenTest, CustomTtl) {
  TokenManager tokens("secret", 300);
  std::string token = tokens.IssueWithTtl("/f", 0.0, 10.0);
  EXPECT_TRUE(tokens.Validate(token, "/f", 9.0).ok());
  EXPECT_TRUE(tokens.Validate(token, "/f", 11.0).IsTokenExpired());
}

class TokenTamperTest : public ::testing::TestWithParam<int> {};

TEST_P(TokenTamperTest, AnySingleCharacterTamperIsRejected) {
  TokenManager tokens("secret", 300);
  std::string token = tokens.Issue("/archive/data.tbf", 1000.0);
  Random rng(static_cast<uint64_t>(GetParam()));
  static const char kB64[] =
      "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_";
  for (int trial = 0; trial < 50; ++trial) {
    std::string tampered = token;
    size_t pos = rng.Uniform(tampered.size());
    char replacement = kB64[rng.Uniform(64)];
    if (replacement == tampered[pos]) continue;
    tampered[pos] = replacement;
    Status s = tokens.Validate(tampered, "/archive/data.tbf", 1000.0);
    // Either the MAC breaks (denied) or the expiry field grew but the MAC
    // still breaks — never OK.
    EXPECT_FALSE(s.ok()) << "tampering position " << pos << " accepted";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TokenTamperTest, ::testing::Range(1, 5));

// ---- DataLinker two-phase protocol ----

class DataLinkerTest : public ::testing::Test {
 protected:
  DataLinkerTest() : server_("fs1"), linker_(&server_) {
    EXPECT_TRUE(server_.vfs().WriteFile("/data/f1.tbf", "bytes").ok());
    EXPECT_TRUE(server_.vfs().WriteFile("/data/f2.tbf", "bytes").ok());
    options_.file_link_control = true;
    options_.read_permission = db::DatalinkOptions::ReadPermission::kDb;
  }

  fs::FileServer server_;
  DataLinker linker_;
  db::DatalinkOptions options_;
};

TEST_F(DataLinkerTest, LinkCommitPins) {
  ASSERT_TRUE(linker_.PrepareLink(1, options_, "/data/f1.tbf").ok());
  EXPECT_FALSE(linker_.IsLinked("/data/f1.tbf"));  // pending, not committed
  linker_.CommitTxn(1);
  EXPECT_TRUE(linker_.IsLinked("/data/f1.tbf"));
  EXPECT_TRUE(server_.vfs().IsPinned("/data/f1.tbf"));
  // Referential integrity: rename/delete refused.
  EXPECT_FALSE(server_.vfs().DeleteFile("/data/f1.tbf").ok());
  EXPECT_FALSE(server_.vfs().RenameFile("/data/f1.tbf", "/data/x").ok());
  EXPECT_FALSE(server_.vfs().WriteFile("/data/f1.tbf", "overwrite").ok());
}

TEST_F(DataLinkerTest, LinkAbortReleases) {
  ASSERT_TRUE(linker_.PrepareLink(1, options_, "/data/f1.tbf").ok());
  linker_.AbortTxn(1);
  EXPECT_FALSE(linker_.IsLinked("/data/f1.tbf"));
  EXPECT_FALSE(server_.vfs().IsPinned("/data/f1.tbf"));
  // The file is linkable again.
  EXPECT_TRUE(linker_.PrepareLink(2, options_, "/data/f1.tbf").ok());
}

TEST_F(DataLinkerTest, MissingFileVetoed) {
  Status s = linker_.PrepareLink(1, options_, "/data/nope.tbf");
  EXPECT_TRUE(s.IsNotFound());
}

TEST_F(DataLinkerTest, NoFileLinkControlSkipsExistenceCheck) {
  db::DatalinkOptions no_control;
  no_control.file_link_control = false;
  EXPECT_TRUE(linker_.PrepareLink(1, no_control, "/data/nope.tbf").ok());
  linker_.CommitTxn(1);
  EXPECT_FALSE(server_.vfs().IsPinned("/data/nope.tbf"));
}

TEST_F(DataLinkerTest, DoubleLinkConflicts) {
  ASSERT_TRUE(linker_.PrepareLink(1, options_, "/data/f1.tbf").ok());
  EXPECT_TRUE(
      linker_.PrepareLink(2, options_, "/data/f1.tbf").code() ==
      StatusCode::kAlreadyExists);
  linker_.CommitTxn(1);
  EXPECT_TRUE(
      linker_.PrepareLink(3, options_, "/data/f1.tbf").code() ==
      StatusCode::kAlreadyExists);
}

TEST_F(DataLinkerTest, UnlinkCommitUnpins) {
  ASSERT_TRUE(linker_.PrepareLink(1, options_, "/data/f1.tbf").ok());
  linker_.CommitTxn(1);
  ASSERT_TRUE(linker_.PrepareUnlink(2, options_, "/data/f1.tbf").ok());
  EXPECT_TRUE(server_.vfs().IsPinned("/data/f1.tbf"));  // until commit
  linker_.CommitTxn(2);
  EXPECT_FALSE(linker_.IsLinked("/data/f1.tbf"));
  EXPECT_FALSE(server_.vfs().IsPinned("/data/f1.tbf"));
}

TEST_F(DataLinkerTest, UnlinkAbortKeepsLink) {
  ASSERT_TRUE(linker_.PrepareLink(1, options_, "/data/f1.tbf").ok());
  linker_.CommitTxn(1);
  ASSERT_TRUE(linker_.PrepareUnlink(2, options_, "/data/f1.tbf").ok());
  linker_.AbortTxn(2);
  EXPECT_TRUE(linker_.IsLinked("/data/f1.tbf"));
  EXPECT_TRUE(server_.vfs().IsPinned("/data/f1.tbf"));
}

TEST_F(DataLinkerTest, LinkUnlinkInSameTxnCancels) {
  ASSERT_TRUE(linker_.PrepareLink(1, options_, "/data/f1.tbf").ok());
  ASSERT_TRUE(linker_.PrepareUnlink(1, options_, "/data/f1.tbf").ok());
  linker_.CommitTxn(1);
  EXPECT_FALSE(linker_.IsLinked("/data/f1.tbf"));
  EXPECT_FALSE(server_.vfs().IsPinned("/data/f1.tbf"));
}

TEST_F(DataLinkerTest, OnUnlinkDeleteRemovesFile) {
  options_.on_unlink = db::DatalinkOptions::OnUnlink::kDelete;
  ASSERT_TRUE(linker_.PrepareLink(1, options_, "/data/f1.tbf").ok());
  linker_.CommitTxn(1);
  ASSERT_TRUE(linker_.PrepareUnlink(2, options_, "/data/f1.tbf").ok());
  linker_.CommitTxn(2);
  EXPECT_FALSE(server_.vfs().Exists("/data/f1.tbf"));
}

TEST_F(DataLinkerTest, InterleavedTransactionsFinishIndependently) {
  // Txn 1 relinks f1 -> f2 and is committed; txn 2, interleaved with it,
  // links f3 and ON UNLINK DELETE-unlinks f4, and is aborted. Each
  // finish touches only its own entries.
  ASSERT_TRUE(server_.vfs().WriteFile("/data/f3.tbf", "bytes").ok());
  ASSERT_TRUE(server_.vfs().WriteFile("/data/f4.tbf", "bytes").ok());
  db::DatalinkOptions delete_on_unlink = options_;
  delete_on_unlink.on_unlink = db::DatalinkOptions::OnUnlink::kDelete;
  ASSERT_TRUE(linker_.PrepareLink(10, options_, "/data/f1.tbf").ok());
  ASSERT_TRUE(linker_.PrepareLink(10, delete_on_unlink, "/data/f4.tbf").ok());
  linker_.CommitTxn(10);
  EXPECT_EQ(linker_.PendingCount(), 0u);

  ASSERT_TRUE(linker_.PrepareUnlink(1, options_, "/data/f1.tbf").ok());
  ASSERT_TRUE(linker_.PrepareLink(2, options_, "/data/f3.tbf").ok());
  ASSERT_TRUE(linker_.PrepareLink(1, options_, "/data/f2.tbf").ok());
  ASSERT_TRUE(
      linker_.PrepareUnlink(2, delete_on_unlink, "/data/f4.tbf").ok());
  EXPECT_EQ(linker_.PendingCount(), 4u);
  // Neither transaction may take the other's pending path.
  EXPECT_EQ(linker_.PrepareUnlink(1, options_, "/data/f3.tbf").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(linker_.PrepareLink(2, options_, "/data/f2.tbf").code(),
            StatusCode::kAlreadyExists);

  linker_.CommitTxn(1);
  EXPECT_EQ(linker_.PendingCount(), 2u);
  EXPECT_FALSE(linker_.IsLinked("/data/f1.tbf"));
  EXPECT_FALSE(server_.vfs().IsPinned("/data/f1.tbf"));
  EXPECT_TRUE(linker_.IsLinked("/data/f2.tbf"));
  EXPECT_TRUE(server_.vfs().IsPinned("/data/f2.tbf"));
  // Txn 2's entries are untouched by txn 1's commit.
  EXPECT_FALSE(linker_.IsLinked("/data/f3.tbf"));
  EXPECT_TRUE(server_.vfs().IsPinned("/data/f4.tbf"));

  linker_.AbortTxn(2);
  EXPECT_EQ(linker_.PendingCount(), 0u);
  EXPECT_FALSE(linker_.IsLinked("/data/f3.tbf"));
  EXPECT_FALSE(server_.vfs().IsPinned("/data/f3.tbf"));
  // The aborted ON UNLINK DELETE kept both the link and the file.
  EXPECT_TRUE(linker_.IsLinked("/data/f4.tbf"));
  EXPECT_TRUE(server_.vfs().Exists("/data/f4.tbf"));
  EXPECT_TRUE(server_.vfs().IsPinned("/data/f4.tbf"));
  // Finishing an unknown or already finished transaction is a no-op.
  linker_.CommitTxn(1);
  linker_.AbortTxn(99);
  EXPECT_TRUE(linker_.IsLinked("/data/f2.tbf"));
  EXPECT_TRUE(linker_.IsLinked("/data/f4.tbf"));
}

TEST_F(DataLinkerTest, CancelledChangesLeaveNothingPending) {
  // Link then unlink in one transaction cancels before the commit.
  ASSERT_TRUE(linker_.PrepareLink(1, options_, "/data/f1.tbf").ok());
  ASSERT_TRUE(linker_.PrepareUnlink(1, options_, "/data/f1.tbf").ok());
  EXPECT_EQ(linker_.PendingCount(), 0u);
  // Unlink then relink of a committed link in one transaction keeps it.
  ASSERT_TRUE(linker_.PrepareLink(2, options_, "/data/f2.tbf").ok());
  linker_.CommitTxn(2);
  ASSERT_TRUE(linker_.PrepareUnlink(3, options_, "/data/f2.tbf").ok());
  EXPECT_EQ(linker_.PendingCount(), 1u);
  ASSERT_TRUE(linker_.PrepareLink(3, options_, "/data/f2.tbf").ok());
  EXPECT_EQ(linker_.PendingCount(), 0u);
  linker_.CommitTxn(3);
  linker_.CommitTxn(1);
  EXPECT_FALSE(linker_.IsLinked("/data/f1.tbf"));
  EXPECT_FALSE(server_.vfs().IsPinned("/data/f1.tbf"));
  EXPECT_TRUE(linker_.IsLinked("/data/f2.tbf"));
  EXPECT_TRUE(server_.vfs().IsPinned("/data/f2.tbf"));
  // The cancelled path is free for another transaction.
  ASSERT_TRUE(linker_.PrepareLink(4, options_, "/data/f1.tbf").ok());
  linker_.AbortTxn(4);
  EXPECT_EQ(linker_.PendingCount(), 0u);
}

// ---- DataLinkManager + Database integration ----

class MedIntegrationTest : public ::testing::Test {
 protected:
  MedIntegrationTest()
      : clock_(1000.0), manager_(&fleet_, &clock_, "secret", 300.0),
        db_("MEDTEST") {
    server_ = fleet_.AddServer("fs1");
    db_.set_coordinator(&manager_);
    EXPECT_TRUE(db_.Execute(
        "CREATE TABLE RESULT_FILE ("
        " FILE_NAME VARCHAR(100) PRIMARY KEY,"
        " DOWNLOAD DATALINK LINKTYPE URL FILE LINK CONTROL "
        "   READ PERMISSION DB RECOVERY YES)").ok());
    EXPECT_TRUE(server_->vfs().WriteFile("/d/a.tbf", "AAAA").ok());
    EXPECT_TRUE(server_->vfs().WriteFile("/d/b.tbf", "BBBB").ok());
  }

  ManualClock clock_;
  fs::FileServerFleet fleet_;
  DataLinkManager manager_;
  db::Database db_;
  fs::FileServer* server_;
};

TEST_F(MedIntegrationTest, InsertLinksAndPins) {
  ASSERT_TRUE(db_.Execute("INSERT INTO RESULT_FILE VALUES "
                          "('a.tbf', 'http://fs1/d/a.tbf')").ok());
  EXPECT_TRUE(server_->vfs().IsPinned("/d/a.tbf"));
  EXPECT_EQ(manager_.TotalLinkedFiles(), 1u);
}

TEST_F(MedIntegrationTest, InsertMissingFileFails) {
  Status s = db_.Execute("INSERT INTO RESULT_FILE VALUES "
                         "('x.tbf', 'http://fs1/d/missing.tbf')").status();
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(db_.Execute("SELECT * FROM RESULT_FILE")->rows.size(), 0u);
}

TEST_F(MedIntegrationTest, InsertUnknownHostFails) {
  Status s = db_.Execute("INSERT INTO RESULT_FILE VALUES "
                         "('x.tbf', 'http://nowhere/d/a.tbf')").status();
  EXPECT_FALSE(s.ok());
}

TEST_F(MedIntegrationTest, RolledBackInsertDoesNotPin) {
  ASSERT_TRUE(db_.Execute("BEGIN").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO RESULT_FILE VALUES "
                          "('a.tbf', 'http://fs1/d/a.tbf')").ok());
  ASSERT_TRUE(db_.Execute("ROLLBACK").ok());
  EXPECT_FALSE(server_->vfs().IsPinned("/d/a.tbf"));
  EXPECT_EQ(manager_.TotalLinkedFiles(), 0u);
  // And it can be linked later.
  EXPECT_TRUE(db_.Execute("INSERT INTO RESULT_FILE VALUES "
                          "('a.tbf', 'http://fs1/d/a.tbf')").ok());
}

TEST_F(MedIntegrationTest, DeleteUnlinks) {
  ASSERT_TRUE(db_.Execute("INSERT INTO RESULT_FILE VALUES "
                          "('a.tbf', 'http://fs1/d/a.tbf')").ok());
  ASSERT_TRUE(db_.Execute("DELETE FROM RESULT_FILE").ok());
  EXPECT_FALSE(server_->vfs().IsPinned("/d/a.tbf"));
  EXPECT_TRUE(server_->vfs().DeleteFile("/d/a.tbf").ok());
}

TEST_F(MedIntegrationTest, UpdateSwapsLinks) {
  ASSERT_TRUE(db_.Execute("INSERT INTO RESULT_FILE VALUES "
                          "('a.tbf', 'http://fs1/d/a.tbf')").ok());
  ASSERT_TRUE(db_.Execute("UPDATE RESULT_FILE SET DOWNLOAD = "
                          "'http://fs1/d/b.tbf'").ok());
  EXPECT_FALSE(server_->vfs().IsPinned("/d/a.tbf"));
  EXPECT_TRUE(server_->vfs().IsPinned("/d/b.tbf"));
}

TEST_F(MedIntegrationTest, DoubleInsertOfSameFileConflicts) {
  ASSERT_TRUE(db_.Execute("INSERT INTO RESULT_FILE VALUES "
                          "('a.tbf', 'http://fs1/d/a.tbf')").ok());
  Status s = db_.Execute("INSERT INTO RESULT_FILE VALUES "
                         "('a2.tbf', 'http://fs1/d/a.tbf')").status();
  EXPECT_EQ(s.code(), StatusCode::kAlreadyExists);
}

TEST_F(MedIntegrationTest, SelectRewritesToTokenForm) {
  ASSERT_TRUE(db_.Execute("INSERT INTO RESULT_FILE VALUES "
                          "('a.tbf', 'http://fs1/d/a.tbf')").ok());
  Result<db::QueryResult> r =
      db_.Execute("SELECT DOWNLOAD FROM RESULT_FILE");
  ASSERT_TRUE(r.ok());
  std::string url = r->rows[0][0].AsString();
  EXPECT_NE(url.find(';'), std::string::npos) << url;
  // The tokenised URL opens the file; the raw one does not.
  EXPECT_TRUE(server_->GetUrl(url).ok());
  EXPECT_FALSE(server_->GetUrl("http://fs1/d/a.tbf").ok());
}

TEST_F(MedIntegrationTest, TokenisedUrlExpires) {
  ASSERT_TRUE(db_.Execute("INSERT INTO RESULT_FILE VALUES "
                          "('a.tbf', 'http://fs1/d/a.tbf')").ok());
  std::string url =
      db_.Execute("SELECT DOWNLOAD FROM RESULT_FILE")->rows[0][0].AsString();
  clock_.Advance(301.0);
  Status s = server_->GetUrl(url).status();
  EXPECT_TRUE(s.IsTokenExpired()) << s.ToString();
}

TEST_F(MedIntegrationTest, GuestGetsNoToken) {
  manager_.set_read_privilege_check(
      [](const std::string& user) { return user != "guest"; });
  ASSERT_TRUE(db_.Execute("INSERT INTO RESULT_FILE VALUES "
                          "('a.tbf', 'http://fs1/d/a.tbf')").ok());
  db::ExecContext guest;
  guest.user = "guest";
  Result<db::QueryResult> r =
      db_.Execute("SELECT DOWNLOAD FROM RESULT_FILE", guest);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsString(), "http://fs1/d/a.tbf");  // no token
}

TEST_F(MedIntegrationTest, ReadPermissionFsNeedsNoToken) {
  ASSERT_TRUE(db_.Execute(
      "CREATE TABLE OPEN_FILE (N VARCHAR(10) PRIMARY KEY,"
      " D DATALINK LINKTYPE URL FILE LINK CONTROL READ PERMISSION FS)").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO OPEN_FILE VALUES "
                          "('b', 'http://fs1/d/b.tbf')").ok());
  std::string url =
      db_.Execute("SELECT D FROM OPEN_FILE")->rows[0][0].AsString();
  EXPECT_EQ(url, "http://fs1/d/b.tbf");  // unchanged
  EXPECT_TRUE(server_->GetUrl(url).ok());  // and directly readable
}

TEST_F(MedIntegrationTest, TokenMustNotBeStoredOnInsert) {
  std::string token_url = "http://fs1/d/ABCDEF;a.tbf";
  Status s = db_.Execute("INSERT INTO RESULT_FILE VALUES ('x', '" +
                         token_url + "')").status();
  EXPECT_FALSE(s.ok());
}

}  // namespace
}  // namespace easia::med

namespace easia::med {
namespace {

// Property: under random Prepare/Commit/Abort sequences, the DataLinker
// never leaves a pin without a committed link, never loses a committed
// link without an unlink, and clears all pending state when every open
// transaction terminates.
class LinkerPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(LinkerPropertyTest, RandomSequencesKeepInvariants) {
  Random rng(static_cast<uint64_t>(GetParam()) * 7919 + 5);
  fs::FileServer server("fs");
  DataLinker linker(&server);
  db::DatalinkOptions options;
  options.file_link_control = true;
  constexpr int kFiles = 8;
  for (int f = 0; f < kFiles; ++f) {
    ASSERT_TRUE(
        server.vfs().WriteFile(StrPrintf("/f%d", f), "x").ok());
  }
  std::set<uint64_t> open_txns;
  uint64_t next_txn = 1;
  for (int step = 0; step < 400; ++step) {
    std::string path = StrPrintf("/f%d", static_cast<int>(rng.Uniform(kFiles)));
    switch (rng.Uniform(5)) {
      case 0: {  // new txn with a link attempt
        uint64_t txn = next_txn++;
        if (linker.PrepareLink(txn, options, path).ok()) {
          open_txns.insert(txn);
        }
        break;
      }
      case 1: {  // new txn with an unlink attempt
        uint64_t txn = next_txn++;
        if (linker.PrepareUnlink(txn, options, path).ok()) {
          open_txns.insert(txn);
        }
        break;
      }
      case 2:
      case 3: {  // commit a random open txn
        if (!open_txns.empty()) {
          auto it = open_txns.begin();
          std::advance(it, rng.Uniform(open_txns.size()));
          linker.CommitTxn(*it);
          open_txns.erase(it);
        }
        break;
      }
      case 4: {  // abort a random open txn
        if (!open_txns.empty()) {
          auto it = open_txns.begin();
          std::advance(it, rng.Uniform(open_txns.size()));
          linker.AbortTxn(*it);
          open_txns.erase(it);
        }
        break;
      }
    }
    // Invariant: every pinned file is linked (pins never dangle).
    for (int f = 0; f < kFiles; ++f) {
      std::string p = StrPrintf("/f%d", f);
      if (server.vfs().IsPinned(p)) {
        EXPECT_TRUE(linker.IsLinked(p) ||
                    linker.PendingCount() > 0)  // unlink may be pending
            << p << " pinned without link at step " << step;
      }
    }
  }
  // Terminate everything; no pending state may survive.
  for (uint64_t txn : open_txns) linker.AbortTxn(txn);
  EXPECT_EQ(linker.PendingCount(), 0u);
  // Final strict invariant: pinned <=> linked.
  for (int f = 0; f < kFiles; ++f) {
    std::string p = StrPrintf("/f%d", f);
    EXPECT_EQ(server.vfs().IsPinned(p), linker.IsLinked(p)) << p;
  }
  // And every linked file can still be unlinked cleanly.
  uint64_t cleanup = next_txn++;
  for (const std::string& p : linker.LinkedPaths()) {
    EXPECT_TRUE(linker.PrepareUnlink(cleanup, options, p).ok()) << p;
  }
  linker.CommitTxn(cleanup);
  EXPECT_TRUE(linker.LinkedPaths().empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, LinkerPropertyTest, ::testing::Range(0, 8));

}  // namespace
}  // namespace easia::med
