#ifndef EASIA_MED_DATALINKER_H_
#define EASIA_MED_DATALINKER_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "db/datalink_options.h"
#include "fileserver/file_server.h"

namespace easia::med {

/// Per-file link state kept by a DataLinker agent.
struct LinkEntry {
  enum class State {
    kLinkPending,    // PrepareLink accepted, awaiting COMMIT
    kLinked,         // committed: file pinned, owned by the database
    kUnlinkPending,  // PrepareUnlink accepted, awaiting COMMIT
  };
  State state = State::kLinkPending;
  uint64_t txn_id = 0;  // transaction holding the pending change
  db::DatalinkOptions options;
};

/// The file-manager agent running on one file-server host (the analogue of
/// DB2's Data Links File Manager). It enforces SQL/MED semantics locally:
///
///  * referential integrity — linked files are pinned in the VFS, so they
///    cannot be renamed or deleted behind the database's back;
///  * transaction consistency — link/unlink intents are two-phase: Prepare*
///    may veto (file missing, already linked), Commit/Abort finalise;
///  * security — for READ PERMISSION DB files, reads must present a valid
///    access token (the linker installs a read gate on its file server).
class DataLinker {
 public:
  explicit DataLinker(fs::FileServer* server) : server_(server) {}

  const std::string& host() const { return server_->host(); }
  fs::FileServer* server() { return server_; }

  /// Phase one of linking `path`. Verifies existence (FILE LINK CONTROL)
  /// and that no other link (or pending link) covers the file.
  Status PrepareLink(uint64_t txn_id, const db::DatalinkOptions& options,
                     const std::string& path);

  /// Phase one of unlinking.
  Status PrepareUnlink(uint64_t txn_id, const db::DatalinkOptions& options,
                       const std::string& path);

  /// Phase two: commits / aborts every pending entry of `txn_id`. Both
  /// visit only that transaction's pending paths (in path order), so their
  /// cost is independent of how many files are linked.
  void CommitTxn(uint64_t txn_id);
  void AbortTxn(uint64_t txn_id);

  bool IsLinked(const std::string& path) const;
  /// Options a path was linked under (error when not linked).
  Result<db::DatalinkOptions> LinkedOptions(const std::string& path) const;

  /// Drops all link state for `path`, releasing its pin. Reconciliation
  /// only: used when the database row a link served no longer exists
  /// (orphaned file) or the file itself is gone (dangling link), outside
  /// any transaction.
  void ForgetLink(const std::string& path);

  /// All committed links (for backup and reconcile).
  std::vector<std::string> LinkedPaths() const;
  size_t PendingCount() const;

  /// Read-gate check used by the file server: files linked with READ
  /// PERMISSION DB require a token validated by `validate`.
  Status CheckRead(const std::string& path, const std::string& token,
                   const std::function<Status(const std::string& token,
                                              const std::string& path)>&
                       validate) const;

 private:
  /// Removes `path` from `txn_id`'s pending record (a cancelled change).
  void DropPending(uint64_t txn_id, const std::string& path);

  fs::FileServer* server_;
  std::map<std::string, LinkEntry> links_;
  /// Paths whose entry is kLinkPending or kUnlinkPending, by the owning
  /// transaction. Exact: a path is listed iff its entry is pending for that
  /// transaction, so the record is empty between statements.
  std::map<uint64_t, std::set<std::string>> pending_;
};

}  // namespace easia::med

#endif  // EASIA_MED_DATALINKER_H_
