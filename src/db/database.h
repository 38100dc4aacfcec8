#ifndef EASIA_DB_DATABASE_H_
#define EASIA_DB_DATABASE_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "db/ast.h"
#include "db/schema.h"
#include "db/stats/index_advisor.h"
#include "db/table.h"
#include "db/wal.h"

namespace easia::obs {
class Tracer;
}  // namespace easia::obs

namespace easia::db {

/// The result of executing one SQL statement. For queries, `rows` holds the
/// projected values; for DML, `rows_affected` counts modified rows.
struct QueryResult {
  bool is_query = false;
  std::vector<std::string> column_names;
  std::vector<DataType> column_types;
  std::vector<Row> rows;
  size_t rows_affected = 0;

  Result<size_t> ColumnIndex(std::string_view name) const;
  /// Cell accessor with bounds checking (tests & web layer convenience).
  Result<Value> At(size_t row, std::string_view column) const;
};

/// The SQL/MED hook: the database engine delegates file-side effects of
/// DATALINK columns to a coordinator (implemented by med::DataLinkManager).
/// Link/unlink intents accumulate under a transaction id and are resolved
/// at COMMIT (two-phase: Prepare* may veto, Commit/Abort may not fail).
class DatalinkCoordinator {
 public:
  virtual ~DatalinkCoordinator() = default;

  /// Called when a DATALINK value is inserted (or set by UPDATE) under FILE
  /// LINK CONTROL. Must verify the file exists and is linkable, and pin it
  /// provisionally.
  virtual Status PrepareLink(uint64_t txn_id, const DatalinkOptions& options,
                             const std::string& url) = 0;

  /// Called when a DATALINK value is removed (DELETE, or UPDATE replacing).
  virtual Status PrepareUnlink(uint64_t txn_id,
                               const DatalinkOptions& options,
                               const std::string& url) = 0;

  /// Transaction outcome; must not fail.
  virtual void CommitTxn(uint64_t txn_id) = 0;
  virtual void AbortTxn(uint64_t txn_id) = 0;

  /// Rewrites a stored DATALINK URL into its SELECT form. Under READ
  /// PERMISSION DB this embeds an encrypted access token
  /// (`http://host/fs/dir/token;file`); under READ PERMISSION FS the URL is
  /// returned unchanged.
  virtual Result<std::string> ResolveForRead(const DatalinkOptions& options,
                                             const std::string& url,
                                             const std::string& user) = 0;
};

/// Per-statement execution context.
struct ExecContext {
  std::string user = "system";
  /// When false, SELECT returns raw stored DATALINK URLs (used by internal
  /// machinery; user-facing queries resolve tokens).
  bool resolve_datalinks = true;
};

struct DatabaseOptions {
  /// Write-ahead log path; empty runs fully in memory (tests, benches).
  std::string wal_path;
  /// Snapshot path used by Recover() and Checkpoint().
  std::string snapshot_path;
  /// Flush the log on every commit.
  bool sync_on_commit = true;
  /// File-system seam for WAL + snapshots; null uses io::RealEnv(). The
  /// fault-injection harness substitutes a crashing/torn-write environment.
  io::Env* env = nullptr;
  /// Statistics-driven planning (join order, build side, index-loop
  /// joins). False pins every SELECT to the static FROM-order plan shape.
  bool cost_based_planner = true;
  /// When true, every committed transaction also applies the index
  /// advisor's hot recommendations (see ApplyIndexRecommendations):
  /// equality patterns with at least `auto_index_min_hits` observations
  /// get a secondary index built on the spot. Off by default — the
  /// advisor then only *surfaces* recommendations (on /stats and through
  /// index_advisor()).
  bool auto_create_indexes = false;
  uint64_t auto_index_min_hits = 32;
  /// Node-local foreign-key enforcement (child lookup on write, RESTRICT
  /// check on delete/update). The shard coordinator (src/db/shard) turns
  /// this off on shard databases — a parent row may legitimately live on
  /// another shard — and enforces referential integrity globally instead.
  bool enforce_foreign_keys = true;
};

// --- Row rules, shared by Database and the shard coordinator ---

/// Coerces `row` to its columns' types; enforces NOT NULL (primary-key
/// columns included) and VARCHAR length.
Result<Row> ValidateRow(const TableDef& def, Row row);
/// The FK rules' one question: does `table` hold a row whose `columns`
/// equal `values`? Each caller answers it from its own storage.
using RowProbe = std::function<Result<bool>(
    const std::string& table, const std::vector<std::string>& columns,
    const std::vector<Value>& values)>;
/// Every foreign key of `row` without NULLs names a row `parent_exists`
/// finds.
Status CheckForeignKeyParents(const TableDef& def, const Row& row,
                              const RowProbe& parent_exists);
/// RESTRICT: no row `child_exists` finds references a value of `old_row`
/// that the write removes (`new_row` null: a DELETE) or changes.
Status CheckRestrictChildren(const Catalog& catalog, const TableDef& def,
                             const Row& old_row, const Row* new_row,
                             const RowProbe& child_exists);

/// Cumulative engine counters.
struct DatabaseStats {
  uint64_t statements = 0;
  uint64_t queries = 0;
  uint64_t rows_inserted = 0;
  uint64_t rows_updated = 0;
  uint64_t rows_deleted = 0;
  uint64_t txn_commits = 0;
  uint64_t txn_aborts = 0;
  /// COPY chunks durably committed (one kBulkLoad WAL record each).
  uint64_t bulk_chunks = 0;
};

/// A single-node relational engine with SQL/MED DATALINK support:
/// catalogue + row storage + SQL execution + WAL-based durability +
/// transactional coordination with external file managers.
///
/// Concurrency: reader/writer mode over one `std::shared_mutex`. Parsed
/// statements are classified before execution:
///
///  * SELECT and EXPLAIN outside an explicit transaction run under a
///    *shared* lock against the committed (immutable-for-the-duration)
///    state — any number of web handlers, job workers and benches read in
///    parallel;
///  * INSERT/UPDATE/DELETE/DDL, and every statement issued between BEGIN
///    and COMMIT/ROLLBACK, hold the *exclusive* lock. An explicit
///    transaction keeps the exclusive lock from BEGIN until it commits,
///    rolls back, or fails, so readers never observe a half-applied
///    transaction. Explicit transactions must begin and finish on the same
///    thread (the lock is thread-owned).
///
/// Every successful mutating commit bumps a monotonically increasing
/// commit epoch (`commit_epoch()`); the web layer's render cache uses it
/// to invalidate cheaply without dependency tracking. Cumulative counters
/// are atomics, so shared-lock readers update them race-free.
class Database {
 public:
  explicit Database(std::string name, DatabaseOptions options = {});
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Wires in the SQL/MED coordinator (may be null for plain operation).
  void set_coordinator(DatalinkCoordinator* coordinator) {
    coordinator_ = coordinator;
  }

  /// Wires in the request tracer (may be null — the default — for
  /// untraced operation). Planner execution and mutating statements open
  /// spans that nest under whatever request span is current on the
  /// calling thread.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Mirrors index-advisor hit counts into a metrics registry
  /// (`easia_db_index_advisor_hits_total`). May be null (the default).
  void set_metrics_registry(obs::MetricsRegistry* metrics) {
    advisor_.set_metrics(metrics);
  }

  /// The hot-predicate observer fed by every planned SELECT. The /stats
  /// page reads its recommendations; tests reset it between workloads.
  stats::IndexAdvisor& index_advisor() { return advisor_; }
  const stats::IndexAdvisor& index_advisor() const { return advisor_; }

  /// Builds a secondary index for every equality recommendation with at
  /// least `min_hits` observations (exclusive lock; skips columns that
  /// gained an index since). Auto-created indexes are runtime-only: they
  /// are not WAL-logged and are rebuilt only when the advisor runs hot
  /// again after recovery.
  Status ApplyIndexRecommendations(uint64_t min_hits);

  /// Loads the snapshot (if any) and replays the WAL. Call once, before the
  /// first Execute, when options carry persistence paths.
  Status Recover();

  /// Parses and executes one SQL statement.
  Result<QueryResult> Execute(std::string_view sql,
                              const ExecContext& ctx = {});

  /// Executes an already-parsed statement (the QBE layer and the shard
  /// coordinator build ASTs directly). `original_sql` is read only by
  /// CREATE TABLE, whose WAL record carries the DDL text.
  Result<QueryResult> ExecuteStatement(const Statement& stmt,
                                       std::string_view original_sql,
                                       const ExecContext& ctx = {});

  // --- Explicit transactions (Execute("BEGIN") also works) ---
  Status Begin();
  Status Commit();
  Status Rollback();
  bool InTransaction() const {
    return explicit_txn_.load(std::memory_order_acquire);
  }

  /// Monotonically increasing counter, bumped once per successfully
  /// committed transaction that mutated anything (DML or DDL; snapshot
  /// restores bump it too). Reads never change it. Cached derivations of
  /// database state are valid exactly while the epoch they captured still
  /// matches.
  uint64_t commit_epoch() const {
    return commit_epoch_.load(std::memory_order_acquire);
  }

  // --- Replication hooks (src/db/repl) ---
  /// Invoked after every successfully committed *mutating* transaction,
  /// with the exclusive lock still held, so the replication log observes
  /// commits in exactly the order readers do. `epoch` is the commit epoch
  /// the commit advanced to and `records` the transaction's full WAL
  /// record list (kBegin .. kCommit). The callback must be cheap and must
  /// not re-enter the database. Pass an empty function to detach.
  using CommitListener =
      std::function<void(uint64_t epoch, const std::vector<WalRecord>&)>;
  void set_commit_listener(CommitListener listener) {
    commit_listener_ = std::move(listener);
  }

  /// Applies one replicated committed transaction shipped from a primary:
  /// `ops` are the transaction's WAL records (control records are
  /// skipped), applied under the exclusive lock in record order, after
  /// which the commit epoch is advanced to at least `epoch` — replicas
  /// mirror primary epochs rather than counting their own, so equal
  /// epochs mean equal visible state on every node (the WAL replay path
  /// is deterministic). Also appends the records to this node's own WAL
  /// when one is configured, keeping replicas independently durable.
  Status ApplyReplicatedCommit(const std::vector<WalRecord>& ops,
                               uint64_t epoch);

  /// Forces the commit epoch to at least `epoch` (monotonic; never moves
  /// backwards). Used when a replica bootstraps from a primary snapshot
  /// so its first replicated commit continues the primary's epoch line.
  void AdvanceCommitEpochTo(uint64_t epoch);

  const std::string& name() const { return name_; }
  const Catalog& catalog() const { return catalog_; }
  /// Raw table access for single-threaded callers (benches, the XUIS
  /// generator at setup). Concurrent callers must go through Execute,
  /// which brackets statement execution with the reader/writer lock.
  Result<const Table*> GetTable(const std::string& table) const;
  /// Snapshot of the cumulative counters (by value: the fields advance
  /// concurrently under shared-lock reads).
  DatabaseStats stats() const;

  // --- Persistence ---
  /// Writes a full snapshot of catalogue + data to `path`.
  Status SaveSnapshot(const std::string& path) const;
  /// Replaces in-memory state from a snapshot file.
  Status LoadSnapshot(const std::string& path);
  /// In-memory forms of the above (used by coordinated backup).
  std::string SerializeSnapshot() const;
  Status LoadSnapshotFromString(const std::string& image);
  /// Snapshot + truncate the WAL (coordinated backup point; med's backup
  /// manager snapshots linked files alongside under RECOVERY YES).
  Status Checkpoint();

 private:
  struct UndoOp {
    enum class Kind { kInsert, kUpdate, kDelete, kCreateTable, kDropTable };
    Kind kind;
    std::string table;
    RowId row_id = 0;
    Row old_row;
    /// For kDropTable undo: the dropped table is stashed here.
    std::unique_ptr<Table> dropped_table;
  };

  struct Txn {
    uint64_t id;
    bool implicit = false;
    std::vector<UndoOp> undo;
    std::vector<WalRecord> wal_records;
    bool used_coordinator = false;
  };

  Result<QueryResult> ExecCreateTable(const CreateTableStmt& stmt,
                                      std::string_view sql);
  Result<QueryResult> ExecDropTable(const DropTableStmt& stmt,
                                    std::string_view sql);
  Result<QueryResult> ExecInsert(const InsertStmt& stmt,
                                 const ExecContext& ctx);
  Result<QueryResult> ExecUpdate(const UpdateStmt& stmt,
                                 const ExecContext& ctx);
  Result<QueryResult> ExecDelete(const DeleteStmt& stmt,
                                 const ExecContext& ctx);
  Result<QueryResult> ExecSelect(const SelectStmt& stmt,
                                 const ExecContext& ctx);
  /// EXPLAIN SELECT: plans the query and returns one PLAN row per node.
  /// With `analyze`, the plan is also executed and every operator line
  /// annotated with estimated vs. actual rows and wall time.
  Result<QueryResult> ExecExplain(const SelectStmt& stmt, bool analyze);
  /// COPY <table> FROM '<path>': binary bulk ingest. Runs one transaction
  /// per chunk (one kBulkLoad WAL record each), so a crash mid-COPY keeps
  /// exactly the chunks whose commit reached the log. Must be called with
  /// the exclusive lock held and no transaction active; manages its own
  /// per-chunk transactions.
  Result<QueryResult> ExecCopy(const CopyStmt& stmt, const ExecContext& ctx);

  Result<Table*> GetMutableTable(const std::string& table);

  /// Applies one committed WAL operation during recovery.
  Status ApplyWalOp(const WalRecord& op);

  /// The shared FK rules over this node's tables; no-ops when
  /// enforce_foreign_keys is off.
  Status CheckForeignKeysOnWrite(const TableDef& def, const Row& row) const;
  Status CheckNoChildren(const TableDef& def, const Row& old_row,
                         const Row* new_row) const;
  /// SQL/MED side effects for a changed datalink column value.
  Status PrepareDatalinkChange(const ColumnDef& col, const Value* old_value,
                               const Value* new_value);

  /// Starts an implicit txn when none is active. Returns true when the
  /// statement owns (and must finish) the transaction.
  bool EnsureTxn();
  Status CommitInternal();
  void RollbackInternal();
  void AppendWal(WalRecord record);

  /// True when the calling thread owns the open explicit transaction (and
  /// with it the exclusive lock).
  bool OwnsExplicitTxn() const;
  /// Drops the explicit-transaction flag and releases the exclusive lock
  /// held since BEGIN. Call only from the owning thread.
  void ReleaseExplicitLock();

  /// ApplyIndexRecommendations body; call with the exclusive lock held.
  Status ApplyIndexRecommendationsLocked(uint64_t min_hits);

  /// Lock-free bodies; the public wrappers take `mu_` in the right mode.
  std::string SerializeSnapshotLocked() const;
  Status SaveSnapshotLocked(const std::string& path) const;
  Status LoadSnapshotFromStringLocked(const std::string& image);

  std::string name_;
  DatabaseOptions options_;
  io::Env* env_ = nullptr;
  Catalog catalog_;
  std::map<std::string, std::unique_ptr<Table>> tables_;
  DatalinkCoordinator* coordinator_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  stats::IndexAdvisor advisor_;
  std::unique_ptr<Txn> txn_;
  uint64_t next_txn_id_ = 1;
  std::unique_ptr<WalWriter> wal_;
  /// Why the WAL is unavailable when `wal_path` is set but `wal_` is null
  /// (open failure at construction, or a failed checkpoint reopen). Commits
  /// of a durability-configured database fail with this status rather than
  /// silently losing the log.
  Status wal_open_status_ = Status::OK();

  /// Reader/writer statement gate (see class comment).
  mutable std::shared_mutex mu_;
  /// Exclusive lock held across an explicit BEGIN..COMMIT span.
  std::unique_lock<std::shared_mutex> explicit_lock_;
  std::atomic<bool> explicit_txn_{false};
  std::atomic<std::thread::id> explicit_owner_{};
  std::atomic<uint64_t> commit_epoch_{0};
  CommitListener commit_listener_;

  struct Counters {
    std::atomic<uint64_t> statements{0};
    std::atomic<uint64_t> queries{0};
    std::atomic<uint64_t> rows_inserted{0};
    std::atomic<uint64_t> rows_updated{0};
    std::atomic<uint64_t> rows_deleted{0};
    std::atomic<uint64_t> txn_commits{0};
    std::atomic<uint64_t> txn_aborts{0};
    std::atomic<uint64_t> bulk_chunks{0};
  };
  Counters counters_;
};

}  // namespace easia::db

#endif  // EASIA_DB_DATABASE_H_
