#include "db/database.h"

#include <cstdio>

#include "common/coding.h"
#include "common/string_util.h"
#include "db/executor.h"
#include "db/parser.h"
#include "db/planner.h"
#include "db/store/bulk_loader.h"
#include "obs/trace.h"

namespace easia::db {

namespace {

/// V1 snapshots carry catalogue + rows only; V2 prefixes the table section
/// with the cumulative DatabaseStats counters so /metrics counters survive
/// checkpoint/restart instead of resetting to zero; V3 appends the
/// bulk_chunks counter to the stats block; V4 appends a per-table column
/// statistics block (planner sketches) after each table's rows. Readers
/// accept all four — pre-V4 snapshots simply keep the statistics rebuilt
/// from the rows themselves.
constexpr std::string_view kSnapshotMagicV1 = "EASIASNAP1";
constexpr std::string_view kSnapshotMagicV2 = "EASIASNAP2";
constexpr std::string_view kSnapshotMagicV3 = "EASIASNAP3";
constexpr std::string_view kSnapshotMagic = "EASIASNAP4";

QueryResult DmlResult(size_t affected) {
  QueryResult r;
  r.is_query = false;
  r.rows_affected = affected;
  return r;
}

}  // namespace

Result<size_t> QueryResult::ColumnIndex(std::string_view name) const {
  for (size_t i = 0; i < column_names.size(); ++i) {
    if (EqualsIgnoreCase(column_names[i], name)) return i;
  }
  return Status::NotFound("no result column named " + std::string(name));
}

Result<Value> QueryResult::At(size_t row, std::string_view column) const {
  if (row >= rows.size()) {
    return Status::OutOfRange(StrPrintf("row %zu out of range", row));
  }
  EASIA_ASSIGN_OR_RETURN(size_t col, ColumnIndex(column));
  return rows[row][col];
}

Database::Database(std::string name, DatabaseOptions options)
    : name_(std::move(name)),
      options_(std::move(options)),
      env_(options_.env != nullptr ? options_.env : io::RealEnv()) {
  if (!options_.wal_path.empty()) {
    Result<WalWriter> writer = WalWriter::Open(env_, options_.wal_path);
    if (writer.ok()) {
      wal_ = std::make_unique<WalWriter>(std::move(*writer));
    } else {
      // Remember why: commits of a WAL-configured database must fail
      // instead of silently running without durability.
      wal_open_status_ = writer.status();
    }
  }
}

Database::~Database() {
  if (txn_ != nullptr) RollbackInternal();
  if (explicit_txn_.load(std::memory_order_acquire)) ReleaseExplicitLock();
}

DatabaseStats Database::stats() const {
  DatabaseStats out;
  out.statements = counters_.statements.load(std::memory_order_relaxed);
  out.queries = counters_.queries.load(std::memory_order_relaxed);
  out.rows_inserted = counters_.rows_inserted.load(std::memory_order_relaxed);
  out.rows_updated = counters_.rows_updated.load(std::memory_order_relaxed);
  out.rows_deleted = counters_.rows_deleted.load(std::memory_order_relaxed);
  out.txn_commits = counters_.txn_commits.load(std::memory_order_relaxed);
  out.txn_aborts = counters_.txn_aborts.load(std::memory_order_relaxed);
  out.bulk_chunks = counters_.bulk_chunks.load(std::memory_order_relaxed);
  return out;
}

bool Database::OwnsExplicitTxn() const {
  return explicit_txn_.load(std::memory_order_acquire) &&
         explicit_owner_.load(std::memory_order_acquire) ==
             std::this_thread::get_id();
}

void Database::ReleaseExplicitLock() {
  explicit_owner_.store(std::thread::id(), std::memory_order_release);
  explicit_txn_.store(false, std::memory_order_release);
  if (explicit_lock_.owns_lock()) explicit_lock_.unlock();
  explicit_lock_ = {};
}

Status Database::Recover() {
  if (!options_.snapshot_path.empty() &&
      env_->FileExists(options_.snapshot_path)) {
    EASIA_RETURN_IF_ERROR(LoadSnapshot(options_.snapshot_path));
  }
  if (options_.wal_path.empty()) return Status::OK();
  // Close the writer while replaying (it holds the file in append mode,
  // which is fine, but keep the logic simple and reopen after).
  EASIA_ASSIGN_OR_RETURN(std::vector<WalRecord> records,
                         ReadWal(env_, options_.wal_path));
  // Group records by txn; apply only committed transactions, in log order.
  std::map<uint64_t, std::vector<const WalRecord*>> pending;
  for (const WalRecord& rec : records) {
    switch (rec.type) {
      case WalRecordType::kBegin:
        pending[rec.txn_id].clear();
        break;
      case WalRecordType::kAbort:
        pending.erase(rec.txn_id);
        break;
      case WalRecordType::kCommit: {
        auto it = pending.find(rec.txn_id);
        if (it == pending.end()) break;
        for (const WalRecord* op : it->second) {
          EASIA_RETURN_IF_ERROR(ApplyWalOp(*op));
        }
        // Replayed work counts like live work: without this, counters on
        // /metrics would read lower after a crash than before it even
        // though the committed rows are all present.
        counters_.txn_commits.fetch_add(1, std::memory_order_relaxed);
        pending.erase(it);
        break;
      }
      default:
        pending[rec.txn_id].push_back(&rec);
    }
  }
  return Status::OK();
}

Status Database::ApplyWalOp(const WalRecord& op) {
  switch (op.type) {
    case WalRecordType::kCreateTable: {
      EASIA_ASSIGN_OR_RETURN(Statement stmt, ParseSql(op.ddl_sql));
      if (stmt.kind != Statement::Kind::kCreateTable) {
        return Status::Corruption("wal: bad DDL record");
      }
      EASIA_RETURN_IF_ERROR(catalog_.AddTable(stmt.create_table->def));
      tables_[ToUpper(stmt.create_table->def.name)] =
          std::make_unique<Table>(stmt.create_table->def);
      return Status::OK();
    }
    case WalRecordType::kDropTable: {
      EASIA_RETURN_IF_ERROR(catalog_.DropTable(op.table));
      tables_.erase(ToUpper(op.table));
      return Status::OK();
    }
    case WalRecordType::kInsert: {
      EASIA_ASSIGN_OR_RETURN(Table * table, GetMutableTable(op.table));
      EASIA_RETURN_IF_ERROR(table->InsertWithId(op.row_id, op.row));
      counters_.rows_inserted.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    }
    case WalRecordType::kUpdate: {
      EASIA_ASSIGN_OR_RETURN(Table * table, GetMutableTable(op.table));
      EASIA_RETURN_IF_ERROR(table->Update(op.row_id, op.row));
      counters_.rows_updated.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    }
    case WalRecordType::kDelete: {
      EASIA_ASSIGN_OR_RETURN(Table * table, GetMutableTable(op.table));
      EASIA_RETURN_IF_ERROR(table->Delete(op.row_id));
      counters_.rows_deleted.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    }
    case WalRecordType::kBulkLoad: {
      EASIA_ASSIGN_OR_RETURN(Table * table, GetMutableTable(op.table));
      RowId id = op.row_id;
      for (const Row& row : op.bulk_rows) {
        EASIA_RETURN_IF_ERROR(table->InsertWithId(id++, row));
      }
      counters_.rows_inserted.fetch_add(op.bulk_rows.size(),
                                        std::memory_order_relaxed);
      counters_.bulk_chunks.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    }
    default:
      return Status::Corruption("wal: unexpected record type in replay");
  }
}

Result<const Table*> Database::GetTable(const std::string& table) const {
  auto it = tables_.find(ToUpper(table));
  if (it == tables_.end()) {
    return Status::NotFound("no table named " + table);
  }
  return it->second.get();
}

Result<Table*> Database::GetMutableTable(const std::string& table) {
  auto it = tables_.find(ToUpper(table));
  if (it == tables_.end()) {
    return Status::NotFound("no table named " + table);
  }
  return it->second.get();
}

Result<QueryResult> Database::Execute(std::string_view sql,
                                      const ExecContext& ctx) {
  EASIA_ASSIGN_OR_RETURN(Statement stmt, ParseSql(sql));
  return ExecuteStatement(stmt, sql, ctx);
}

Result<QueryResult> Database::ExecuteStatement(const Statement& stmt,
                                               std::string_view original_sql,
                                               const ExecContext& ctx) {
  counters_.statements.fetch_add(1, std::memory_order_relaxed);
  bool owns_explicit = OwnsExplicitTxn();
  switch (stmt.kind) {
    case Statement::Kind::kBegin:
      EASIA_RETURN_IF_ERROR(Begin());
      return DmlResult(0);
    case Statement::Kind::kCommit:
      EASIA_RETURN_IF_ERROR(Commit());
      return DmlResult(0);
    case Statement::Kind::kRollback:
      EASIA_RETURN_IF_ERROR(Rollback());
      return DmlResult(0);
    case Statement::Kind::kExplain: {
      // Pure planning — reads the catalogue only, needs no transaction.
      // Inside an explicit txn the exclusive lock is already held.
      if (owns_explicit) return ExecExplain(*stmt.select, stmt.explain_analyze);
      std::shared_lock<std::shared_mutex> read_lock(mu_);
      return ExecExplain(*stmt.select, stmt.explain_analyze);
    }
    case Statement::Kind::kSelect:
      if (!owns_explicit) {
        // The concurrent read path: no transaction machinery, no WAL
        // records — just the shared lock and the committed state.
        std::shared_lock<std::shared_mutex> read_lock(mu_);
        return ExecSelect(*stmt.select, ctx);
      }
      break;  // SELECT inside a txn sees its own writes; fall through
    case Statement::Kind::kCopy: {
      // COPY commits once per chunk, which is incompatible with an
      // enclosing atomic transaction — refuse rather than silently break
      // atomicity.
      if (owns_explicit) {
        return Status::FailedPrecondition(
            "COPY may not run inside an explicit transaction");
      }
      obs::Tracer::Scope span(tracer_, "db:copy");
      std::unique_lock<std::shared_mutex> copy_lock(mu_);
      Result<QueryResult> copied = ExecCopy(*stmt.copy, ctx);
      if (!copied.ok()) span.set_error();
      return copied;
    }
    default:
      break;
  }
  // Mutating path (or statement inside an explicit transaction). An
  // explicit txn already holds the exclusive lock; a standalone statement
  // takes it for its own (implicit-txn) duration.
  obs::Tracer::Scope span(tracer_, "db:execute");
  std::unique_lock<std::shared_mutex> write_lock;
  if (!owns_explicit) write_lock = std::unique_lock<std::shared_mutex>(mu_);
  bool owns_txn = EnsureTxn();
  Result<QueryResult> result = Status::Internal("unhandled statement");
  switch (stmt.kind) {
    case Statement::Kind::kSelect:
      result = ExecSelect(*stmt.select, ctx);
      break;
    case Statement::Kind::kInsert:
      result = ExecInsert(*stmt.insert, ctx);
      break;
    case Statement::Kind::kUpdate:
      result = ExecUpdate(*stmt.update, ctx);
      break;
    case Statement::Kind::kDelete:
      result = ExecDelete(*stmt.del, ctx);
      break;
    case Statement::Kind::kCreateTable:
      result = ExecCreateTable(*stmt.create_table, original_sql);
      break;
    case Statement::Kind::kDropTable:
      result = ExecDropTable(*stmt.drop_table, original_sql);
      break;
    default:
      break;
  }
  if (!result.ok()) {
    span.set_error();
    // Statement failure aborts the enclosing transaction (strict, simple).
    RollbackInternal();
    counters_.txn_aborts.fetch_add(1, std::memory_order_relaxed);
    if (owns_explicit) ReleaseExplicitLock();
    return result;
  }
  if (owns_txn) {
    Status commit_status = CommitInternal();
    if (!commit_status.ok()) {
      RollbackInternal();
      counters_.txn_aborts.fetch_add(1, std::memory_order_relaxed);
      return commit_status;
    }
    counters_.txn_commits.fetch_add(1, std::memory_order_relaxed);
  }
  return result;
}

bool Database::EnsureTxn() {
  if (txn_ != nullptr) return false;
  txn_ = std::make_unique<Txn>();
  txn_->id = next_txn_id_++;
  txn_->implicit = true;
  txn_->wal_records.push_back(
      {WalRecordType::kBegin, txn_->id, "", 0, {}, {}, ""});
  return true;
}

Status Database::Begin() {
  if (OwnsExplicitTxn()) {
    return Status::FailedPrecondition("transaction already active");
  }
  // Blocks here while readers or another explicit transaction hold the
  // statement gate; once acquired, the lock is kept until COMMIT/ROLLBACK
  // (or statement failure) on this thread.
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (txn_ != nullptr) {
    return Status::FailedPrecondition("transaction already active");
  }
  EnsureTxn();
  txn_->implicit = false;
  explicit_owner_.store(std::this_thread::get_id(),
                        std::memory_order_release);
  explicit_txn_.store(true, std::memory_order_release);
  explicit_lock_ = std::move(lock);
  return Status::OK();
}

Status Database::Commit() {
  if (!OwnsExplicitTxn() || txn_ == nullptr) {
    return Status::FailedPrecondition("no active transaction");
  }
  Status s = CommitInternal();
  if (!s.ok()) {
    RollbackInternal();
    counters_.txn_aborts.fetch_add(1, std::memory_order_relaxed);
    ReleaseExplicitLock();
    return s;
  }
  counters_.txn_commits.fetch_add(1, std::memory_order_relaxed);
  ReleaseExplicitLock();
  return Status::OK();
}

Status Database::Rollback() {
  if (!OwnsExplicitTxn() || txn_ == nullptr) {
    return Status::FailedPrecondition("no active transaction");
  }
  RollbackInternal();
  counters_.txn_aborts.fetch_add(1, std::memory_order_relaxed);
  ReleaseExplicitLock();
  return Status::OK();
}

Status Database::CommitInternal() {
  if (txn_ == nullptr) return Status::OK();
  // Undo entries exist exactly when the transaction changed something; a
  // read-only (or empty) commit must not invalidate caches.
  bool mutated = !txn_->undo.empty();
  if (wal_ == nullptr && !options_.wal_path.empty() && mutated) {
    // Durability was requested but the log could not be opened; losing the
    // commit silently would violate the WAL contract.
    return Status::Internal("wal unavailable: " +
                            std::string(wal_open_status_.message()));
  }
  txn_->wal_records.push_back(
      {WalRecordType::kCommit, txn_->id, "", 0, {}, {}, ""});
  if (wal_ != nullptr) {
    for (const WalRecord& rec : txn_->wal_records) {
      EASIA_RETURN_IF_ERROR(wal_->Append(rec));
    }
    if (options_.sync_on_commit) {
      EASIA_RETURN_IF_ERROR(wal_->Sync());
    }
  }
  if (coordinator_ != nullptr && txn_->used_coordinator) {
    coordinator_->CommitTxn(txn_->id);
  }
  std::vector<WalRecord> committed;
  if (mutated && commit_listener_) committed = std::move(txn_->wal_records);
  txn_.reset();
  if (mutated) {
    uint64_t epoch =
        commit_epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
    // The listener runs with the exclusive lock still held, so the
    // replication log sees commits in exactly the order readers do.
    if (commit_listener_) commit_listener_(epoch, committed);
  }
  if (mutated && options_.auto_create_indexes) {
    // Opportunistic advisor application: the exclusive lock is already
    // held here, and commits are where the data (and thus the payoff of a
    // new index) changes. Failure to build an index never fails the
    // commit — the data is already durable.
    (void)ApplyIndexRecommendationsLocked(options_.auto_index_min_hits);
  }
  return Status::OK();
}

Status Database::ApplyReplicatedCommit(const std::vector<WalRecord>& ops,
                                       uint64_t epoch) {
  std::unique_lock<std::shared_mutex> write_lock(mu_);
  if (txn_ != nullptr) {
    return Status::FailedPrecondition(
        "replicated apply during an open transaction");
  }
  for (const WalRecord& op : ops) {
    switch (op.type) {
      case WalRecordType::kBegin:
      case WalRecordType::kCommit:
      case WalRecordType::kAbort:
        continue;
      default:
        EASIA_RETURN_IF_ERROR(ApplyWalOp(op));
    }
  }
  if (wal_ != nullptr) {
    // Replicas configured with a WAL stay independently durable: the
    // shipped records land verbatim (control records included), so plain
    // Recover() replays them with the usual commit grouping.
    for (const WalRecord& rec : ops) {
      EASIA_RETURN_IF_ERROR(wal_->Append(rec));
    }
    if (options_.sync_on_commit) {
      EASIA_RETURN_IF_ERROR(wal_->Sync());
    }
  }
  // Replicated commits count like local ones so replica /metrics line up
  // with the primary once caught up.
  counters_.txn_commits.fetch_add(1, std::memory_order_relaxed);
  AdvanceCommitEpochTo(epoch);
  return Status::OK();
}

void Database::AdvanceCommitEpochTo(uint64_t epoch) {
  uint64_t cur = commit_epoch_.load(std::memory_order_acquire);
  while (cur < epoch && !commit_epoch_.compare_exchange_weak(
                            cur, epoch, std::memory_order_acq_rel)) {
  }
}

void Database::RollbackInternal() {
  if (txn_ == nullptr) return;
  // Undo in reverse order.
  for (auto it = txn_->undo.rbegin(); it != txn_->undo.rend(); ++it) {
    UndoOp& op = *it;
    switch (op.kind) {
      case UndoOp::Kind::kInsert: {
        Result<Table*> table = GetMutableTable(op.table);
        if (table.ok()) (void)(*table)->Delete(op.row_id);
        break;
      }
      case UndoOp::Kind::kUpdate: {
        Result<Table*> table = GetMutableTable(op.table);
        if (table.ok()) (void)(*table)->Update(op.row_id, op.old_row);
        break;
      }
      case UndoOp::Kind::kDelete: {
        Result<Table*> table = GetMutableTable(op.table);
        if (table.ok()) (void)(*table)->InsertWithId(op.row_id, op.old_row);
        break;
      }
      case UndoOp::Kind::kCreateTable: {
        (void)catalog_.DropTable(op.table);
        tables_.erase(ToUpper(op.table));
        break;
      }
      case UndoOp::Kind::kDropTable: {
        (void)catalog_.AddTable(op.dropped_table->def());
        tables_[ToUpper(op.table)] = std::move(op.dropped_table);
        break;
      }
    }
  }
  // An undone DELETE re-inserted its row below the newest RowId. Still
  // under the exclusive lock, compact such tables back into RowId order so
  // scans run linearly again before the statement (or ROLLBACK) returns.
  for (auto& entry : tables_) entry.second->RestoreScanOrder();
  if (wal_ != nullptr && !txn_->wal_records.empty()) {
    // Record the abort so replay ignores any (never-written) partials; we
    // never wrote the ops, so this is advisory only.
    WalRecord abort{WalRecordType::kAbort, txn_->id, "", 0, {}, {}, ""};
    (void)wal_->Append(abort);
  }
  if (coordinator_ != nullptr && txn_->used_coordinator) {
    coordinator_->AbortTxn(txn_->id);
  }
  txn_.reset();
}

void Database::AppendWal(WalRecord record) {
  txn_->wal_records.push_back(std::move(record));
}

Result<QueryResult> Database::ExecCreateTable(const CreateTableStmt& stmt,
                                              std::string_view sql) {
  if (stmt.def.columns.empty()) {
    return Status::InvalidArgument("table must have at least one column");
  }
  EASIA_RETURN_IF_ERROR(catalog_.AddTable(stmt.def));
  tables_[ToUpper(stmt.def.name)] = std::make_unique<Table>(stmt.def);
  UndoOp undo;
  undo.kind = UndoOp::Kind::kCreateTable;
  undo.table = stmt.def.name;
  txn_->undo.push_back(std::move(undo));
  WalRecord rec;
  rec.type = WalRecordType::kCreateTable;
  rec.txn_id = txn_->id;
  rec.ddl_sql = std::string(sql);
  AppendWal(std::move(rec));
  return DmlResult(0);
}

Result<QueryResult> Database::ExecDropTable(const DropTableStmt& stmt,
                                            std::string_view sql) {
  (void)sql;
  auto it = tables_.find(ToUpper(stmt.table));
  if (it == tables_.end()) {
    return Status::NotFound("no table named " + stmt.table);
  }
  if (it->second->RowCount() > 0) {
    // Check datalinked rows are not silently dropped: require empty table
    // when any DATALINK FILE LINK CONTROL column exists with values.
    for (const ColumnDef& col : it->second->def().columns) {
      if (col.type == DataType::kDatalink && col.datalink.has_value() &&
          col.datalink->file_link_control) {
        EASIA_ASSIGN_OR_RETURN(size_t idx,
                               it->second->def().ColumnIndex(col.name));
        bool any_linked = false;
        it->second->ForEachRow([&](RowId, const Row& row) {
          if (!row[idx].is_null()) any_linked = true;
        });
        if (any_linked) {
          return Status::FailedPrecondition(
              "cannot drop table with linked files; delete rows first");
        }
      }
    }
  }
  EASIA_RETURN_IF_ERROR(catalog_.DropTable(stmt.table));
  UndoOp undo;
  undo.kind = UndoOp::Kind::kDropTable;
  undo.table = stmt.table;
  undo.dropped_table = std::move(it->second);
  tables_.erase(it);
  txn_->undo.push_back(std::move(undo));
  WalRecord rec;
  rec.type = WalRecordType::kDropTable;
  rec.txn_id = txn_->id;
  rec.table = stmt.table;
  AppendWal(std::move(rec));
  return DmlResult(0);
}

Result<Row> ValidateRow(const TableDef& def, Row row) {
  for (size_t i = 0; i < def.columns.size(); ++i) {
    const ColumnDef& col = def.columns[i];
    if (row[i].is_null()) {
      if (col.not_null || def.IsPrimaryKeyColumn(col.name)) {
        return Status::ConstraintViolation("column " + def.name + "." +
                                           col.name + " may not be NULL");
      }
      continue;
    }
    EASIA_ASSIGN_OR_RETURN(row[i], row[i].CoerceTo(col.type));
    if (col.type == DataType::kVarchar && col.size > 0 &&
        row[i].AsString().size() > col.size) {
      return Status::ConstraintViolation(
          StrPrintf("value too long for %s.%s (max %zu)", def.name.c_str(),
                    col.name.c_str(), col.size));
    }
  }
  return row;
}

Status CheckForeignKeyParents(const TableDef& def, const Row& row,
                              const RowProbe& parent_exists) {
  for (const ForeignKeyDef& fk : def.foreign_keys) {
    std::vector<Value> key_values;
    bool any_null = false;
    for (const std::string& col : fk.columns) {
      EASIA_ASSIGN_OR_RETURN(size_t idx, def.ColumnIndex(col));
      if (row[idx].is_null()) {
        any_null = true;
        break;
      }
      key_values.push_back(row[idx]);
    }
    if (any_null) continue;  // SQL: NULL FK values are not checked
    EASIA_ASSIGN_OR_RETURN(
        bool found, parent_exists(fk.ref_table, fk.ref_columns, key_values));
    if (!found) {
      return Status::ConstraintViolation(
          "foreign key violation: no row in " + fk.ref_table + " for " +
          def.name + "(" + Join(fk.columns, ",") + ")");
    }
  }
  return Status::OK();
}

Status CheckRestrictChildren(const Catalog& catalog, const TableDef& def,
                             const Row& old_row, const Row* new_row,
                             const RowProbe& child_exists) {
  for (const ColumnDef& col : def.columns) {
    std::vector<InboundReference> refs =
        catalog.ReferencesTo(def.name, col.name);
    if (refs.empty()) continue;
    EASIA_ASSIGN_OR_RETURN(size_t idx, def.ColumnIndex(col.name));
    const Value& old_value = old_row[idx];
    if (old_value.is_null()) continue;
    if (new_row != nullptr && (*new_row)[idx].Equals(old_value)) {
      continue;  // value unchanged; children unaffected
    }
    for (const InboundReference& ref : refs) {
      EASIA_ASSIGN_OR_RETURN(
          bool referenced,
          child_exists(ref.from_table, {ref.from_column}, {old_value}));
      if (referenced) {
        return Status::ConstraintViolation(
            "row is referenced by " + ref.from_table + "." + ref.from_column +
            " (RESTRICT)");
      }
    }
  }
  return Status::OK();
}

Status Database::CheckForeignKeysOnWrite(const TableDef& def,
                                         const Row& row) const {
  if (!options_.enforce_foreign_keys) return Status::OK();
  return CheckForeignKeyParents(
      def, row,
      [this](const std::string& table, const std::vector<std::string>& columns,
             const std::vector<Value>& key) -> Result<bool> {
        EASIA_ASSIGN_OR_RETURN(const Table* parent, GetTable(table));
        return parent->FindUnique(columns, key).ok();
      });
}

Status Database::CheckNoChildren(const TableDef& def, const Row& old_row,
                                 const Row* new_row) const {
  if (!options_.enforce_foreign_keys) return Status::OK();
  return CheckRestrictChildren(
      catalog_, def, old_row, new_row,
      [this](const std::string& table, const std::vector<std::string>& columns,
             const std::vector<Value>& values) -> Result<bool> {
        EASIA_ASSIGN_OR_RETURN(const Table* child, GetTable(table));
        EASIA_ASSIGN_OR_RETURN(size_t idx,
                               child->def().ColumnIndex(columns[0]));
        return child->AnyRowWithValue(idx, values[0]);
      });
}

Status Database::PrepareDatalinkChange(const ColumnDef& col,
                                       const Value* old_value,
                                       const Value* new_value) {
  if (col.type != DataType::kDatalink || !col.datalink.has_value() ||
      !col.datalink->file_link_control) {
    return Status::OK();
  }
  if (coordinator_ == nullptr) {
    return Status::FailedPrecondition(
        "DATALINK column with FILE LINK CONTROL requires a file manager");
  }
  const std::string* old_url =
      (old_value != nullptr && !old_value->is_null()) ? &old_value->AsString()
                                                      : nullptr;
  const std::string* new_url =
      (new_value != nullptr && !new_value->is_null()) ? &new_value->AsString()
                                                      : nullptr;
  if (old_url != nullptr && new_url != nullptr && *old_url == *new_url) {
    return Status::OK();
  }
  txn_->used_coordinator = true;
  if (old_url != nullptr) {
    EASIA_RETURN_IF_ERROR(
        coordinator_->PrepareUnlink(txn_->id, *col.datalink, *old_url));
  }
  if (new_url != nullptr) {
    EASIA_RETURN_IF_ERROR(
        coordinator_->PrepareLink(txn_->id, *col.datalink, *new_url));
  }
  return Status::OK();
}

Result<QueryResult> Database::ExecInsert(const InsertStmt& stmt,
                                         const ExecContext& ctx) {
  (void)ctx;
  EASIA_ASSIGN_OR_RETURN(Table * table, GetMutableTable(stmt.table));
  const TableDef& def = table->def();
  // Map statement columns to table positions.
  std::vector<size_t> positions;
  if (stmt.columns.empty()) {
    for (size_t i = 0; i < def.columns.size(); ++i) positions.push_back(i);
  } else {
    for (const std::string& col : stmt.columns) {
      EASIA_ASSIGN_OR_RETURN(size_t idx, def.ColumnIndex(col));
      positions.push_back(idx);
    }
  }
  size_t inserted = 0;
  for (const auto& value_exprs : stmt.rows) {
    if (value_exprs.size() != positions.size()) {
      return Status::InvalidArgument(
          "INSERT value count does not match column count");
    }
    Row row(def.columns.size(), Value::Null());
    EvalEnv env;  // no row context
    for (size_t i = 0; i < positions.size(); ++i) {
      EASIA_ASSIGN_OR_RETURN(Value v, EvalExpr(*value_exprs[i], env));
      row[positions[i]] = std::move(v);
    }
    EASIA_ASSIGN_OR_RETURN(row, ValidateRow(def, std::move(row)));
    EASIA_RETURN_IF_ERROR(CheckForeignKeysOnWrite(def, row));
    // SQL/MED link intents (may veto when the file is missing/linked).
    for (size_t i = 0; i < def.columns.size(); ++i) {
      EASIA_RETURN_IF_ERROR(
          PrepareDatalinkChange(def.columns[i], nullptr, &row[i]));
    }
    EASIA_ASSIGN_OR_RETURN(RowId id, table->Insert(row));
    UndoOp undo;
    undo.kind = UndoOp::Kind::kInsert;
    undo.table = def.name;
    undo.row_id = id;
    txn_->undo.push_back(std::move(undo));
    WalRecord rec;
    rec.type = WalRecordType::kInsert;
    rec.txn_id = txn_->id;
    rec.table = def.name;
    rec.row_id = id;
    rec.row = row;
    AppendWal(std::move(rec));
    ++inserted;
    counters_.rows_inserted.fetch_add(1, std::memory_order_relaxed);
  }
  return DmlResult(inserted);
}

Result<QueryResult> Database::ExecUpdate(const UpdateStmt& stmt,
                                         const ExecContext& ctx) {
  (void)ctx;
  EASIA_ASSIGN_OR_RETURN(Table * table, GetMutableTable(stmt.table));
  const TableDef& def = table->def();
  // Single-table schema for assignment evaluation.
  std::vector<ColumnBinding> schema = TableSchema(def, def.name);
  std::vector<std::pair<size_t, const Expr*>> sets;
  for (const auto& [col, expr] : stmt.assignments) {
    EASIA_ASSIGN_OR_RETURN(size_t idx, def.ColumnIndex(col));
    sets.emplace_back(idx, expr.get());
  }
  // Materialise target row ids first (avoid mutating while scanning).
  EASIA_ASSIGN_OR_RETURN(DmlTargets targets,
                         SelectDmlTargets(*table, stmt.where.get()));
  size_t updated = 0;
  for (RowId id : targets.row_ids) {
    EASIA_ASSIGN_OR_RETURN(Row old_row, table->Get(id));
    Row new_row = old_row;
    EvalEnv env{&schema, &old_row};
    for (const auto& [idx, expr] : sets) {
      EASIA_ASSIGN_OR_RETURN(Value v, EvalExpr(*expr, env));
      new_row[idx] = std::move(v);
    }
    EASIA_ASSIGN_OR_RETURN(new_row, ValidateRow(def, std::move(new_row)));
    EASIA_RETURN_IF_ERROR(CheckForeignKeysOnWrite(def, new_row));
    EASIA_RETURN_IF_ERROR(CheckNoChildren(def, old_row, &new_row));
    for (size_t i = 0; i < def.columns.size(); ++i) {
      EASIA_RETURN_IF_ERROR(
          PrepareDatalinkChange(def.columns[i], &old_row[i], &new_row[i]));
    }
    EASIA_RETURN_IF_ERROR(table->Update(id, new_row));
    UndoOp undo;
    undo.kind = UndoOp::Kind::kUpdate;
    undo.table = def.name;
    undo.row_id = id;
    undo.old_row = old_row;
    txn_->undo.push_back(std::move(undo));
    WalRecord rec;
    rec.type = WalRecordType::kUpdate;
    rec.txn_id = txn_->id;
    rec.table = def.name;
    rec.row_id = id;
    rec.row = new_row;
    rec.old_row = old_row;
    AppendWal(std::move(rec));
    ++updated;
    counters_.rows_updated.fetch_add(1, std::memory_order_relaxed);
  }
  return DmlResult(updated);
}

Result<QueryResult> Database::ExecDelete(const DeleteStmt& stmt,
                                         const ExecContext& ctx) {
  (void)ctx;
  EASIA_ASSIGN_OR_RETURN(Table * table, GetMutableTable(stmt.table));
  const TableDef& def = table->def();
  EASIA_ASSIGN_OR_RETURN(DmlTargets targets,
                         SelectDmlTargets(*table, stmt.where.get()));
  size_t deleted = 0;
  for (RowId id : targets.row_ids) {
    EASIA_ASSIGN_OR_RETURN(Row old_row, table->Get(id));
    EASIA_RETURN_IF_ERROR(CheckNoChildren(def, old_row, nullptr));
    for (size_t i = 0; i < def.columns.size(); ++i) {
      EASIA_RETURN_IF_ERROR(
          PrepareDatalinkChange(def.columns[i], &old_row[i], nullptr));
    }
    EASIA_RETURN_IF_ERROR(table->Delete(id));
    UndoOp undo;
    undo.kind = UndoOp::Kind::kDelete;
    undo.table = def.name;
    undo.row_id = id;
    undo.old_row = old_row;
    txn_->undo.push_back(std::move(undo));
    WalRecord rec;
    rec.type = WalRecordType::kDelete;
    rec.txn_id = txn_->id;
    rec.table = def.name;
    rec.row_id = id;
    rec.old_row = old_row;
    AppendWal(std::move(rec));
    ++deleted;
    counters_.rows_deleted.fetch_add(1, std::memory_order_relaxed);
  }
  return DmlResult(deleted);
}

Result<QueryResult> Database::ExecCopy(const CopyStmt& stmt,
                                       const ExecContext& ctx) {
  (void)ctx;
  EASIA_ASSIGN_OR_RETURN(Table * table, GetMutableTable(stmt.table));
  const TableDef& def = table->def();
  EASIA_ASSIGN_OR_RETURN(store::BulkFile file,
                         store::ReadBulkFile(env_, stmt.path));
  // The bulk header must match the table positionally: loading a file
  // written against a different schema would silently scramble columns.
  if (file.columns.size() != def.columns.size()) {
    return Status::InvalidArgument(StrPrintf(
        "bulk file has %zu columns but table %s has %zu", file.columns.size(),
        def.name.c_str(), def.columns.size()));
  }
  for (size_t i = 0; i < def.columns.size(); ++i) {
    if (!EqualsIgnoreCase(file.columns[i], def.columns[i].name) ||
        file.types[i] != def.columns[i].type) {
      return Status::InvalidArgument(
          "bulk file column " + file.columns[i] + " does not match " +
          def.name + "." + def.columns[i].name);
    }
  }
  // One transaction (and one kBulkLoad WAL record) per chunk: a crash
  // mid-COPY recovers exactly the chunks whose commit reached the log, and
  // a bad row aborts only its own chunk, keeping the chunks before it.
  size_t inserted = 0;
  size_t chunk_no = 0;
  for (std::vector<Row>& chunk : file.chunks) {
    ++chunk_no;
    if (chunk.empty()) continue;
    EnsureTxn();
    WalRecord rec;
    rec.type = WalRecordType::kBulkLoad;
    rec.txn_id = txn_->id;
    rec.table = def.name;
    rec.bulk_rows.reserve(chunk.size());
    txn_->undo.reserve(txn_->undo.size() + chunk.size());
    auto load_row = [&](Row raw) -> Status {
      EASIA_ASSIGN_OR_RETURN(Row row, ValidateRow(def, std::move(raw)));
      EASIA_RETURN_IF_ERROR(CheckForeignKeysOnWrite(def, row));
      for (size_t i = 0; i < def.columns.size(); ++i) {
        EASIA_RETURN_IF_ERROR(
            PrepareDatalinkChange(def.columns[i], nullptr, &row[i]));
      }
      EASIA_ASSIGN_OR_RETURN(RowId id, table->Insert(row));
      if (rec.bulk_rows.empty()) rec.row_id = id;
      UndoOp undo;
      undo.kind = UndoOp::Kind::kInsert;
      undo.table = def.name;
      undo.row_id = id;
      txn_->undo.push_back(std::move(undo));
      rec.bulk_rows.push_back(std::move(row));
      return Status::OK();
    };
    Status chunk_status = Status::OK();
    for (Row& raw : chunk) {
      chunk_status = load_row(std::move(raw));
      if (!chunk_status.ok()) break;
    }
    if (!chunk_status.ok()) {
      RollbackInternal();
      counters_.txn_aborts.fetch_add(1, std::memory_order_relaxed);
      return chunk_status.WithContext(
          StrPrintf("copy %s chunk %zu", def.name.c_str(), chunk_no));
    }
    size_t chunk_rows = rec.bulk_rows.size();
    AppendWal(std::move(rec));
    Status commit = CommitInternal();
    if (!commit.ok()) {
      RollbackInternal();
      counters_.txn_aborts.fetch_add(1, std::memory_order_relaxed);
      return commit;
    }
    counters_.txn_commits.fetch_add(1, std::memory_order_relaxed);
    counters_.rows_inserted.fetch_add(chunk_rows, std::memory_order_relaxed);
    counters_.bulk_chunks.fetch_add(1, std::memory_order_relaxed);
    inserted += chunk_rows;
  }
  return DmlResult(inserted);
}

Result<QueryResult> Database::ExecSelect(const SelectStmt& stmt,
                                         const ExecContext& ctx) {
  obs::Tracer::Scope span(tracer_, "planner:select");
  counters_.queries.fetch_add(1, std::memory_order_relaxed);
  TableLookup lookup = [this](const std::string& name) {
    return GetTable(name);
  };
  DatalinkRewriter rewriter;
  if (coordinator_ != nullptr && ctx.resolve_datalinks) {
    rewriter = [this, &ctx](const ColumnDef& def,
                            const std::string& url) -> Result<std::string> {
      if (!def.datalink.has_value()) return url;
      return coordinator_->ResolveForRead(*def.datalink, url, ctx.user);
    };
  }
  ExecuteOptions exec_options;
  exec_options.cost_based = options_.cost_based_planner;
  exec_options.tracer = tracer_;
  exec_options.plan_observer = [this](const SelectPlan& plan) {
    advisor_.ObservePlan(plan);
  };
  return ExecuteSelect(stmt, lookup, rewriter, exec_options);
}

Result<QueryResult> Database::ExecExplain(const SelectStmt& stmt,
                                          bool analyze) {
  TableLookup lookup = [this](const std::string& name) {
    return GetTable(name);
  };
  PlannerOptions planner_options;
  planner_options.cost_based = options_.cost_based_planner;
  EASIA_ASSIGN_OR_RETURN(SelectPlan plan,
                         PlanSelect(stmt, lookup, planner_options));
  std::vector<std::string> lines = plan.Describe();
  if (analyze) {
    // Execute the same statement (deterministic planning: the plan shape
    // matches `plan`) with profiling on, then annotate the per-operator
    // Describe lines. DATALINK rewriting is presentation-only and the
    // rows are discarded, so a null rewriter is fine.
    PlanProfile profile;
    ExecuteOptions exec_options;
    exec_options.cost_based = options_.cost_based_planner;
    exec_options.profile = &profile;
    exec_options.tracer = tracer_;
    Result<QueryResult> executed =
        ExecuteSelect(stmt, lookup, nullptr, exec_options);
    if (!executed.ok()) return std::move(executed).status();
    auto annotate = [](std::string* line, const PlanProfile::Op& op) {
      *line += StrPrintf(" (est rows=%.2f", op.est_rows);
      if (op.actual_rows >= 0) {
        *line += StrPrintf(", actual rows=%lld",
                           static_cast<long long>(op.actual_rows));
      } else {
        *line += ", actual rows=n/a";
      }
      *line += StrPrintf(", %.3f ms)", op.seconds * 1000.0);
    };
    // Describe() emits the scan lines first, then one line per join, in
    // execution order — exactly how the profile is indexed.
    for (size_t i = 0; i < profile.scans.size() && i < lines.size(); ++i) {
      annotate(&lines[i], profile.scans[i]);
    }
    for (size_t j = 0; j < profile.joins.size(); ++j) {
      size_t at = profile.scans.size() + j;
      if (at < lines.size()) annotate(&lines[at], profile.joins[j]);
    }
    lines.push_back(StrPrintf(
        "total: %lld rows, %.3f ms",
        static_cast<long long>(profile.result_rows),
        profile.total_seconds * 1000.0));
  }
  QueryResult result;
  result.is_query = true;
  result.column_names.push_back("PLAN");
  result.column_types.push_back(DataType::kVarchar);
  for (std::string& line : lines) {
    result.rows.push_back({Value::Varchar(std::move(line))});
  }
  return result;
}

Status Database::ApplyIndexRecommendations(uint64_t min_hits) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  return ApplyIndexRecommendationsLocked(min_hits);
}

Status Database::ApplyIndexRecommendationsLocked(uint64_t min_hits) {
  for (const stats::IndexRecommendation& rec :
       advisor_.Recommendations(min_hits)) {
    auto it = tables_.find(ToUpper(rec.table));
    if (it == tables_.end()) continue;  // table dropped since observed
    EASIA_RETURN_IF_ERROR(it->second->CreateSecondaryIndex({rec.column}));
  }
  return Status::OK();
}

std::string Database::SerializeSnapshot() const {
  std::shared_lock<std::shared_mutex> read_lock(mu_);
  return SerializeSnapshotLocked();
}

std::string Database::SerializeSnapshotLocked() const {
  std::string out;
  out += kSnapshotMagic;
  DatabaseStats ds = stats();
  PutU64(&out, ds.statements);
  PutU64(&out, ds.queries);
  PutU64(&out, ds.rows_inserted);
  PutU64(&out, ds.rows_updated);
  PutU64(&out, ds.rows_deleted);
  PutU64(&out, ds.txn_commits);
  PutU64(&out, ds.txn_aborts);
  PutU64(&out, ds.bulk_chunks);
  PutU32(&out, static_cast<uint32_t>(tables_.size()));
  for (const auto& [key, table] : tables_) {
    PutLengthPrefixed(&out, table->def().ToSql());
    PutU64(&out, table->next_row_id());
    PutU32(&out, static_cast<uint32_t>(table->RowCount()));
    table->ForEachRow([&out](RowId id, const Row& row) {
      PutU64(&out, id);
      EncodeRow(&out, row);
    });
    // Persist the planner sketches wholesale: they carry widen-only
    // min/max history and the sample admission threshold, which a rebuild
    // from the rows above cannot reproduce.
    std::string stats_block;
    table->table_stats().EncodeTo(&stats_block);
    PutLengthPrefixed(&out, stats_block);
  }
  PutU32(&out, Crc32(std::string_view(out).substr(kSnapshotMagic.size())));
  return out;
}

Status Database::SaveSnapshot(const std::string& path) const {
  std::shared_lock<std::shared_mutex> read_lock(mu_);
  return SaveSnapshotLocked(path);
}

Status Database::SaveSnapshotLocked(const std::string& path) const {
  return env_->WriteFileAtomic(path, SerializeSnapshotLocked())
      .WithContext("snapshot");
}

Status Database::LoadSnapshot(const std::string& path) {
  EASIA_ASSIGN_OR_RETURN(std::string contents, env_->ReadFileToString(path));
  return LoadSnapshotFromString(contents);
}

Status Database::LoadSnapshotFromString(const std::string& contents) {
  std::unique_lock<std::shared_mutex> write_lock(mu_);
  Status s = LoadSnapshotFromStringLocked(contents);
  // Whatever happened to the in-memory state, cached derivations of it are
  // no longer trustworthy.
  commit_epoch_.fetch_add(1, std::memory_order_acq_rel);
  return s;
}

Status Database::LoadSnapshotFromStringLocked(const std::string& contents) {
  std::string_view magic =
      std::string_view(contents).substr(0, kSnapshotMagic.size());
  bool has_table_stats = magic == kSnapshotMagic;
  bool has_bulk = has_table_stats || magic == kSnapshotMagicV3;
  bool has_stats = has_bulk || magic == kSnapshotMagicV2;
  if (contents.size() < kSnapshotMagic.size() + 4 ||
      (!has_stats && magic != kSnapshotMagicV1)) {
    return Status::Corruption("bad snapshot magic");
  }
  std::string_view body = std::string_view(contents).substr(
      kSnapshotMagic.size(), contents.size() - kSnapshotMagic.size() - 4);
  Decoder crc_dec(
      std::string_view(contents).substr(contents.size() - 4));
  EASIA_ASSIGN_OR_RETURN(uint32_t crc, crc_dec.GetU32());
  if (Crc32(body) != crc) return Status::Corruption("snapshot crc mismatch");
  Decoder dec(body);
  if (has_stats) {
    // Counters are restored monotonically: a snapshot taken earlier in
    // this process's life (backup round-trips, crash recovery into a
    // fresh Database) never moves a live counter backwards, so /metrics
    // counter families keep their Prometheus monotonicity contract.
    DatabaseStats ds;
    EASIA_ASSIGN_OR_RETURN(ds.statements, dec.GetU64());
    EASIA_ASSIGN_OR_RETURN(ds.queries, dec.GetU64());
    EASIA_ASSIGN_OR_RETURN(ds.rows_inserted, dec.GetU64());
    EASIA_ASSIGN_OR_RETURN(ds.rows_updated, dec.GetU64());
    EASIA_ASSIGN_OR_RETURN(ds.rows_deleted, dec.GetU64());
    EASIA_ASSIGN_OR_RETURN(ds.txn_commits, dec.GetU64());
    EASIA_ASSIGN_OR_RETURN(ds.txn_aborts, dec.GetU64());
    if (has_bulk) {
      EASIA_ASSIGN_OR_RETURN(ds.bulk_chunks, dec.GetU64());
    }
    auto restore = [](std::atomic<uint64_t>* counter, uint64_t persisted) {
      uint64_t cur = counter->load(std::memory_order_relaxed);
      while (cur < persisted && !counter->compare_exchange_weak(
                                    cur, persisted,
                                    std::memory_order_relaxed)) {
      }
    };
    restore(&counters_.statements, ds.statements);
    restore(&counters_.queries, ds.queries);
    restore(&counters_.rows_inserted, ds.rows_inserted);
    restore(&counters_.rows_updated, ds.rows_updated);
    restore(&counters_.rows_deleted, ds.rows_deleted);
    restore(&counters_.txn_commits, ds.txn_commits);
    restore(&counters_.txn_aborts, ds.txn_aborts);
    restore(&counters_.bulk_chunks, ds.bulk_chunks);
  }
  // Reset state.
  catalog_ = Catalog();
  tables_.clear();
  EASIA_ASSIGN_OR_RETURN(uint32_t table_count, dec.GetU32());
  // First pass may hit FK ordering problems; defer FK validation by adding
  // tables in two passes: create bare, then re-add with FKs. Simpler: retry
  // loop until fixpoint.
  struct PendingTable {
    TableDef def;
    uint64_t next_row_id;
    std::vector<std::pair<RowId, Row>> rows;
    std::string stats_block;  // empty for pre-V4 snapshots
  };
  std::vector<PendingTable> pending;
  for (uint32_t t = 0; t < table_count; ++t) {
    EASIA_ASSIGN_OR_RETURN(std::string ddl, dec.GetLengthPrefixed());
    EASIA_ASSIGN_OR_RETURN(Statement stmt, ParseSql(ddl));
    if (stmt.kind != Statement::Kind::kCreateTable) {
      return Status::Corruption("snapshot: bad DDL");
    }
    PendingTable pt;
    pt.def = std::move(stmt.create_table->def);
    EASIA_ASSIGN_OR_RETURN(pt.next_row_id, dec.GetU64());
    EASIA_ASSIGN_OR_RETURN(uint32_t row_count, dec.GetU32());
    for (uint32_t r = 0; r < row_count; ++r) {
      EASIA_ASSIGN_OR_RETURN(RowId id, dec.GetU64());
      EASIA_ASSIGN_OR_RETURN(Row row, DecodeRow(&dec));
      pt.rows.emplace_back(id, std::move(row));
    }
    if (has_table_stats) {
      EASIA_ASSIGN_OR_RETURN(pt.stats_block, dec.GetLengthPrefixed());
    }
    pending.push_back(std::move(pt));
  }
  // Add tables until fixpoint (handles FK dependency order).
  std::vector<bool> added(pending.size(), false);
  size_t remaining = pending.size();
  bool progress = true;
  while (remaining > 0 && progress) {
    progress = false;
    for (size_t i = 0; i < pending.size(); ++i) {
      if (added[i]) continue;
      if (catalog_.AddTable(pending[i].def).ok()) {
        auto table = std::make_unique<Table>(pending[i].def);
        for (auto& [id, row] : pending[i].rows) {
          EASIA_RETURN_IF_ERROR(table->InsertWithId(id, row));
        }
        if (!pending[i].stats_block.empty()) {
          // The persisted sketches override the ones the inserts above
          // just rebuilt (they carry deleted-value history).
          Decoder stats_dec(pending[i].stats_block);
          EASIA_RETURN_IF_ERROR(
              table->mutable_table_stats()->DecodeFrom(&stats_dec));
        }
        tables_[ToUpper(pending[i].def.name)] = std::move(table);
        added[i] = true;
        --remaining;
        progress = true;
      }
    }
  }
  if (remaining > 0) {
    return Status::Corruption("snapshot: unresolvable FK dependencies");
  }
  return Status::OK();
}

Status Database::Checkpoint() {
  if (options_.snapshot_path.empty()) {
    return Status::FailedPrecondition("no snapshot path configured");
  }
  if (OwnsExplicitTxn()) {
    return Status::FailedPrecondition("cannot checkpoint inside transaction");
  }
  // Exclusive: the snapshot and the WAL truncation must see one state.
  std::unique_lock<std::shared_mutex> write_lock(mu_);
  EASIA_RETURN_IF_ERROR(SaveSnapshotLocked(options_.snapshot_path));
  if (!options_.wal_path.empty()) {
    wal_.reset();
    EASIA_RETURN_IF_ERROR(env_->Truncate(options_.wal_path));
    Result<WalWriter> writer = WalWriter::Open(env_, options_.wal_path);
    if (!writer.ok()) {
      wal_open_status_ = writer.status();
      return writer.status();
    }
    wal_ = std::make_unique<WalWriter>(std::move(*writer));
    wal_open_status_ = Status::OK();
  }
  return Status::OK();
}

}  // namespace easia::db
