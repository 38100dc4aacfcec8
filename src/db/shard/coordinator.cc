#include "db/shard/coordinator.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <thread>
#include <utility>

#include "common/coding.h"
#include "common/string_util.h"
#include "db/executor.h"
#include "db/parser.h"
#include "db/planner.h"
#include "db/stats/table_stats.h"
#include "obs/metrics.h"

namespace easia::db::shard {

namespace {

/// FNV-1a 64 over the partition key's canonical key-string encoding, so
/// INTEGER 5 and DOUBLE 5.0 (which compare equal and share a key string)
/// land on the same partition.
uint64_t Fnv1a64(std::string_view s) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// Approximate wire size of a row for sim-link metering.
uint64_t ApproxRowBytes(const Row& row) {
  uint64_t bytes = 0;
  for (const Value& v : row) {
    bytes += 16;
    if (!v.is_null() && v.IsStringKind()) bytes += v.AsString().size();
  }
  return bytes;
}

/// Splits a predicate into its top-level AND conjuncts.
void CollectConjuncts(const Expr* e, std::vector<const Expr*>* out) {
  if (e == nullptr) return;
  if (e->kind == Expr::Kind::kBinary && e->op == Expr::Op::kAnd) {
    CollectConjuncts(e->left.get(), out);
    CollectConjuncts(e->right.get(), out);
    return;
  }
  out->push_back(e);
}

/// Resolves which FROM entry a column reference binds to, mirroring the
/// executor's rule: a qualifier matches the entry's alias; an unqualified
/// name binds to the first entry whose table defines the column. -1 when
/// unresolved.
int ResolveColumnOwner(const Expr& col, const std::vector<TableRef>& from,
                       const std::vector<const TableDef*>& defs) {
  if (!col.table.empty()) {
    for (size_t i = 0; i < from.size(); ++i) {
      if (EqualsIgnoreCase(from[i].alias, col.table)) return static_cast<int>(i);
    }
    return -1;
  }
  for (size_t i = 0; i < from.size(); ++i) {
    if (defs[i] != nullptr && defs[i]->ColumnIndex(col.column).ok()) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

/// Collects the aggregate calls reachable by the executor's merge-time
/// walk, which recurses through binary operators only — every other node
/// kind is a leaf evaluated against the group's first row. Returns false
/// when an aggregate has a shape the scatter path cannot accumulate
/// (argument-count errors are left to the gather path to reproduce).
bool CollectAggregates(const Expr* e, std::vector<const Expr*>* out) {
  if (e == nullptr) return true;
  if (e->kind == Expr::Kind::kCall && IsAggregateFunction(e->func)) {
    if (e->star) {
      if (e->func != "COUNT") return false;
      out->push_back(e);
      return true;
    }
    if (e->args.size() != 1) return false;
    out->push_back(e);
    return true;
  }
  if (e->kind == Expr::Kind::kBinary) {
    return CollectAggregates(e->left.get(), out) &&
           CollectAggregates(e->right.get(), out);
  }
  return true;
}

/// Canonical key for a row's primary-key values (dedup / exclusion sets).
std::string PkKey(const TableDef& def, const Row& row) {
  std::string key;
  for (const std::string& col : def.primary_key) {
    Result<size_t> idx = def.ColumnIndex(col);
    if (idx.ok()) PutLengthPrefixed(&key, row[*idx].ToKeyString());
  }
  return key;
}

QueryResult DmlResult(size_t rows_affected) {
  QueryResult r;
  r.is_query = false;
  r.rows_affected = rows_affected;
  return r;
}

// Statements the coordinator writes itself carry typed literals, so a
// shard applies exactly the Values the coordinator validated.

/// `pk1 = v1 AND pk2 = v2 ...` with the values taken from `row`.
std::unique_ptr<Expr> PkMatch(const TableDef& def, const Row& row) {
  std::unique_ptr<Expr> where;
  for (const std::string& col : def.primary_key) {
    Result<size_t> idx = def.ColumnIndex(col);
    if (!idx.ok()) continue;
    std::unique_ptr<Expr> eq =
        Expr::MakeBinary(Expr::Op::kEq, Expr::MakeColumn("", col),
                         Expr::MakeLiteral(row[*idx]));
    where = where == nullptr
                ? std::move(eq)
                : Expr::MakeBinary(Expr::Op::kAnd, std::move(where),
                                   std::move(eq));
  }
  return where;
}

/// INSERT INTO <def> VALUES (...), one tuple per row.
Statement InsertRows(const TableDef& def, const std::vector<const Row*>& rows) {
  Statement stmt;
  stmt.kind = Statement::Kind::kInsert;
  stmt.insert = std::make_unique<InsertStmt>();
  stmt.insert->table = def.name;
  for (const Row* row : rows) {
    std::vector<std::unique_ptr<Expr>>& values =
        stmt.insert->rows.emplace_back();
    for (const Value& v : *row) values.push_back(Expr::MakeLiteral(v));
  }
  return stmt;
}

/// DELETE FROM <def> WHERE <row's primary key>. `def` must have one.
Statement DeleteRow(const TableDef& def, const Row& row) {
  Statement stmt;
  stmt.kind = Statement::Kind::kDelete;
  stmt.del = std::make_unique<DeleteStmt>();
  stmt.del->table = def.name;
  stmt.del->where = PkMatch(def, row);
  return stmt;
}

/// Per-slot partial accumulator, mergeable across shards. Mirrors the
/// executor's EvalAggregate accumulation exactly (null skip, __int128
/// integer sums, Compare-based min/max).
struct SlotAcc {
  int64_t count = 0;
  __int128 isum = 0;
  double dsum = 0;
  bool all_int = true;
  Value min_v = Value::Null();
  Value max_v = Value::Null();
};

struct PartialGroup {
  int64_t rows = 0;  // COUNT(*) of the group
  uint64_t first_seq = UINT64_MAX;
  bool has_first = false;
  Row first_row;
  std::vector<SlotAcc> slots;
};

}  // namespace

/// Per-statement routing decision.
struct ShardCoordinator::SelectAnalysis {
  enum class Strategy { kSingle, kScatter, kGather };
  struct Route {
    const TableDef* def = nullptr;
    const PartState* state = nullptr;  // null: broadcast table
    std::vector<bool> scanned;
  };
  Strategy strategy = Strategy::kGather;
  bool missing_table = false;
  bool any_partitioned = false;
  size_t single_shard = 0;  // kSingle: target shard
  std::vector<Route> routes;
  std::vector<bool> union_scanned;
  size_t scanned_count = 0;
  size_t pruned_count = 0;
  /// Aggregate calls in walk order (items, HAVING, ORDER BY); scatter
  /// accumulates one SlotAcc per entry.
  std::vector<const Expr*> agg_nodes;
};

ShardCoordinator::ShardCoordinator(sim::Network* network, ShardOptions options)
    : network_(network), options_(std::move(options)) {
  DatabaseOptions db_opts = options_.shard_db_options;
  db_opts.enforce_foreign_keys = false;  // FKs are global; see ParentProbe
  for (size_t i = 0; i < options_.shard_hosts.size(); ++i) {
    Shard shard;
    shard.host = options_.shard_hosts[i];
    shard.db =
        std::make_unique<Database>("SHARD" + std::to_string(i), db_opts);
    if (options_.replicas_per_shard > 0) {
      repl::CoordinatorOptions ropts = options_.repl_options;
      ropts.primary_host = shard.host;
      shard.repl = std::make_unique<repl::ReplicationCoordinator>(
          shard.db.get(), network_, ropts);
      for (size_t r = 1; r <= options_.replicas_per_shard; ++r) {
        shard.repl->AddReplica(shard.host + "-r" + std::to_string(r), db_opts);
      }
    }
    shards_.push_back(std::move(shard));
  }
}

ShardCoordinator::~ShardCoordinator() = default;

Result<QueryResult> ShardCoordinator::ShardWrite(size_t i,
                                                 const Statement& stmt,
                                                 const ExecContext& ctx,
                                                 std::string_view sql) {
  if (shards_[i].repl == nullptr) {
    return shards_[i].db->ExecuteStatement(stmt, sql, ctx);
  }
  return shards_[i].repl->ExecuteStatement(stmt, sql, ctx);
}

Result<QueryResult> ShardCoordinator::ApplySteps(const std::vector<Step>& steps,
                                                 const ExecContext& ctx,
                                                 std::string_view sql) {
  Result<QueryResult> first = Status::Internal("no shards configured");
  for (size_t i = 0; i < steps.size(); ++i) {
    Result<QueryResult> r =
        ShardWrite(steps[i].shard, *steps[i].stmt, ctx, sql);
    if (!r.ok()) {
      // kAborted: the failing step committed on its shard's primary below
      // the ack quorum; a piecewise step may have committed a prefix. Both
      // are reversed like the steps before them.
      bool partly_applied =
          r.status().code() == StatusCode::kAborted || steps[i].piecewise;
      size_t applied = partly_applied ? i + 1 : i;
      for (size_t u = applied; u-- > 0;) {
        if (steps[u].undo) steps[u].undo();
      }
      return r;
    }
    if (i == 0) first = std::move(r);
  }
  return first;
}

Result<QueryResult> ShardCoordinator::WriteAll(const Statement& stmt,
                                               const PartState* state,
                                               const ExecContext& ctx) {
  size_t affected = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    EASIA_ASSIGN_OR_RETURN(QueryResult r, ShardWrite(s, stmt, ctx));
    if (state != nullptr || s == 0) affected += r.rows_affected;
  }
  return DmlResult(affected);
}

bool ShardCoordinator::PkTaken(const TableDef& def, size_t shard,
                               const Row& row) const {
  std::vector<Value> pk_values;
  for (const std::string& col : def.primary_key) {
    Result<size_t> idx = def.ColumnIndex(col);
    if (idx.ok()) pk_values.push_back(row[*idx]);
  }
  Result<const Table*> table = ShardTable(shard, def.name);
  return table.ok() && (*table)->FindUnique(def.primary_key, pk_values).ok();
}

repl::ReadTicket ShardCoordinator::ShardRead(size_t i) {
  if (shards_[i].repl != nullptr) return shards_[i].repl->RouteRead();
  return {shards_[i].db.get(), shards_[i].db->commit_epoch(), shards_[i].host,
          false};
}

Database* ShardCoordinator::primary_db(size_t i) const {
  // After a shard failover the replication group's primary aliases a
  // promoted replica; shards_[i].db keeps owning the initial primary but
  // no longer receives writes.
  if (shards_[i].repl != nullptr) return shards_[i].repl->primary();
  return shards_[i].db.get();
}

Result<const Table*> ShardCoordinator::ShardTable(
    size_t i, const std::string& table) const {
  return primary_db(i)->GetTable(table);
}

size_t ShardCoordinator::ShardOfValue(const PartState& state,
                                      const Value& pk) const {
  uint64_t hash = Fnv1a64(pk.ToKeyString());
  uint64_t partition = hash % static_cast<uint64_t>(state.partitions);
  return static_cast<size_t>(partition % shards_.size());
}

uint64_t ShardCoordinator::SeqOf(const PartState& state,
                                 const Value& pk) const {
  auto it = state.seq.find(pk.ToKeyString());
  return it == state.seq.end() ? UINT64_MAX : it->second;
}

Result<std::vector<ShardCoordinator::DmlTarget>>
ShardCoordinator::CollectDmlTargets(const TableDef& def,
                                    const PartState* state,
                                    const Expr* where) const {
  std::vector<DmlTarget> targets;
  // Broadcast tables are identical on every shard; shard 0 answers.
  size_t scan_shards = state != nullptr ? shards_.size() : 1;
  for (size_t s = 0; s < scan_shards; ++s) {
    EASIA_ASSIGN_OR_RETURN(const Table* table, ShardTable(s, def.name));
    EASIA_ASSIGN_OR_RETURN(DmlTargets found, SelectDmlTargets(*table, where));
    for (RowId id : found.row_ids) {
      DmlTarget target;
      target.shard = s;
      EASIA_ASSIGN_OR_RETURN(target.row, table->Get(id));
      target.seq = state != nullptr
                       ? SeqOf(*state, target.row[state->pk_index])
                       : static_cast<uint64_t>(id);
      targets.push_back(std::move(target));
    }
  }
  std::stable_sort(targets.begin(), targets.end(),
                   [](const DmlTarget& x, const DmlTarget& y) {
                     return x.seq < y.seq;
                   });
  return targets;
}

void ShardCoordinator::MeterToCoordinator(const std::string& from_host,
                                          uint64_t bytes) {
  if (bytes == 0 || from_host.empty() ||
      from_host == options_.coordinator_host) {
    return;
  }
  // Best effort: a lossy/down link must not fail the read that already
  // served from local table state.
  (void)network_->TransferAt(from_host, options_.coordinator_host, bytes,
                             network_->Now());
}

uint64_t ShardCoordinator::combined_epoch() const {
  uint64_t epoch = 0;
  for (size_t i = 0; i < shards_.size(); ++i) {
    epoch += primary_db(i)->commit_epoch();
  }
  return epoch;
}

std::vector<ShardInfo> ShardCoordinator::shard_info() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<ShardInfo> out;
  for (size_t i = 0; i < shards_.size(); ++i) {
    ShardInfo info;
    info.host = shards_[i].host;
    info.commit_epoch = primary_db(i)->commit_epoch();
    for (const auto& [name, state] : part_) {
      Result<const Table*> table = ShardTable(i, name);
      if (table.ok()) info.partitioned_rows += (*table)->RowCount();
    }
    if (shards_[i].repl != nullptr) {
      for (const repl::ReplicaInfo& r : shards_[i].repl->replica_info()) {
        info.max_replica_lag = std::max(info.max_replica_lag, r.lag_epochs);
        ++info.replicas;
      }
    }
    out.push_back(std::move(info));
  }
  return out;
}

ShardCounters ShardCoordinator::counters() const {
  ShardCounters c;
  c.queries_single = queries_single_.load(std::memory_order_relaxed);
  c.queries_scatter = queries_scatter_.load(std::memory_order_relaxed);
  c.queries_gather = queries_gather_.load(std::memory_order_relaxed);
  c.scanned_shards = scanned_shards_.load(std::memory_order_relaxed);
  c.pruned_shards = pruned_shards_.load(std::memory_order_relaxed);
  c.writes = writes_.load(std::memory_order_relaxed);
  c.migrations = migrations_.load(std::memory_order_relaxed);
  return c;
}

void ShardCoordinator::SetScatterHook(std::function<void(size_t)> hook) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  scatter_hook_ = std::move(hook);
}

void ShardCoordinator::RegisterMetrics(obs::MetricsRegistry* metrics) {
  (void)metrics->RegisterCallback(
      "easia_shard_rows", "Rows of hash-partitioned tables per shard",
      obs::MetricsRegistry::CallbackKind::kGauge, [this] {
        std::vector<std::pair<obs::Labels, double>> out;
        std::vector<ShardInfo> info = shard_info();
        for (size_t i = 0; i < info.size(); ++i) {
          out.push_back({{{"shard", std::to_string(i)}},
                         static_cast<double>(info[i].partitioned_rows)});
        }
        return out;
      });
  (void)metrics->RegisterCallback(
      "easia_shard_lag_epochs",
      "Max replica lag (epochs) in each shard's replication group",
      obs::MetricsRegistry::CallbackKind::kGauge, [this] {
        std::vector<std::pair<obs::Labels, double>> out;
        std::vector<ShardInfo> info = shard_info();
        for (size_t i = 0; i < info.size(); ++i) {
          out.push_back({{{"shard", std::to_string(i)}},
                         static_cast<double>(info[i].max_replica_lag)});
        }
        return out;
      });
  (void)metrics->RegisterCallback(
      "easia_shard_queries_total", "SELECTs routed, by execution strategy",
      obs::MetricsRegistry::CallbackKind::kCounter, [this] {
        ShardCounters c = counters();
        return std::vector<std::pair<obs::Labels, double>>{
            {{{"strategy", "gather"}}, static_cast<double>(c.queries_gather)},
            {{{"strategy", "scatter"}}, static_cast<double>(c.queries_scatter)},
            {{{"strategy", "single"}}, static_cast<double>(c.queries_single)},
        };
      });
  auto simple = [&](const char* name, const char* help,
                    std::atomic<uint64_t>* counter) {
    (void)metrics->RegisterCallback(
        name, help, obs::MetricsRegistry::CallbackKind::kCounter, [counter] {
          return std::vector<std::pair<obs::Labels, double>>{
              {{}, static_cast<double>(counter->load(
                       std::memory_order_relaxed))}};
        });
  };
  simple("easia_shard_scanned_shards_total",
         "Shard scans performed by SELECT routing", &scanned_shards_);
  simple("easia_shard_pruned_shards_total",
         "Shard scans avoided by partition pruning", &pruned_shards_);
  simple("easia_shard_writes_total", "DML/DDL statements routed to shards",
         &writes_);
  simple("easia_shard_migrations_total",
         "Rows moved between shards by partition-key UPDATEs", &migrations_);
}

Result<QueryResult> ShardCoordinator::Execute(std::string_view sql,
                                              const ExecContext& ctx) {
  EASIA_ASSIGN_OR_RETURN(Statement stmt, ParseSql(sql));
  switch (stmt.kind) {
    case Statement::Kind::kSelect:
    case Statement::Kind::kExplain: {
      std::shared_lock<std::shared_mutex> lock(mu_);
      return ExecSelect(stmt, ctx);
    }
    case Statement::Kind::kBegin:
    case Statement::Kind::kCommit:
    case Statement::Kind::kRollback:
      return Status::FailedPrecondition(
          "explicit transactions are not supported on a sharded database");
    default:
      break;
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  writes_.fetch_add(1, std::memory_order_relaxed);
  switch (stmt.kind) {
    case Statement::Kind::kInsert:
      return ExecInsert(stmt, ctx);
    case Statement::Kind::kUpdate:
      return ExecUpdate(stmt, ctx);
    case Statement::Kind::kDelete:
      return ExecDelete(stmt, ctx);
    case Statement::Kind::kCreateTable:
    case Statement::Kind::kDropTable:
      return ExecDdl(stmt, sql, ctx);
    case Statement::Kind::kCopy:
      return ExecCopy(stmt, ctx);
    default:
      return Status::Internal("unhandled statement kind");
  }
}

// ---------------------------------------------------------------------------
// SELECT planning
// ---------------------------------------------------------------------------

std::vector<bool> ShardCoordinator::PruneForTable(
    const PartState& state, const TableDef& def, const std::string& alias,
    const SelectStmt& stmt) const {
  const size_t n = shards_.size();
  std::vector<bool> scanned(n, true);
  if (def.primary_key.empty()) return scanned;
  const std::string& pk = def.primary_key[0];
  const bool pk_numeric = IsNumericType(state.pk_type);

  std::vector<const TableDef*> defs;
  const Catalog& cat = primary_db(0)->catalog();
  for (const TableRef& ref : stmt.from) {
    Result<const TableDef*> d = cat.GetTable(ref.table);
    defs.push_back(d.ok() ? *d : nullptr);
  }
  std::vector<const Expr*> conjuncts;
  CollectConjuncts(stmt.where.get(), &conjuncts);
  for (const TableRef& ref : stmt.from) {
    CollectConjuncts(ref.join_condition.get(), &conjuncts);
  }

  auto is_our_pk = [&](const Expr& e) {
    if (e.kind != Expr::Kind::kColumn) return false;
    if (!EqualsIgnoreCase(e.column, pk)) return false;
    int owner = ResolveColumnOwner(e, stmt.from, defs);
    return owner >= 0 &&
           EqualsIgnoreCase(stmt.from[static_cast<size_t>(owner)].alias, alias);
  };
  auto intersect = [&](const std::vector<bool>& mask) {
    for (size_t s = 0; s < n; ++s) scanned[s] = scanned[s] && mask[s];
  };

  for (const Expr* c : conjuncts) {
    // pk = <literal>  (either side). Cross-kind comparisons (string pk vs
    // numeric literal) are skipped: hashing goes through the pk's key
    // encoding, which only matches within a kind class.
    if (c->kind == Expr::Kind::kBinary && c->op == Expr::Op::kEq &&
        c->left != nullptr && c->right != nullptr) {
      const Expr* col = nullptr;
      const Expr* lit = nullptr;
      if (c->left->kind == Expr::Kind::kColumn &&
          c->right->kind == Expr::Kind::kLiteral) {
        col = c->left.get();
        lit = c->right.get();
      } else if (c->right->kind == Expr::Kind::kColumn &&
                 c->left->kind == Expr::Kind::kLiteral) {
        col = c->right.get();
        lit = c->left.get();
      }
      if (col != nullptr && is_our_pk(*col)) {
        std::vector<bool> mask(n, false);
        if (!lit->literal.is_null()) {  // `pk = NULL` never matches: all-false
          if (lit->literal.IsNumericKind() != pk_numeric) continue;
          Result<Value> coerced = lit->literal.CoerceTo(state.pk_type);
          if (!coerced.ok()) continue;
          mask[ShardOfValue(state, *coerced)] = true;
        }
        intersect(mask);
        continue;
      }
    }
    // pk IN (<literals>): union of hashes. NULL list items never match and
    // drop out; any non-literal or uncoercible item abandons the conjunct.
    if (c->kind == Expr::Kind::kInList && !c->negated && c->left != nullptr &&
        c->left->kind == Expr::Kind::kColumn && is_our_pk(*c->left)) {
      std::vector<bool> mask(n, false);
      bool bounded = true;
      for (const auto& arg : c->args) {
        if (arg->kind != Expr::Kind::kLiteral) {
          bounded = false;
          break;
        }
        if (arg->literal.is_null()) continue;
        if (arg->literal.IsNumericKind() != pk_numeric) {
          bounded = false;
          break;
        }
        Result<Value> coerced = arg->literal.CoerceTo(state.pk_type);
        if (!coerced.ok()) {
          bounded = false;
          break;
        }
        mask[ShardOfValue(state, *coerced)] = true;
      }
      if (!bounded) continue;
      intersect(mask);
      continue;
    }
    // pk < / <= / > / >= <literal>: prune shards whose pk min/max sketch
    // (stats) proves no local row can satisfy. The raw literal is compared
    // (no coercion — rounding would corrupt the bound); sketches only
    // widen, so a replica lagging behind its primary stays covered.
    if (c->kind == Expr::Kind::kBinary && c->left != nullptr &&
        c->right != nullptr &&
        (c->op == Expr::Op::kLt || c->op == Expr::Op::kLe ||
         c->op == Expr::Op::kGt || c->op == Expr::Op::kGe)) {
      const Expr* col = nullptr;
      const Expr* lit = nullptr;
      Expr::Op op = c->op;
      if (c->left->kind == Expr::Kind::kColumn &&
          c->right->kind == Expr::Kind::kLiteral) {
        col = c->left.get();
        lit = c->right.get();
      } else if (c->right->kind == Expr::Kind::kColumn &&
                 c->left->kind == Expr::Kind::kLiteral) {
        col = c->right.get();
        lit = c->left.get();
        switch (op) {  // L op pk  ==  pk (flipped) L
          case Expr::Op::kLt: op = Expr::Op::kGt; break;
          case Expr::Op::kLe: op = Expr::Op::kGe; break;
          case Expr::Op::kGt: op = Expr::Op::kLt; break;
          default: op = Expr::Op::kLe; break;
        }
      }
      if (col != nullptr && is_our_pk(*col)) {
        const Value& bound = lit->literal;
        std::vector<bool> mask(n, false);
        if (!bound.is_null() && bound.IsNumericKind() == pk_numeric) {
          for (size_t s = 0; s < n; ++s) {
            Result<const Table*> table = ShardTable(s, def.name);
            if (!table.ok()) {
              mask[s] = true;  // unknown state: conservatively scan
              continue;
            }
            const stats::ColumnSketch& sketch =
                (*table)->table_stats().column(state.pk_index);
            const Value& mn = sketch.min_value();
            const Value& mx = sketch.max_value();
            if (mn.is_null() || mx.is_null()) continue;  // never held a row
            bool can_match = true;
            switch (op) {
              case Expr::Op::kLt: can_match = mn.Compare(bound) < 0; break;
              case Expr::Op::kLe: can_match = mn.Compare(bound) <= 0; break;
              case Expr::Op::kGt: can_match = mx.Compare(bound) > 0; break;
              default: can_match = mx.Compare(bound) >= 0; break;
            }
            mask[s] = can_match;
          }
        }
        // NULL bound: comparison is never TRUE — all shards prune.
        if (bound.is_null()) {
          intersect(mask);
          continue;
        }
        if (bound.IsNumericKind() != pk_numeric) continue;
        intersect(mask);
        continue;
      }
    }
  }
  return scanned;
}

ShardCoordinator::SelectAnalysis ShardCoordinator::Analyze(
    const SelectStmt& stmt) const {
  SelectAnalysis a;
  const size_t n = shards_.size();
  const Catalog& cat = primary_db(0)->catalog();
  std::vector<const TableDef*> defs;
  for (const TableRef& ref : stmt.from) {
    Result<const TableDef*> def = cat.GetTable(ref.table);
    if (!def.ok()) {
      a.missing_table = true;
      break;
    }
    defs.push_back(*def);
  }
  if (a.missing_table || stmt.from.empty()) {
    // Forward to shard 0: its catalogue mirror reproduces the single-node
    // behaviour (including the "no table named X" error).
    a.strategy = SelectAnalysis::Strategy::kSingle;
    a.single_shard = 0;
    a.scanned_count = 1;
    return a;
  }
  a.routes.resize(stmt.from.size());
  a.union_scanned.assign(n, false);
  bool order_dirty = false;
  for (size_t i = 0; i < stmt.from.size(); ++i) {
    SelectAnalysis::Route& route = a.routes[i];
    route.def = defs[i];
    auto pit = part_.find(ToUpper(defs[i]->name));
    if (pit == part_.end()) {
      route.scanned.assign(n, false);  // broadcast: local on every shard
      continue;
    }
    a.any_partitioned = true;
    route.state = &pit->second;
    order_dirty = order_dirty || pit->second.order_dirty;
    route.scanned = options_.enable_pruning
                        ? PruneForTable(pit->second, *defs[i],
                                        stmt.from[i].alias, stmt)
                        : std::vector<bool>(n, true);
  }
  if (!a.any_partitioned) {
    a.strategy = SelectAnalysis::Strategy::kSingle;
    a.single_shard = 0;
    a.scanned_count = 1;
    return a;
  }
  // Colocated-join pruning: pk = pk equality between two partitioned
  // tables with equal partition counts means matching rows share a shard,
  // so each side's route intersects with the other's.
  if (options_.enable_pruning) {
    std::vector<const Expr*> conjuncts;
    CollectConjuncts(stmt.where.get(), &conjuncts);
    for (const TableRef& ref : stmt.from) {
      CollectConjuncts(ref.join_condition.get(), &conjuncts);
    }
    for (const Expr* c : conjuncts) {
      if (c->kind != Expr::Kind::kBinary || c->op != Expr::Op::kEq) continue;
      if (c->left == nullptr || c->right == nullptr) continue;
      if (c->left->kind != Expr::Kind::kColumn ||
          c->right->kind != Expr::Kind::kColumn) {
        continue;
      }
      int o1 = ResolveColumnOwner(*c->left, stmt.from, defs);
      int o2 = ResolveColumnOwner(*c->right, stmt.from, defs);
      if (o1 < 0 || o2 < 0 || o1 == o2) continue;
      SelectAnalysis::Route& r1 = a.routes[static_cast<size_t>(o1)];
      SelectAnalysis::Route& r2 = a.routes[static_cast<size_t>(o2)];
      if (r1.state == nullptr || r2.state == nullptr) continue;
      if (r1.def->primary_key.empty() || r2.def->primary_key.empty()) continue;
      if (!EqualsIgnoreCase(c->left->column, r1.def->primary_key[0])) continue;
      if (!EqualsIgnoreCase(c->right->column, r2.def->primary_key[0])) continue;
      if (r1.state->partitions != r2.state->partitions) continue;
      for (size_t s = 0; s < n; ++s) {
        bool both = r1.scanned[s] && r2.scanned[s];
        r1.scanned[s] = both;
        r2.scanned[s] = both;
      }
    }
  }
  for (const SelectAnalysis::Route& route : a.routes) {
    if (route.state == nullptr) continue;
    for (size_t s = 0; s < n; ++s) {
      if (route.scanned[s]) a.union_scanned[s] = true;
    }
  }
  a.scanned_count = static_cast<size_t>(
      std::count(a.union_scanned.begin(), a.union_scanned.end(), true));
  a.pruned_count = n - a.scanned_count;

  // All matching partitioned rows on one shard (or none anywhere) and
  // insertion order intact: the statement forwards whole. Broadcast
  // tables are full copies everywhere, so joins stay correct.
  if (a.scanned_count == 0 ||
      (a.scanned_count == 1 && !order_dirty)) {
    a.strategy = SelectAnalysis::Strategy::kSingle;
    a.single_shard = 0;
    for (size_t s = 0; s < n; ++s) {
      if (a.union_scanned[s]) a.single_shard = s;
    }
    return a;
  }

  // Scatter: single partitioned table, aggregate shape, no DISTINCT, and
  // every aggregate reachable by the merge walk is accumulable.
  if (options_.enable_scatter && stmt.from.size() == 1 &&
      a.routes[0].state != nullptr && !stmt.distinct) {
    bool aggregate_query = !stmt.group_by.empty() || stmt.having != nullptr;
    for (const SelectItem& item : stmt.items) {
      if (item.expr != nullptr && item.expr->ContainsAggregate()) {
        aggregate_query = true;
      }
    }
    if (aggregate_query) {
      bool collectable = true;
      for (const SelectItem& item : stmt.items) {
        if (item.expr != nullptr) {
          collectable =
              collectable && CollectAggregates(item.expr.get(), &a.agg_nodes);
        }
      }
      if (stmt.having != nullptr) {
        collectable =
            collectable && CollectAggregates(stmt.having.get(), &a.agg_nodes);
      }
      for (const OrderItem& item : stmt.order_by) {
        collectable =
            collectable && CollectAggregates(item.expr.get(), &a.agg_nodes);
      }
      if (collectable) {
        a.strategy = SelectAnalysis::Strategy::kScatter;
        return a;
      }
      a.agg_nodes.clear();
    }
  }
  a.strategy = SelectAnalysis::Strategy::kGather;
  return a;
}

Result<QueryResult> ShardCoordinator::ExecSelect(const Statement& parsed,
                                                 const ExecContext& ctx) {
  const SelectStmt& stmt = *parsed.select;
  const bool explain = parsed.kind == Statement::Kind::kExplain;
  const bool analyze = parsed.explain_analyze;
  SelectAnalysis a = Analyze(stmt);
  const size_t n = shards_.size();
  if (!explain || analyze) {
    scanned_shards_.fetch_add(a.scanned_count, std::memory_order_relaxed);
    pruned_shards_.fetch_add(a.pruned_count, std::memory_order_relaxed);
  }

  if (!explain) {
    switch (a.strategy) {
      case SelectAnalysis::Strategy::kSingle: {
        queries_single_.fetch_add(1, std::memory_order_relaxed);
        repl::ReadTicket ticket = ShardRead(a.single_shard);
        Result<QueryResult> r = ticket.db->ExecuteStatement(parsed, {}, ctx);
        if (r.ok()) {
          uint64_t bytes = 0;
          for (const Row& row : r->rows) bytes += ApproxRowBytes(row);
          MeterToCoordinator(ticket.node, bytes);
        }
        return r;
      }
      case SelectAnalysis::Strategy::kScatter: {
        bool fell_back = false;
        Result<QueryResult> r = RunScatter(stmt, a, ctx, &fell_back, nullptr);
        if (fell_back) {
          queries_gather_.fetch_add(1, std::memory_order_relaxed);
        } else {
          queries_scatter_.fetch_add(1, std::memory_order_relaxed);
        }
        return r;
      }
      case SelectAnalysis::Strategy::kGather: {
        queries_gather_.fetch_add(1, std::memory_order_relaxed);
        return RunGather(stmt, a, ctx, nullptr);
      }
    }
  }

  // EXPLAIN [ANALYZE]: one PLAN column like the single-node database,
  // prefixed with the shard routing header.
  const char* strategy_name =
      a.strategy == SelectAnalysis::Strategy::kSingle    ? "single"
      : a.strategy == SelectAnalysis::Strategy::kScatter ? "scatter"
                                                         : "gather";
  std::vector<std::string> lines;
  lines.push_back(StrPrintf("shard: strategy=%s scanned %zu of %zu shards "
                            "(%zu pruned)",
                            strategy_name, a.scanned_count, n,
                            a.pruned_count));
  switch (a.strategy) {
    case SelectAnalysis::Strategy::kSingle: {
      lines.push_back(StrPrintf("  shard %zu host=%s: forwarded",
                                a.single_shard,
                                shards_[a.single_shard].host.c_str()));
      repl::ReadTicket ticket = ShardRead(a.single_shard);
      // `parsed` is the whole EXPLAIN [ANALYZE] statement; the shard
      // renders its own plan (and per-operator actuals under ANALYZE).
      Result<QueryResult> sub = ticket.db->ExecuteStatement(parsed, {}, ctx);
      if (!sub.ok()) return sub;
      for (const Row& row : sub->rows) {
        lines.push_back("  " + row[0].ToDisplayString());
      }
      break;
    }
    case SelectAnalysis::Strategy::kScatter: {
      std::vector<int64_t> actual;
      bool fell_back = false;
      Result<QueryResult> run = QueryResult{};
      if (analyze) {
        run = RunScatter(stmt, a, ctx, &fell_back, &actual);
        if (!run.ok()) return run;
      }
      const SelectAnalysis::Route& route = a.routes[0];
      for (size_t s = 0; s < n; ++s) {
        if (!route.scanned[s]) {
          lines.push_back(StrPrintf("  shard %zu host=%s: pruned", s,
                                    shards_[s].host.c_str()));
          continue;
        }
        double est = 0;
        Result<const Table*> table = ShardTable(s, route.def->name);
        if (table.ok()) est = static_cast<double>((*table)->RowCount());
        std::string line = StrPrintf(
            "  shard %zu host=%s: partial aggregate %s (est rows=%.2f", s,
            shards_[s].host.c_str(), route.def->name.c_str(), est);
        if (analyze && s < actual.size() && actual[s] >= 0) {
          line += StrPrintf(", actual rows=%lld",
                            static_cast<long long>(actual[s]));
        }
        line += ")";
        lines.push_back(std::move(line));
      }
      if (fell_back) {
        lines.push_back("  scatter fell back to gather (exactness)");
      }
      if (analyze) {
        lines.push_back(StrPrintf("total: %zu rows", run->rows.size()));
      }
      break;
    }
    case SelectAnalysis::Strategy::kGather: {
      std::vector<int64_t> fetched;
      Result<QueryResult> run = QueryResult{};
      if (analyze) {
        run = RunGather(stmt, a, ctx, &fetched);
        if (!run.ok()) return run;
      }
      for (const SelectAnalysis::Route& route : a.routes) {
        if (route.state == nullptr) {
          lines.push_back(StrPrintf("  table %s: broadcast (served locally)",
                                    route.def->name.c_str()));
          continue;
        }
        for (size_t s = 0; s < n; ++s) {
          if (!route.scanned[s]) {
            lines.push_back(StrPrintf("  table %s shard %zu host=%s: pruned",
                                      route.def->name.c_str(), s,
                                      shards_[s].host.c_str()));
            continue;
          }
          double est = 0;
          Result<const Table*> table = ShardTable(s, route.def->name);
          if (table.ok()) est = static_cast<double>((*table)->RowCount());
          lines.push_back(StrPrintf(
              "  table %s shard %zu host=%s: gather scan (est rows=%.2f)",
              route.def->name.c_str(), s, shards_[s].host.c_str(), est));
        }
      }
      if (analyze) {
        for (size_t s = 0; s < fetched.size(); ++s) {
          if (fetched[s] >= 0) {
            lines.push_back(
                StrPrintf("  shard %zu host=%s: fetched %lld rows", s,
                          shards_[s].host.c_str(),
                          static_cast<long long>(fetched[s])));
          }
        }
        lines.push_back(StrPrintf("total: %zu rows", run->rows.size()));
      }
      break;
    }
  }
  QueryResult result;
  result.is_query = true;
  result.column_names = {"PLAN"};
  result.column_types = {DataType::kVarchar};
  for (std::string& line : lines) {
    result.rows.push_back({Value::Varchar(std::move(line))});
  }
  return result;
}

// ---------------------------------------------------------------------------
// Scatter: per-shard partial aggregation, merged at the coordinator
// ---------------------------------------------------------------------------

Result<QueryResult> ShardCoordinator::RunScatter(
    const SelectStmt& stmt, const SelectAnalysis& a, const ExecContext& ctx,
    bool* fell_back, std::vector<int64_t>* actual_rows) {
  *fell_back = false;
  const size_t n = shards_.size();
  const SelectAnalysis::Route& route = a.routes[0];
  const PartState& state = *route.state;
  const TableDef& def = *route.def;
  const std::string& alias = stmt.from[0].alias;
  if (actual_rows != nullptr) actual_rows->assign(n, -1);

  std::unordered_map<const Expr*, size_t> slot_of;
  for (size_t i = 0; i < a.agg_nodes.size(); ++i) slot_of[a.agg_nodes[i]] = i;

  struct ShardScan {
    Status status = Status::OK();
    std::map<std::string, PartialGroup> groups;
    int64_t matched = 0;
    uint64_t bytes = 0;
    std::string node;
    bool ran = false;
  };
  std::vector<ShardScan> scans(n);

  auto scan_shard = [&](size_t s) {
    ShardScan& out = scans[s];
    out.ran = true;
    repl::ReadTicket ticket = ShardRead(s);
    out.node = ticket.node;
    Result<const Table*> src = ticket.db->GetTable(def.name);
    if (!src.ok()) {
      out.status = src.status();
      return;
    }
    const Table* table = *src;
    std::vector<ColumnBinding> schema = TableSchema(table->def(), alias);
    const size_t pk_index = state.pk_index;
    const bool per_row_seq = state.order_dirty;
    table->ForEachRow([&](RowId, const Row& row) {
      if (!out.status.ok()) return;
      EvalEnv env{&schema, &row};
      if (stmt.where != nullptr) {
        Result<Value> cond = EvalExpr(*stmt.where, env);
        if (!cond.ok()) {
          out.status = cond.status();
          return;
        }
        if (!IsTruthy(*cond)) return;
      }
      ++out.matched;
      std::string key;
      for (const auto& group_expr : stmt.group_by) {
        Result<Value> v = EvalExpr(*group_expr, env);
        if (!v.ok()) {
          out.status = v.status();
          return;
        }
        PutLengthPrefixed(&key, v->ToKeyString());
      }
      auto [it, inserted] = out.groups.emplace(key, PartialGroup{});
      PartialGroup& group = it->second;
      if (inserted) {
        group.slots.resize(a.agg_nodes.size());
        out.bytes += key.size() + 48 * a.agg_nodes.size();
      }
      ++group.rows;
      // Shard-local RowId order refines global insertion order unless a
      // migration dirtied it; then every row's sequence is looked up.
      if (inserted || per_row_seq) {
        uint64_t seq = SeqOf(state, row[pk_index]);
        if (!group.has_first || seq < group.first_seq) {
          group.first_seq = seq;
          group.first_row = row;
          group.has_first = true;
          if (inserted) out.bytes += ApproxRowBytes(row);
        }
      }
      for (size_t i = 0; i < a.agg_nodes.size(); ++i) {
        const Expr* agg = a.agg_nodes[i];
        if (agg->star) continue;  // COUNT(*): group.rows covers it
        Result<Value> arg = EvalExpr(*agg->args[0], env);
        if (!arg.ok()) {
          out.status = arg.status();
          return;
        }
        const Value& v = *arg;
        if (v.is_null()) continue;
        SlotAcc& acc = group.slots[i];
        ++acc.count;
        if (v.IsNumericKind()) {
          acc.dsum += v.AsDouble();
          if (v.type() == DataType::kDouble) {
            acc.all_int = false;
          } else {
            acc.isum += static_cast<__int128>(v.AsInt());
          }
        } else if (agg->func == "SUM" || agg->func == "AVG") {
          out.status =
              Status::InvalidArgument(agg->func + " over non-numeric column");
          return;
        }
        if (acc.min_v.is_null() || v.Compare(acc.min_v) < 0) acc.min_v = v;
        if (acc.max_v.is_null() || v.Compare(acc.max_v) > 0) acc.max_v = v;
      }
    });
  };

  std::vector<size_t> to_scan;
  for (size_t s = 0; s < n; ++s) {
    if (route.scanned[s]) to_scan.push_back(s);
  }
  const bool serial = !options_.parallel_scatter || scatter_hook_ != nullptr;
  if (serial) {
    for (size_t s : to_scan) {
      // The hook may fail over this shard's primary; the read ticket is
      // acquired after, so the scan observes the post-failover topology.
      if (scatter_hook_) scatter_hook_(s);
      scan_shard(s);
    }
  } else {
    std::vector<std::thread> workers;
    workers.reserve(to_scan.size());
    for (size_t s : to_scan) {
      workers.emplace_back([&scan_shard, s] { scan_shard(s); });
    }
    for (std::thread& w : workers) w.join();
  }
  // sim::Network is not thread-safe: meter after the join.
  for (size_t s : to_scan) {
    if (scans[s].ran && scans[s].status.ok()) {
      MeterToCoordinator(scans[s].node, scans[s].bytes);
    }
  }
  if (actual_rows != nullptr) {
    for (size_t s : to_scan) (*actual_rows)[s] = scans[s].matched;
  }

  // Exactness gates: any shard-side evaluation error, and any SUM/AVG that
  // saw a double (floating-point addition is order-dependent), re-run via
  // gather — which reproduces single-node behaviour, errors included.
  bool fallback = false;
  for (size_t s : to_scan) {
    if (!scans[s].status.ok()) fallback = true;
  }
  std::map<std::string, PartialGroup> merged;
  if (!fallback) {
    for (size_t s : to_scan) {
      for (auto& [key, partial] : scans[s].groups) {
        auto [it, inserted] = merged.emplace(key, PartialGroup{});
        PartialGroup& m = it->second;
        if (inserted) m.slots.resize(a.agg_nodes.size());
        m.rows += partial.rows;
        if (partial.has_first &&
            (!m.has_first || partial.first_seq < m.first_seq)) {
          m.first_seq = partial.first_seq;
          m.first_row = std::move(partial.first_row);
          m.has_first = true;
        }
        for (size_t i = 0; i < m.slots.size(); ++i) {
          SlotAcc& dst = m.slots[i];
          const SlotAcc& src = partial.slots[i];
          dst.count += src.count;
          dst.isum += src.isum;
          dst.dsum += src.dsum;
          dst.all_int = dst.all_int && src.all_int;
          if (!src.min_v.is_null() &&
              (dst.min_v.is_null() || src.min_v.Compare(dst.min_v) < 0)) {
            dst.min_v = src.min_v;
          }
          if (!src.max_v.is_null() &&
              (dst.max_v.is_null() || src.max_v.Compare(dst.max_v) > 0)) {
            dst.max_v = src.max_v;
          }
        }
      }
    }
    for (const auto& [key, group] : merged) {
      for (size_t i = 0; i < a.agg_nodes.size(); ++i) {
        const std::string& func = a.agg_nodes[i]->func;
        if ((func == "SUM" || func == "AVG") && group.slots[i].count > 0 &&
            !group.slots[i].all_int) {
          fallback = true;
        }
      }
    }
  }
  if (fallback) {
    *fell_back = true;
    return RunGather(stmt, a, ctx, nullptr);
  }

  // An aggregate without GROUP BY over no rows still yields one group.
  if (merged.empty() && stmt.group_by.empty()) {
    PartialGroup empty;
    empty.slots.resize(a.agg_nodes.size());
    merged.emplace(std::string(), std::move(empty));
  }
  // Single-node group output order is first-encounter order; the merged
  // equivalent is ascending global first-row sequence.
  std::vector<const PartialGroup*> ordered;
  ordered.reserve(merged.size());
  for (const auto& [key, group] : merged) ordered.push_back(&group);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const PartialGroup* x, const PartialGroup* y) {
                     return x->first_seq < y->first_seq;
                   });

  // Output columns: the executor's naming/typing rules over the shard
  // schema (identical on every shard).
  std::vector<ColumnBinding> schema = TableSchema(def, alias);
  struct OutputItem {
    std::string name;
    DataType type = DataType::kVarchar;
    const Expr* expr = nullptr;  // null: plain column from the first row
    size_t direct_index = 0;
  };
  std::vector<OutputItem> outputs;
  for (size_t i = 0; i < stmt.items.size(); ++i) {
    const SelectItem& item = stmt.items[i];
    if (item.star) {
      for (size_t c = 0; c < schema.size(); ++c) {
        if (!item.star_table.empty() &&
            !EqualsIgnoreCase(schema[c].table_alias, item.star_table)) {
          continue;
        }
        outputs.push_back({schema[c].column, schema[c].type, nullptr, c});
      }
      if (!item.star_table.empty() && outputs.empty()) {
        return Status::NotFound("unknown table in select list: " +
                                item.star_table);
      }
      continue;
    }
    outputs.push_back({DefaultItemName(item, i),
                       GuessItemType(*item.expr, schema), item.expr.get(), 0});
  }
  if (outputs.empty()) return Status::InvalidArgument("empty select list");

  // Merge-time expression evaluation: aggregate calls read their merged
  // slot; binary nodes recurse (matching EvalAggregate's walk); everything
  // else evaluates against the group's global first row.
  std::function<Result<Value>(const Expr&, const PartialGroup&)> merge_eval =
      [&](const Expr& e, const PartialGroup& g) -> Result<Value> {
    if (e.kind == Expr::Kind::kCall && IsAggregateFunction(e.func)) {
      if (e.star) return Value::Integer(g.rows);
      auto it = slot_of.find(&e);
      if (it == slot_of.end()) {
        return Status::Internal("unmapped aggregate in scatter merge");
      }
      const SlotAcc& acc = g.slots[it->second];
      if (e.func == "COUNT") return Value::Integer(acc.count);
      if (acc.count == 0) return Value::Null();
      if (e.func == "SUM") return FinishSum(acc.all_int, acc.isum, acc.dsum);
      if (e.func == "AVG") {
        return FinishAvg(acc.all_int, acc.isum, acc.dsum, acc.count);
      }
      if (e.func == "MIN") return acc.min_v;
      return acc.max_v;
    }
    if (e.kind == Expr::Kind::kBinary) {
      EASIA_ASSIGN_OR_RETURN(Value lhs, merge_eval(*e.left, g));
      EASIA_ASSIGN_OR_RETURN(Value rhs, merge_eval(*e.right, g));
      Expr bin;
      bin.kind = Expr::Kind::kBinary;
      bin.op = e.op;
      bin.left = Expr::MakeLiteral(std::move(lhs));
      bin.right = Expr::MakeLiteral(std::move(rhs));
      EvalEnv env;
      return EvalExpr(bin, env);
    }
    if (!g.has_first) return Value::Null();
    EvalEnv env{&schema, &g.first_row};
    return EvalExpr(e, env);
  };

  struct ProjectedRow {
    Row values;
    Row sort_keys;
  };
  std::vector<ProjectedRow> projected;
  for (const PartialGroup* group : ordered) {
    if (stmt.having != nullptr) {
      EASIA_ASSIGN_OR_RETURN(Value keep, merge_eval(*stmt.having, *group));
      if (!IsTruthy(keep)) continue;
    }
    ProjectedRow out;
    for (const OutputItem& item : outputs) {
      if (item.expr == nullptr) {
        out.values.push_back(group->has_first
                                 ? group->first_row[item.direct_index]
                                 : Value::Null());
        continue;
      }
      EASIA_ASSIGN_OR_RETURN(Value v, merge_eval(*item.expr, *group));
      out.values.push_back(std::move(v));
    }
    for (const OrderItem& item : stmt.order_by) {
      bool matched = false;
      if (item.expr->kind == Expr::Kind::kColumn && item.expr->table.empty()) {
        for (size_t i = 0; i < outputs.size(); ++i) {
          if (EqualsIgnoreCase(outputs[i].name, item.expr->column)) {
            out.sort_keys.push_back(out.values[i]);
            matched = true;
            break;
          }
        }
      }
      if (!matched) {
        EASIA_ASSIGN_OR_RETURN(Value v, merge_eval(*item.expr, *group));
        out.sort_keys.push_back(std::move(v));
      }
    }
    projected.push_back(std::move(out));
  }
  if (!stmt.order_by.empty()) {
    std::stable_sort(projected.begin(), projected.end(),
                     [&](const ProjectedRow& x, const ProjectedRow& y) {
                       for (size_t i = 0; i < stmt.order_by.size(); ++i) {
                         int cmp = x.sort_keys[i].Compare(y.sort_keys[i]);
                         if (cmp != 0) {
                           return stmt.order_by[i].descending ? cmp > 0
                                                              : cmp < 0;
                         }
                       }
                       return false;
                     });
  }
  size_t begin = std::min(static_cast<size_t>(std::max<int64_t>(
                              stmt.offset, 0)),
                          projected.size());
  size_t end = projected.size();
  if (stmt.limit >= 0) {
    end = std::min(end, begin + static_cast<size_t>(stmt.limit));
  }
  QueryResult result;
  result.is_query = true;
  for (const OutputItem& item : outputs) {
    result.column_names.push_back(item.name);
    result.column_types.push_back(item.type);
  }
  for (size_t i = begin; i < end; ++i) {
    result.rows.push_back(std::move(projected[i].values));
  }
  return result;
}

// ---------------------------------------------------------------------------
// Gather: fetch rows in global order, execute at the coordinator
// ---------------------------------------------------------------------------

Result<QueryResult> ShardCoordinator::RunGather(
    const SelectStmt& stmt, const SelectAnalysis& a, const ExecContext& ctx,
    std::vector<int64_t>* fetched_rows) {
  (void)ctx;
  const size_t n = shards_.size();
  if (fetched_rows != nullptr) fetched_rows->assign(n, -1);
  std::map<std::string, uint64_t> host_bytes;
  // One coordinator-local table per distinct FROM table, filled
  // in global insertion order so the planner sees single-node row order.
  std::map<std::string, std::unique_ptr<Table>> temp;
  for (size_t i = 0; i < stmt.from.size(); ++i) {
    const SelectAnalysis::Route& route = a.routes[i];
    std::string key = ToUpper(route.def->name);
    if (temp.count(key) > 0) continue;
    auto local = std::make_unique<Table>(*route.def);
    if (route.state == nullptr) {
      // Broadcast table: shard 0's copy is in single-node insertion order.
      repl::ReadTicket ticket = ShardRead(0);
      EASIA_ASSIGN_OR_RETURN(const Table* src,
                             ticket.db->GetTable(route.def->name));
      Status insert_status = Status::OK();
      uint64_t bytes = 0;
      src->ForEachRow([&](RowId, const Row& row) {
        if (!insert_status.ok()) return;
        bytes += ApproxRowBytes(row);
        Result<RowId> inserted = local->Insert(row);
        if (!inserted.ok()) insert_status = inserted.status();
      });
      EASIA_RETURN_IF_ERROR(insert_status);
      host_bytes[ticket.node] += bytes;
    } else {
      std::vector<std::pair<uint64_t, Row>> rows;
      const size_t pk_index = route.state->pk_index;
      for (size_t s = 0; s < n; ++s) {
        if (!route.scanned[s]) continue;
        if (scatter_hook_) scatter_hook_(s);
        repl::ReadTicket ticket = ShardRead(s);
        EASIA_ASSIGN_OR_RETURN(const Table* src,
                               ticket.db->GetTable(route.def->name));
        uint64_t bytes = 0;
        int64_t count = 0;
        src->ForEachRow([&](RowId, const Row& row) {
          rows.emplace_back(SeqOf(*route.state, row[pk_index]), row);
          bytes += ApproxRowBytes(row);
          ++count;
        });
        host_bytes[ticket.node] += bytes;
        if (fetched_rows != nullptr) {
          int64_t& slot = (*fetched_rows)[s];
          slot = (slot < 0 ? 0 : slot) + count;
        }
      }
      std::stable_sort(rows.begin(), rows.end(),
                       [](const std::pair<uint64_t, Row>& x,
                          const std::pair<uint64_t, Row>& y) {
                         return x.first < y.first;
                       });
      for (auto& [seq, row] : rows) {
        Result<RowId> inserted = local->Insert(std::move(row));
        if (!inserted.ok()) return inserted.status();
      }
    }
    temp.emplace(std::move(key), std::move(local));
  }
  for (const auto& [host, bytes] : host_bytes) {
    MeterToCoordinator(host, bytes);
  }
  TableLookup lookup = [&temp](const std::string& name) -> Result<const Table*> {
    auto it = temp.find(ToUpper(name));
    if (it == temp.end()) return Status::NotFound("no table named " + name);
    return it->second.get();
  };
  ExecuteOptions exec_options;
  exec_options.cost_based = options_.shard_db_options.cost_based_planner;
  return ExecuteSelect(stmt, lookup, nullptr, exec_options);
}

// ---------------------------------------------------------------------------
// Cross-shard constraint probes. The rules themselves (row validation, FK
// parent, RESTRICT child) are the ones Database runs; the shard databases
// run with enforce_foreign_keys off, so these probes answer them globally.
// ---------------------------------------------------------------------------

RowProbe ShardCoordinator::ParentProbe(const TableDef& def,
                                       const std::vector<Row>* pending) const {
  return [this, &def, pending](const std::string& table,
                               const std::vector<std::string>& columns,
                               const std::vector<Value>& key) -> Result<bool> {
    auto found_on = [&](size_t s) {
      Result<const Table*> parent = ShardTable(s, table);
      return parent.ok() && (*parent)->FindUnique(columns, key).ok();
    };
    bool found = false;
    auto pit = part_.find(ToUpper(table));
    if (pit == part_.end()) {
      found = found_on(0);  // broadcast parent: every shard holds it
    } else {
      // Partitioned parent referenced by its partition key: the parent row
      // can only live on its hash shard, and within a kind class equal
      // values share the key-string encoding the hash uses (numeric keys
      // are the AsDouble bits, string keys the raw bytes), so the targeted
      // probe is authoritative — absent there means absent everywhere. Any
      // other reference shape — a non-partition-key reference, or a
      // mixed-kind comparison, where display-form equality can cross the
      // key-encoding boundary — probes every shard.
      const PartState& pstate = pit->second;
      Result<const TableDef*> parent_def =
          primary_db(0)->catalog().GetTable(table);
      std::optional<size_t> home;
      if (columns.size() == 1 && parent_def.ok() &&
          EqualsIgnoreCase(columns[0],
                           (*parent_def)->columns[pstate.pk_index].name) &&
          key[0].IsNumericKind() == IsNumericType(pstate.pk_type)) {
        Result<Value> coerced = key[0].CoerceTo(pstate.pk_type);
        if (coerced.ok()) home = ShardOfValue(pstate, *coerced);
      }
      if (home.has_value()) {
        found = found_on(*home);
      } else {
        for (size_t s = 0; s < shards_.size() && !found; ++s) {
          found = found_on(s);
        }
      }
    }
    if (found || pending == nullptr || !EqualsIgnoreCase(table, def.name)) {
      return found;
    }
    // Self-referencing FK: rows inserted earlier in this statement are
    // already visible on a single-node database.
    for (const Row& row : *pending) {
      bool matches = true;
      for (size_t k = 0; k < columns.size() && matches; ++k) {
        Result<size_t> idx = def.ColumnIndex(columns[k]);
        matches = idx.ok() && !row[*idx].is_null() && row[*idx].Equals(key[k]);
      }
      if (matches) return true;
    }
    return false;
  };
}

RowProbe ShardCoordinator::ChildProbe(
    const TableDef& def, const std::set<std::string>* deleted) const {
  return [this, &def, deleted](const std::string& table,
                               const std::vector<std::string>& columns,
                               const std::vector<Value>& values)
             -> Result<bool> {
    Result<const TableDef*> child_def =
        primary_db(0)->catalog().GetTable(table);
    if (!child_def.ok()) return false;
    EASIA_ASSIGN_OR_RETURN(size_t idx, (*child_def)->ColumnIndex(columns[0]));
    // DELETE processes targets in global order; same-statement rows
    // already deleted must not count as children (a single-node database
    // has physically removed them by this point).
    std::function<bool(const Row&)> live;
    if (deleted != nullptr && !deleted->empty() &&
        EqualsIgnoreCase(table, def.name)) {
      live = [&](const Row& child_row) {
        return deleted->count(PkKey(def, child_row)) == 0;
      };
    }
    // Broadcast children are identical everywhere; shard 0 answers.
    size_t probe_shards = part_.count(ToUpper(table)) > 0 ? shards_.size() : 1;
    for (size_t s = 0; s < probe_shards; ++s) {
      Result<const Table*> child = ShardTable(s, table);
      if (child.ok() && (*child)->AnyRowWithValue(idx, values[0], live)) {
        return true;
      }
    }
    return false;
  };
}

// ---------------------------------------------------------------------------
// Write routing
// ---------------------------------------------------------------------------

Result<QueryResult> ShardCoordinator::ExecCopy(const Statement& stmt,
                                               const ExecContext& ctx) {
  if (part_.count(ToUpper(stmt.copy->table)) > 0) {
    return Status::FailedPrecondition(
        "COPY into a hash-partitioned table is not supported; "
        "use INSERT so rows route to their partitions");
  }
  // Broadcast COPY fans the statement out to every shard. COPY commits
  // chunk by chunk, so even the failing shard can keep earlier chunks: the
  // rows a shard added are found afterwards as the pk keys missing from a
  // snapshot taken before the copy (broadcast tables are identical
  // everywhere, so shard 0's set serves).
  Result<const Table*> table = ShardTable(0, stmt.copy->table);
  const TableDef* def = table.ok() && !(*table)->def().primary_key.empty()
                            ? &(*table)->def()
                            : nullptr;
  std::set<std::string> before;
  if (def != nullptr) {
    (*table)->ForEachRow([&](RowId, const Row& row) {
      before.insert(PkKey(*def, row));
    });
  }
  std::vector<Step> steps;
  for (size_t s = 0; s < shards_.size(); ++s) {
    Step step{s, &stmt, nullptr, /*piecewise=*/true};
    if (def != nullptr) {
      step.undo = [this, s, def, &before, &ctx] {
        Result<const Table*> table = ShardTable(s, def->name);
        if (!table.ok()) return;
        std::vector<Row> added;
        (*table)->ForEachRow([&](RowId, const Row& row) {
          if (before.count(PkKey(*def, row)) == 0) added.push_back(row);
        });
        for (const Row& row : added) {
          (void)ShardWrite(s, DeleteRow(*def, row), ctx);
        }
      };
    }
    steps.push_back(std::move(step));
  }
  return ApplySteps(steps, ctx);
}

Result<QueryResult> ShardCoordinator::ExecInsert(const Statement& stmt,
                                                 const ExecContext& ctx) {
  const InsertStmt& insert = *stmt.insert;
  Result<const TableDef*> def_result =
      primary_db(0)->catalog().GetTable(insert.table);
  if (!def_result.ok()) {
    // Shard 0 reproduces the single-node "no table named X" error.
    return ShardWrite(0, stmt, ctx);
  }
  const TableDef& def = **def_result;
  auto pit = part_.find(ToUpper(def.name));
  PartState* state = pit == part_.end() ? nullptr : &pit->second;

  std::vector<size_t> positions;
  if (insert.columns.empty()) {
    for (size_t i = 0; i < def.columns.size(); ++i) positions.push_back(i);
  } else {
    for (const std::string& col : insert.columns) {
      EASIA_ASSIGN_OR_RETURN(size_t idx, def.ColumnIndex(col));
      positions.push_back(idx);
    }
  }

  // Evaluate and validate every row up front, in statement order: a
  // single-node INSERT is atomic (implicit-transaction rollback), so the
  // fan-out must not start until the whole statement is known good. Each
  // shard then gets one INSERT of its rows in statement order, so
  // shard-local RowId order keeps refining the global sequence; a
  // broadcast table sends every row to every shard.
  std::vector<Row> rows;
  rows.reserve(insert.rows.size());  // `groups` points into it
  std::vector<std::vector<const Row*>> groups(shards_.size());
  std::set<std::string> statement_keys;
  RowProbe parent_exists = ParentProbe(def, &rows);
  for (const auto& value_exprs : insert.rows) {
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
    EASIA_RETURN_IF_ERROR(CheckForeignKeyParents(def, row, parent_exists));
    size_t target = state != nullptr
                        ? ShardOfValue(*state, row[state->pk_index])
                        : 0;
    if (!def.primary_key.empty() &&
        (!statement_keys.insert(PkKey(def, row)).second ||
         PkTaken(def, target, row))) {
      return Status::ConstraintViolation("duplicate primary key in table " +
                                         def.name);
    }
    rows.push_back(std::move(row));
    groups[target].push_back(&rows.back());
  }
  if (rows.empty()) return DmlResult(0);
  std::vector<Statement> inserts;
  inserts.reserve(shards_.size());  // `steps` point into it
  std::vector<Step> steps;
  for (size_t s = 0; s < shards_.size(); ++s) {
    // A broadcast table's one group (shard 0's) goes to every shard.
    const std::vector<const Row*>& group = groups[state != nullptr ? s : 0];
    if (group.empty()) continue;
    if (state != nullptr || s == 0) inserts.push_back(InsertRows(def, group));
    Step step{s, &inserts.back(), nullptr};
    if (!def.primary_key.empty()) {
      step.undo = [this, s, &def, &group, &ctx] {
        for (const Row* row : group) {
          (void)ShardWrite(s, DeleteRow(def, *row), ctx);
        }
      };
    }
    steps.push_back(std::move(step));
  }
  EASIA_RETURN_IF_ERROR(ApplySteps(steps, ctx).status());
  if (state != nullptr) {
    for (const Row& row : rows) {
      state->seq[row[state->pk_index].ToKeyString()] = state->next_seq++;
    }
  }
  return DmlResult(rows.size());
}

Result<QueryResult> ShardCoordinator::ExecUpdate(const Statement& stmt,
                                                 const ExecContext& ctx) {
  const UpdateStmt& update = *stmt.update;
  const Catalog& cat = primary_db(0)->catalog();
  Result<const TableDef*> def_result = cat.GetTable(update.table);
  if (!def_result.ok()) return ShardWrite(0, stmt, ctx);
  const TableDef& def = **def_result;
  auto pit = part_.find(ToUpper(def.name));
  PartState* state = pit == part_.end() ? nullptr : &pit->second;

  std::vector<ColumnBinding> schema = TableSchema(def, def.name);
  std::vector<std::pair<size_t, const Expr*>> sets;
  for (const auto& [col, expr] : update.assignments) {
    EASIA_ASSIGN_OR_RETURN(size_t idx, def.ColumnIndex(col));
    sets.emplace_back(idx, expr.get());
  }
  bool pk_assigned = false;
  if (state != nullptr) {
    for (const auto& [idx, expr] : sets) {
      if (idx == state->pk_index) pk_assigned = true;
    }
  }

  EASIA_ASSIGN_OR_RETURN(std::vector<DmlTarget> targets,
                         CollectDmlTargets(def, state, update.where.get()));

  // Validate sequentially in that order, tracking pk keys vacated and
  // taken by earlier targets — mirrors single-node row-at-a-time apply.
  RowProbe parent_exists = ParentProbe(def, nullptr);
  RowProbe child_exists = ChildProbe(def, nullptr);
  std::set<std::string> vacated;
  std::set<std::string> taken;
  std::vector<Row> new_rows;
  new_rows.reserve(targets.size());
  for (const DmlTarget& target : targets) {
    Row new_row = target.row;
    EvalEnv env{&schema, &target.row};
    for (const auto& [idx, expr] : sets) {
      EASIA_ASSIGN_OR_RETURN(Value v, EvalExpr(*expr, env));
      new_row[idx] = std::move(v);
    }
    EASIA_ASSIGN_OR_RETURN(new_row, ValidateRow(def, std::move(new_row)));
    EASIA_RETURN_IF_ERROR(CheckForeignKeyParents(def, new_row, parent_exists));
    EASIA_RETURN_IF_ERROR(
        CheckRestrictChildren(cat, def, target.row, &new_row, child_exists));
    if (!def.primary_key.empty()) {
      std::string old_key = PkKey(def, target.row);
      std::string new_key = PkKey(def, new_row);
      if (new_key != old_key) {
        size_t home = state != nullptr
                          ? ShardOfValue(*state, new_row[state->pk_index])
                          : 0;
        if (taken.count(new_key) > 0 ||
            (vacated.count(new_key) == 0 && PkTaken(def, home, new_row))) {
          return Status::ConstraintViolation(
              "duplicate primary key in table " + def.name);
        }
        vacated.insert(old_key);
        taken.insert(new_key);
      }
    }
    new_rows.push_back(std::move(new_row));
  }

  if (targets.empty()) {
    // Still fan out: a shard-side scan error cannot exist (the coordinator
    // scanned the same rows), and zero-target UPDATEs are no-ops anyway.
    return DmlResult(0);
  }

  // Row placement is stable: every shard applies the statement to its
  // local rows.
  if (state == nullptr || !pk_assigned) return WriteAll(stmt, state, ctx);

  // Partition-key reassignment: rows may change shards. Apply per target
  // in global order with the values already computed; a cross-shard move
  // is DELETE@old + INSERT@new with the global sequence carried over (the
  // row keeps its logical position, like a single-node UPDATE keeps its
  // RowId).
  for (size_t t = 0; t < targets.size(); ++t) {
    const DmlTarget& target = targets[t];
    const Row& new_row = new_rows[t];
    const Value& old_pk = target.row[state->pk_index];
    const Value& new_pk = new_row[state->pk_index];
    size_t destination = ShardOfValue(*state, new_pk);
    if (destination == target.shard) {
      Statement row_update;
      row_update.kind = Statement::Kind::kUpdate;
      row_update.update = std::make_unique<UpdateStmt>();
      row_update.update->table = def.name;
      for (const auto& [idx, expr] : sets) {
        row_update.update->assignments.emplace_back(
            def.columns[idx].name, Expr::MakeLiteral(new_row[idx]));
      }
      row_update.update->where = PkMatch(def, target.row);
      EASIA_RETURN_IF_ERROR(ShardWrite(target.shard, row_update, ctx).status());
    } else {
      Statement remove = DeleteRow(def, target.row);
      Statement add = InsertRows(def, {&new_row});
      std::vector<Step> move;
      move.push_back({target.shard, &remove, [&] {
                        (void)ShardWrite(target.shard,
                                         InsertRows(def, {&target.row}), ctx);
                      }});
      move.push_back({destination, &add, [&] {
                        (void)ShardWrite(destination, DeleteRow(def, new_row),
                                         ctx);
                      }});
      // Set first: a failed move re-inserts the old row, which reorders
      // its shard just the same.
      state->order_dirty = true;
      EASIA_RETURN_IF_ERROR(ApplySteps(move, ctx).status());
      migrations_.fetch_add(1, std::memory_order_relaxed);
    }
    uint64_t seq = target.seq == UINT64_MAX ? state->next_seq++ : target.seq;
    state->seq.erase(old_pk.ToKeyString());
    state->seq[new_pk.ToKeyString()] = seq;
  }
  return DmlResult(targets.size());
}

Result<QueryResult> ShardCoordinator::ExecDelete(const Statement& stmt,
                                                 const ExecContext& ctx) {
  const Catalog& cat = primary_db(0)->catalog();
  Result<const TableDef*> def_result = cat.GetTable(stmt.del->table);
  if (!def_result.ok()) return ShardWrite(0, stmt, ctx);
  const TableDef& def = **def_result;
  auto pit = part_.find(ToUpper(def.name));
  PartState* state = pit == part_.end() ? nullptr : &pit->second;

  EASIA_ASSIGN_OR_RETURN(std::vector<DmlTarget> targets,
                         CollectDmlTargets(def, state, stmt.del->where.get()));
  // RESTRICT checks in global order: a single-node DELETE removes rows
  // one at a time, so a child deleted earlier in the same statement no
  // longer blocks its parent.
  std::set<std::string> deleted_keys;
  RowProbe child_exists = ChildProbe(def, &deleted_keys);
  for (const DmlTarget& target : targets) {
    EASIA_RETURN_IF_ERROR(
        CheckRestrictChildren(cat, def, target.row, nullptr, child_exists));
    if (!def.primary_key.empty()) deleted_keys.insert(PkKey(def, target.row));
  }
  // Sequence entries for deleted keys go stale, which is harmless: they
  // are only consulted for live rows, and a re-insert overwrites.
  return WriteAll(stmt, state, ctx);
}

Result<QueryResult> ShardCoordinator::ExecDdl(const Statement& stmt,
                                              std::string_view sql,
                                              const ExecContext& ctx) {
  if (stmt.kind == Statement::Kind::kCreateTable) {
    // Validation errors fail on shard 0 before anything applies; a later
    // (replication) failure drops the table where it was created. `sql`
    // travels along for the shards' CREATE TABLE WAL records.
    const TableDef& def = stmt.create_table->def;
    std::vector<Step> steps;
    for (size_t s = 0; s < shards_.size(); ++s) {
      steps.push_back({s, &stmt, [this, s, &def, &ctx] {
                         Statement drop;
                         drop.kind = Statement::Kind::kDropTable;
                         drop.drop_table = std::make_unique<DropTableStmt>();
                         drop.drop_table->table = def.name;
                         (void)ShardWrite(s, drop, ctx);
                       }});
    }
    EASIA_ASSIGN_OR_RETURN(QueryResult created, ApplySteps(steps, ctx, sql));
    if (def.partitions > 0) {
      PartState state;
      Result<size_t> idx = def.ColumnIndex(def.partition_by);
      state.pk_index = idx.ok() ? *idx : 0;
      state.pk_type = def.columns[state.pk_index].type;
      state.partitions = def.partitions;
      part_[ToUpper(def.name)] = std::move(state);
    }
    return created;
  }
  EASIA_ASSIGN_OR_RETURN(QueryResult dropped, WriteAll(stmt, nullptr, ctx));
  part_.erase(ToUpper(stmt.drop_table->table));
  return dropped;
}

}  // namespace easia::db::shard
