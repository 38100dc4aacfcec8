#ifndef EASIA_DB_SHARD_COORDINATOR_H_
#define EASIA_DB_SHARD_COORDINATOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "db/database.h"
#include "db/repl/coordinator.h"
#include "sim/network.h"

namespace easia::obs {
class MetricsRegistry;
}  // namespace easia::obs

namespace easia::db::shard {

struct ShardOptions {
  /// sim::Network host the coordinator (scatter/gather merge point) runs
  /// on. Fetched partials and gathered rows are metered from each serving
  /// shard node to this host.
  std::string coordinator_host = "web";
  /// One primary host per shard, in shard-index order. Every host (and
  /// every derived replica host, see replicas_per_shard) must already
  /// exist in the network with links to/from coordinator_host.
  std::vector<std::string> shard_hosts;
  /// When > 0, each shard becomes a replication group: a primary plus this
  /// many replicas (hosts named "<shard_host>-r1".."-rK") under a
  /// repl::ReplicationCoordinator. Writes then carry the PR 8 acked-commit
  /// semantics through the scatter path: kUnavailable = primary down and
  /// nothing committed, kAborted = committed below the ack quorum.
  size_t replicas_per_shard = 0;
  /// Template for each shard's replication coordinator (primary_host is
  /// overwritten per shard). Ignored when replicas_per_shard == 0.
  repl::CoordinatorOptions repl_options;
  /// Template for every shard (and replica) database. enforce_foreign_keys
  /// is forced off: foreign keys are a cross-shard property, enforced
  /// globally by this coordinator instead of per shard.
  DatabaseOptions shard_db_options;
  /// Partition pruning from equality / IN / range predicates on the
  /// partition key. Off = every query scans all shards (ablation knob).
  bool enable_pruning = true;
  /// Per-shard partial aggregation for eligible aggregate SELECTs. Off =
  /// aggregates take the gather path (every matching row ships to the
  /// coordinator, which then aggregates locally) — the ablation
  /// bench_f16 measures scatter against.
  bool enable_scatter = true;
  /// Scan shards on worker threads during scatter aggregation. Forced
  /// serial while a scatter hook is installed (see SetScatterHook).
  bool parallel_scatter = true;
};

/// One row of the /stats shard table.
struct ShardInfo {
  std::string host;
  /// Rows of hash-partitioned tables resident on this shard.
  size_t partitioned_rows = 0;
  uint64_t commit_epoch = 0;
  /// Max replica lag (epochs) in this shard's replication group; 0
  /// without replication.
  uint64_t max_replica_lag = 0;
  size_t replicas = 0;
};

struct ShardCounters {
  uint64_t queries_single = 0;   // routed whole to one shard
  uint64_t queries_scatter = 0;  // per-shard partial aggregation, merged
  uint64_t queries_gather = 0;   // rows fetched, executed at coordinator
  uint64_t scanned_shards = 0;   // shard scans performed by SELECT/EXPLAIN
  uint64_t pruned_shards = 0;    // shard scans avoided by pruning
  uint64_t writes = 0;           // DML/DDL statements routed
  uint64_t migrations = 0;       // rows moved between shards by pk UPDATE
};

/// Hash-partitions tables across sim-linked shard databases and plans
/// SQL over them (DESIGN.md §4k).
///
/// `CREATE TABLE ... PARTITION BY HASH(<pk>) PARTITIONS N` declares a
/// partitioned table: DDL fans out to every shard (each shard's catalogue
/// is a full mirror), and each row routes to partition
/// FNV1a(key) % N, hosted on shard (partition % shards). Tables without a
/// partition clause are broadcast: identical on every shard, so any shard
/// can serve them locally in a join.
///
/// SELECT strategies, chosen per statement:
///   single  — no partitioned table in FROM, or every partitioned table
///             prunes to the same one shard: the parsed statement forwards
///             to that shard (its catalogue mirror plans it like a
///             single-node database).
///   scatter — single-table aggregate over a partitioned table: shards
///             accumulate partial groups (COUNT/SUM/MIN/MAX/AVG with the
///             order-independent __int128 SUM rule, executor.h) in
///             parallel; the coordinator merges and finishes the query.
///             Falls back to gather whenever exactness cannot be proven
///             (non-integer SUM/AVG, a shard-side evaluation error).
///   gather  — everything else: each FROM table's rows are fetched in
///             global insertion order and the unmodified statement runs on
///             the existing cost-based planner/executor at the
///             coordinator, so joins reuse the single-node cost model and
///             results match single-node execution exactly.
///
/// Writes: shards receive parsed Statements only — the original, or ones
/// built from typed Values. Row validation and the FK rules are the shared
/// ones from db/database.h, answered by cross-shard probes.
///
/// Threading: Execute takes a coordinator-wide reader/writer lock (reads
/// shared, writes exclusive). Every access to the shard databases must go
/// through this coordinator — that invariant is what makes lock-free
/// direct table scans inside scatter/gather safe.
class ShardCoordinator {
 public:
  ShardCoordinator(sim::Network* network, ShardOptions options);

  ShardCoordinator(const ShardCoordinator&) = delete;
  ShardCoordinator& operator=(const ShardCoordinator&) = delete;
  ~ShardCoordinator();

  /// Routes one SQL statement. Shard-side statuses (including
  /// kConstraintViolation messages and the replication layer's
  /// kAborted / kUnavailable) pass through verbatim. Explicit
  /// transactions and COPY into partitioned tables are rejected.
  Result<QueryResult> Execute(std::string_view sql,
                              const ExecContext& ctx = {});

  size_t num_shards() const { return shards_.size(); }
  /// Shard i's CURRENT primary database (for test assertions; production
  /// access goes through Execute). After a shard failover this is the
  /// promoted replica, not the initial primary.
  Database* shard_db(size_t i) { return primary_db(i); }
  /// Shard i's replication coordinator, or nullptr when
  /// replicas_per_shard == 0 (crash-harness seam: fail over one shard).
  repl::ReplicationCoordinator* repl(size_t i) {
    return shards_[i].repl.get();
  }
  const std::string& shard_host(size_t i) const { return shards_[i].host; }

  /// Sum of the shard primaries' commit epochs: a web-cache validator
  /// that changes whenever any shard's data changes. With the default
  /// max_read_lag_epochs = 0 replicas only serve fully caught up, so the
  /// sum is exact; with a lag bound it may over-stamp by that bound.
  uint64_t combined_epoch() const;

  std::vector<ShardInfo> shard_info() const;
  ShardCounters counters() const;

  /// Registers pull-style easia_shard_* families: per-shard row / lag
  /// gauges, per-strategy query counters, scanned/pruned shard counters.
  void RegisterMetrics(obs::MetricsRegistry* metrics);

  /// Test seam: invoked with the shard index right before that shard is
  /// scanned during scatter/gather. Installing a hook forces serial
  /// scanning, so the hook can fail over a shard's primary *between*
  /// per-shard scans of one running statement (repl_crash_test).
  void SetScatterHook(std::function<void(size_t)> hook);

  /// The catalogue mirror (shard 0's current primary) for metadata
  /// consumers.
  const Catalog& catalog() const { return primary_db(0)->catalog(); }

 private:
  struct Shard {
    std::string host;
    std::unique_ptr<Database> db;
    std::unique_ptr<repl::ReplicationCoordinator> repl;
  };

  /// Routing state for one hash-partitioned table.
  struct PartState {
    size_t pk_index = 0;
    DataType pk_type = DataType::kInteger;
    int partitions = 1;
    /// pk key-string -> global insertion sequence, assigned at INSERT in
    /// statement order. Lets scatter/gather reconstruct the row order a
    /// single-node table would have, so first-row-of-group and group
    /// output order match single-node execution exactly. Deletes leave
    /// stale entries (harmless: a re-insert overwrites).
    std::unordered_map<std::string, uint64_t> seq;
    uint64_t next_seq = 0;
    /// Set when a pk UPDATE migrated a row between shards: shard-local
    /// scan order no longer refines global order, so single-shard routing
    /// is disabled and scatter falls back to per-row sequence lookups.
    bool order_dirty = false;
  };

  struct SelectAnalysis;

  /// One shard write of a fan-out and its best-effort reversal.
  struct Step {
    size_t shard = 0;
    const Statement* stmt = nullptr;
    std::function<void()> undo;
    /// The write commits piecewise (COPY, chunk by chunk), so even a
    /// failing attempt can leave part of it behind.
    bool piecewise = false;
  };

  /// One UPDATE/DELETE target row and the shard holding it.
  struct DmlTarget {
    size_t shard = 0;
    /// Global insertion sequence (the shard-0 RowId for broadcast tables).
    uint64_t seq = 0;
    Row row;
  };

  Result<QueryResult> ExecSelect(const Statement& parsed,
                                 const ExecContext& ctx);
  SelectAnalysis Analyze(const SelectStmt& stmt) const;
  std::vector<bool> PruneForTable(const PartState& state,
                                  const TableDef& def, const std::string& alias,
                                  const SelectStmt& stmt) const;
  Result<QueryResult> RunScatter(const SelectStmt& stmt,
                                 const SelectAnalysis& analysis,
                                 const ExecContext& ctx, bool* fell_back,
                                 std::vector<int64_t>* actual_rows);
  Result<QueryResult> RunGather(const SelectStmt& stmt,
                                const SelectAnalysis& analysis,
                                const ExecContext& ctx,
                                std::vector<int64_t>* fetched_rows);

  Result<QueryResult> ExecInsert(const Statement& stmt,
                                 const ExecContext& ctx);
  Result<QueryResult> ExecUpdate(const Statement& stmt,
                                 const ExecContext& ctx);
  Result<QueryResult> ExecDelete(const Statement& stmt,
                                 const ExecContext& ctx);
  Result<QueryResult> ExecDdl(const Statement& stmt, std::string_view sql,
                              const ExecContext& ctx);
  Result<QueryResult> ExecCopy(const Statement& stmt, const ExecContext& ctx);

  /// Write-path execution on one shard (repl::ExecuteStatement when
  /// replicated). `sql` is read only by CREATE TABLE.
  Result<QueryResult> ShardWrite(size_t i, const Statement& stmt,
                                 const ExecContext& ctx,
                                 std::string_view sql = {});
  /// The undo rule of every fan-out: applies `steps` in order, returning
  /// the first one's result. On a failure, reverses every applied step —
  /// and the failing one when kAborted (it committed below quorum) or
  /// piecewise — and returns the failing status verbatim.
  Result<QueryResult> ApplySteps(const std::vector<Step>& steps,
                                 const ExecContext& ctx,
                                 std::string_view sql = {});
  /// Sends `stmt` to every shard. Rows affected sum over a partitioned
  /// table's shards; a broadcast table (`state` null) reports shard 0's.
  Result<QueryResult> WriteAll(const Statement& stmt, const PartState* state,
                               const ExecContext& ctx);
  /// True when `shard` already holds a row with `row`'s primary key.
  bool PkTaken(const TableDef& def, size_t shard, const Row& row) const;
  /// Read ticket for one shard (stale-bounded replica routing when
  /// replicated).
  repl::ReadTicket ShardRead(size_t i);

  size_t ShardOfValue(const PartState& state, const Value& pk) const;
  uint64_t SeqOf(const PartState& state, const Value& pk) const;
  /// The rows `where` selects in table `def` (partitioned when `state` is
  /// set), found on each shard through SelectDmlTargets and merged into
  /// global insertion order — the order a single-node scan visits them in.
  Result<std::vector<DmlTarget>> CollectDmlTargets(const TableDef& def,
                                                   const PartState* state,
                                                   const Expr* where) const;
  /// Parent probe for writes to `def`: the parent's hash shard when
  /// authoritative, else every shard; then `pending` rows (self-refs).
  RowProbe ParentProbe(const TableDef& def,
                       const std::vector<Row>* pending) const;
  /// Child probe for writes to `def`, skipping `def` rows whose pk key is
  /// in `deleted` (removed earlier by this DELETE).
  RowProbe ChildProbe(const TableDef& def,
                      const std::set<std::string>* deleted) const;
  /// Shard i's CURRENT primary: the replication group's promoted head
  /// after a failover, else the initial database. Every coordinator-side
  /// read of shard state (tables, catalogue, commit epochs) must go
  /// through this — shards_[i].db stops receiving writes once its group
  /// fails over.
  Database* primary_db(size_t i) const;
  /// All live rows of `table` on shard `i`'s current primary.
  Result<const Table*> ShardTable(size_t i, const std::string& table) const;
  void MeterToCoordinator(const std::string& from_host, uint64_t bytes);

  sim::Network* network_;
  ShardOptions options_;
  std::vector<Shard> shards_;
  std::map<std::string, PartState> part_;  // key: upper-cased table name

  mutable std::shared_mutex mu_;
  std::function<void(size_t)> scatter_hook_;

  std::atomic<uint64_t> queries_single_{0};
  std::atomic<uint64_t> queries_scatter_{0};
  std::atomic<uint64_t> queries_gather_{0};
  std::atomic<uint64_t> scanned_shards_{0};
  std::atomic<uint64_t> pruned_shards_{0};
  std::atomic<uint64_t> writes_{0};
  std::atomic<uint64_t> migrations_{0};
};

}  // namespace easia::db::shard

#endif  // EASIA_DB_SHARD_COORDINATOR_H_
