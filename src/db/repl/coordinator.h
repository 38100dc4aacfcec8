#ifndef EASIA_DB_REPL_COORDINATOR_H_
#define EASIA_DB_REPL_COORDINATOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "db/database.h"
#include "db/repl/replica.h"
#include "db/repl/shipper.h"
#include "sim/network.h"

namespace easia::obs {
class MetricsRegistry;
}  // namespace easia::obs

namespace easia::db::repl {

struct CoordinatorOptions {
  /// sim::Network host the primary database lives on.
  std::string primary_host = "db";
  /// A replica may serve reads while its applied epoch is within this
  /// many commits of the primary's epoch. 0 = replicas must be fully
  /// caught up.
  uint64_t max_read_lag_epochs = 0;
  /// Replicas that must have applied a commit before Execute acks it
  /// (semi-synchronous replication). Clamped to the replica count; 0
  /// turns quorum acking off (fire-and-forget shipping). The quorum is
  /// also the failover safety bound: acked commits survive promotion as
  /// long as fewer than ack_quorum replicas are down simultaneously.
  size_t ack_quorum = 1;
  /// Primary is presumed dead when no heartbeat arrived for this long
  /// (seconds on the shared sim clock).
  double heartbeat_timeout_seconds = 5.0;
  size_t max_entries_per_shipment = 64;
  /// When false (default), MaybeFailover REFUSES to promote while enough
  /// replicas are down that one of them may hold acked commits the best
  /// live candidate lacks (down count >= ack_quorum and a down replica
  /// ahead of the candidate). When true, promotion proceeds anyway and
  /// those acked commits are knowingly lost (counted in
  /// lossy_failovers).
  bool allow_lossy_failover = false;
};

/// One row of the /stats replication table.
struct ReplicaInfo {
  std::string host;
  uint64_t last_applied_lsn = 0;
  uint64_t term = 1;
  uint64_t applied_epoch = 0;
  uint64_t lag_epochs = 0;
  bool down = false;
};

/// The descriptor a read executes against: which node's database to
/// query, and that node's applied commit epoch — the validator a cache
/// entry rendered from this read must carry. Using the *serving node's*
/// epoch (not the primary's) is load-bearing: a page rendered from a
/// lagging replica and stamped with the primary's newer epoch would be
/// served as fresh after the replica catches up, leaking stale data into
/// a "current" cache slot.
struct ReadTicket {
  Database* db = nullptr;
  uint64_t epoch = 0;
  std::string node;
  bool replica = false;
};

/// Routes statements across a primary and N replicas: reads go to a
/// fresh-enough replica (round-robin) with primary fallback, writes go to
/// the primary and ship synchronously under a semi-synchronous quorum.
/// Detects primary failure by heartbeat timeout and promotes the most
/// caught-up live replica by (term, LSN), starting a new timeline term
/// whose first entry is an epoch-barrier no-op — replicas that were down
/// across the failover and hold truncated old-timeline commits are fenced
/// by the term history and re-seeded via Bootstrap instead of silently
/// diverging.
///
/// Threading: RouteRead/read-Execute and the metric callbacks may run
/// concurrently with each other and with ONE writer thread (which owns
/// write-Execute, ShipAll, Heartbeat, MaybeFailover and the Network).
/// AddReplica is setup-time only.
class ReplicationCoordinator {
 public:
  ReplicationCoordinator(Database* primary, sim::Network* network,
                         CoordinatorOptions options = {});

  ReplicationCoordinator(const ReplicationCoordinator&) = delete;
  ReplicationCoordinator& operator=(const ReplicationCoordinator&) = delete;
  ~ReplicationCoordinator();

  /// Creates a replica on `host` (a sim host linked from the primary) and
  /// registers it for routing. Returns the node; the coordinator owns it.
  ReplicaNode* AddReplica(const std::string& host,
                          DatabaseOptions db_options = {});

  /// Routes one statement. SELECT/EXPLAIN execute on the ticket from
  /// RouteRead(). Everything else executes on the primary, ships to all
  /// reachable replicas, and — when ack_quorum > 0 — must be applied by
  /// at least the quorum before it is acked. Distinct failure codes tell
  /// the caller what a retry would do:
  ///
  ///   kUnavailable — the primary is down; nothing committed, a retry
  ///     after failover is safe.
  ///   kAborted — the statement COMMITTED on the primary but missed the
  ///     ack quorum. It is durable there yet unacked: a failover may
  ///     legitimately discard it, and a blind retry would double-apply
  ///     the DML. The message carries the committed LSN so callers can
  ///     make retries idempotent.
  Result<QueryResult> Execute(std::string_view sql,
                              const ExecContext& ctx = {});
  /// Execute for an already-parsed statement; `sql` is read only by
  /// CREATE TABLE (see Database::ExecuteStatement).
  Result<QueryResult> ExecuteStatement(const Statement& stmt,
                                       std::string_view sql,
                                       const ExecContext& ctx = {});

  /// Picks the serving node for one read: round-robin over replicas whose
  /// applied epoch is within max_read_lag_epochs of the primary's, else
  /// the primary. Replicas on an older timeline term (not yet past the
  /// latest failover barrier, or diverged and awaiting bootstrap) never
  /// serve. After the primary is detected down (and until a failover
  /// promotes a new one), reads degrade to the most caught-up live
  /// replica.
  ReadTicket RouteRead();

  /// Ships pending log entries to every live replica; returns the first
  /// error (remaining replicas are still attempted). Replicas the log was
  /// trimmed past — and replicas whose timeline diverged across a
  /// failover — are re-seeded from a primary snapshot.
  Status ShipAll();

  /// Records a primary liveness signal at the network's current sim time.
  void Heartbeat();
  /// True when the last heartbeat is older than the timeout.
  bool PrimaryDown() const;
  /// Promotes the most caught-up live replica (max (term, LSN)) when the
  /// primary is down: truncates the log to its LSN, begins a new term
  /// with an epoch-barrier entry, re-targets writes and shipping, and
  /// removes it from the read-replica set. Returns the promoted host;
  /// kFailedPrecondition when the primary is still live or when the
  /// promotion would lose acked commits held only by down replicas (see
  /// CoordinatorOptions::allow_lossy_failover); kNotFound when no live
  /// replica exists.
  Result<std::string> MaybeFailover();

  Database* primary() const { return primary_; }
  const std::string& primary_host() const { return options_.primary_host; }
  ReplicationLog& log() { return log_; }
  WalShipper& shipper() { return *shipper_; }
  std::vector<ReplicaInfo> replica_info() const;

  /// Registers easia_repl_* pull-style families (lag/LSN gauges per
  /// replica, shipment/read/write/failover counters) on `metrics`.
  void RegisterMetrics(obs::MetricsRegistry* metrics);

  uint64_t reads_primary() const {
    return reads_primary_.load(std::memory_order_relaxed);
  }
  uint64_t reads_replica() const {
    return reads_replica_.load(std::memory_order_relaxed);
  }
  uint64_t writes() const {
    return writes_.load(std::memory_order_relaxed);
  }
  uint64_t quorum_failures() const {
    return quorum_failures_.load(std::memory_order_relaxed);
  }
  uint64_t failovers() const {
    return failovers_.load(std::memory_order_relaxed);
  }
  /// Promotions refused because a down replica may hold acked commits
  /// the candidate lacks.
  uint64_t failovers_refused() const {
    return failovers_refused_.load(std::memory_order_relaxed);
  }
  /// Promotions that proceeded despite that risk
  /// (allow_lossy_failover).
  uint64_t lossy_failovers() const {
    return lossy_failovers_.load(std::memory_order_relaxed);
  }

 private:
  void AttachListener(Database* db);

  sim::Network* network_;
  CoordinatorOptions options_;
  ReplicationLog log_;
  std::unique_ptr<WalShipper> shipper_;

  /// Guards primary_/replicas_ topology and the round-robin cursor
  /// against concurrent RouteRead callers (failover mutates topology from
  /// the writer thread under the same mutex).
  mutable std::mutex mu_;
  Database* primary_;
  std::vector<std::unique_ptr<ReplicaNode>> replicas_;
  /// Replicas promoted to primary stay owned here (primary_ aliases the
  /// promoted node's database).
  std::vector<std::unique_ptr<ReplicaNode>> promoted_;
  size_t round_robin_ = 0;

  std::atomic<double> last_heartbeat_;
  std::atomic<uint64_t> reads_primary_{0};
  std::atomic<uint64_t> reads_replica_{0};
  std::atomic<uint64_t> writes_{0};
  std::atomic<uint64_t> quorum_failures_{0};
  std::atomic<uint64_t> failovers_{0};
  std::atomic<uint64_t> failovers_refused_{0};
  std::atomic<uint64_t> lossy_failovers_{0};
};

}  // namespace easia::db::repl

#endif  // EASIA_DB_REPL_COORDINATOR_H_
