#include "db/repl/coordinator.h"

#include <algorithm>
#include <utility>

#include "db/parser.h"
#include "obs/metrics.h"

namespace easia::db::repl {

namespace {

/// Replica freshness ordered by timeline first: an entry from a higher
/// term supersedes any LSN amount of older-term history (the old-term
/// tail past the failover boundary is dead data).
bool PositionLess(uint64_t term_a, uint64_t lsn_a, uint64_t term_b,
                  uint64_t lsn_b) {
  if (term_a != term_b) return term_a < term_b;
  return lsn_a < lsn_b;
}

}  // namespace

ReplicationCoordinator::ReplicationCoordinator(Database* primary,
                                               sim::Network* network,
                                               CoordinatorOptions options)
    : network_(network),
      options_(std::move(options)),
      primary_(primary),
      last_heartbeat_(network->Now()) {
  shipper_ = std::make_unique<WalShipper>(
      &log_, network_,
      WalShipper::Options{options_.primary_host,
                          options_.max_entries_per_shipment});
  AttachListener(primary_);
}

ReplicationCoordinator::~ReplicationCoordinator() {
  // Detach so a primary that outlives the coordinator does not call into
  // a destroyed log.
  primary_->set_commit_listener({});
}

void ReplicationCoordinator::AttachListener(Database* db) {
  db->set_commit_listener(
      [this](uint64_t epoch, const std::vector<WalRecord>& records) {
        log_.Append(epoch, records);
      });
}

ReplicaNode* ReplicationCoordinator::AddReplica(const std::string& host,
                                                DatabaseOptions db_options) {
  std::lock_guard<std::mutex> lock(mu_);
  replicas_.push_back(
      std::make_unique<ReplicaNode>(host, std::move(db_options)));
  return replicas_.back().get();
}

Result<QueryResult> ReplicationCoordinator::Execute(std::string_view sql,
                                                    const ExecContext& ctx) {
  EASIA_ASSIGN_OR_RETURN(Statement stmt, ParseSql(sql));
  return ExecuteStatement(stmt, sql, ctx);
}

Result<QueryResult> ReplicationCoordinator::ExecuteStatement(
    const Statement& stmt, std::string_view sql, const ExecContext& ctx) {
  if (stmt.kind == Statement::Kind::kSelect ||
      stmt.kind == Statement::Kind::kExplain) {
    ReadTicket ticket = RouteRead();
    return ticket.db->ExecuteStatement(stmt, sql, ctx);
  }
  if (PrimaryDown()) {
    return Status::Unavailable(
        "repl: primary is down, writes unavailable until failover");
  }
  Database* primary;
  {
    std::lock_guard<std::mutex> lock(mu_);
    primary = primary_;
  }
  uint64_t lsn_before = log_.last_lsn();
  EASIA_ASSIGN_OR_RETURN(QueryResult result,
                         primary->ExecuteStatement(stmt, sql, ctx));
  if (log_.last_lsn() == lsn_before) return result;  // nothing committed
  writes_.fetch_add(1, std::memory_order_relaxed);
  Status ship = ShipAll();
  size_t quorum = options_.ack_quorum;
  if (quorum == 0) return result;
  uint64_t target = log_.last_lsn();
  uint64_t term = log_.current_term();
  size_t caught_up = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& replica : replicas_) {
      if (replica->down()) continue;
      // A replica counts toward the quorum only on the current timeline:
      // a diverged node left over from a failover can report an LSN past
      // the target without holding the commit at all.
      if (replica->term() != term) continue;
      if (replica->last_applied_lsn() >= target) ++caught_up;
    }
    quorum = std::min(quorum, replicas_.size());
  }
  if (caught_up < quorum) {
    // COMMITTED on the primary, durable there, but below the ack quorum.
    // kAborted (not kUnavailable) on purpose: this is not a
    // retry-until-it-works condition — the statement already applied
    // once, so a blind retry would double-apply it, and a failover may
    // legitimately discard it. The committed LSN is in the message so a
    // caller can de-duplicate an idempotent retry.
    quorum_failures_.fetch_add(1, std::memory_order_relaxed);
    std::string detail = "repl: commit at lsn " + std::to_string(target) +
                         " below ack quorum (" + std::to_string(caught_up) +
                         "/" + std::to_string(quorum) +
                         " replicas); durable on primary but unacked — do "
                         "not blindly retry";
    if (!ship.ok()) {
      detail += "; ship error: " + std::string(ship.message());
    }
    return Status::Aborted(std::move(detail));
  }
  return result;
}

ReadTicket ReplicationCoordinator::RouteRead() {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t primary_epoch = primary_->commit_epoch();
  uint64_t current_term = log_.current_term();
  if (!PrimaryDown()) {
    for (size_t i = 0; i < replicas_.size(); ++i) {
      ReplicaNode& candidate =
          *replicas_[(round_robin_ + i) % replicas_.size()];
      if (candidate.down()) continue;
      // Fencing: a replica that has not crossed the latest failover
      // barrier (older term) may hold truncated old-timeline commits —
      // its epoch can even EXCEED the new primary's while its data is
      // wrong. It serves nothing until shipping re-validates or
      // bootstraps it onto the current timeline.
      if (candidate.term() != current_term) continue;
      uint64_t applied = candidate.applied_epoch();
      if (applied > primary_epoch) continue;
      if (applied + options_.max_read_lag_epochs < primary_epoch) continue;
      round_robin_ = (round_robin_ + i + 1) % replicas_.size();
      reads_replica_.fetch_add(1, std::memory_order_relaxed);
      return {&candidate.database(), applied, candidate.host(), true};
    }
    reads_primary_.fetch_add(1, std::memory_order_relaxed);
    return {primary_, primary_epoch, options_.primary_host, false};
  }
  // Primary presumed dead: degrade to the most caught-up live replica so
  // stale-bounded reads survive the failover window.
  ReplicaNode* best = nullptr;
  for (const auto& replica : replicas_) {
    if (replica->down()) continue;
    if (best == nullptr ||
        PositionLess(best->term(), best->last_applied_lsn(),
                     replica->term(), replica->last_applied_lsn())) {
      best = replica.get();
    }
  }
  if (best != nullptr) {
    reads_replica_.fetch_add(1, std::memory_order_relaxed);
    return {&best->database(), best->applied_epoch(), best->host(), true};
  }
  reads_primary_.fetch_add(1, std::memory_order_relaxed);
  return {primary_, primary_epoch, options_.primary_host, false};
}

Status ReplicationCoordinator::ShipAll() {
  std::vector<ReplicaNode*> targets;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& replica : replicas_) {
      if (!replica->down()) targets.push_back(replica.get());
    }
  }
  Status first_error = Status::OK();
  for (ReplicaNode* replica : targets) {
    Result<size_t> shipped = shipper_->ShipTo(replica);
    if (shipped.ok()) continue;
    if (shipped.status().code() == StatusCode::kOutOfRange) {
      // The log was trimmed past this replica's resume point, or its
      // timeline diverged across a failover: re-seed it from a primary
      // snapshot (single-writer discipline means the snapshot is exactly
      // the state at the log head).
      Database* primary;
      {
        std::lock_guard<std::mutex> lock(mu_);
        primary = primary_;
      }
      Status bootstrap = replica->Bootstrap(primary->SerializeSnapshot(),
                                            log_.last_lsn(),
                                            primary->commit_epoch(),
                                            log_.current_term());
      if (bootstrap.ok()) continue;
      if (first_error.ok()) first_error = bootstrap;
      continue;
    }
    if (first_error.ok()) first_error = shipped.status();
  }
  return first_error;
}

void ReplicationCoordinator::Heartbeat() {
  last_heartbeat_.store(network_->Now(), std::memory_order_release);
}

bool ReplicationCoordinator::PrimaryDown() const {
  return network_->Now() -
             last_heartbeat_.load(std::memory_order_acquire) >
         options_.heartbeat_timeout_seconds;
}

Result<std::string> ReplicationCoordinator::MaybeFailover() {
  if (!PrimaryDown()) {
    return Status::FailedPrecondition("repl: primary is still live");
  }
  std::lock_guard<std::mutex> lock(mu_);
  // Most caught-up live replica by (term, LSN) wins: any commit acked
  // under quorum was applied by >= ack_quorum replicas, so while fewer
  // than ack_quorum replicas are down, at least one live replica holds
  // every acked commit and the max-position node covers all of them.
  // That is the safety bound — it does NOT hold once ack_quorum (or
  // more) replicas are down together, which the refusal check below
  // guards.
  size_t best = replicas_.size();
  for (size_t i = 0; i < replicas_.size(); ++i) {
    if (replicas_[i]->down()) continue;
    if (best == replicas_.size() ||
        PositionLess(replicas_[best]->term(),
                     replicas_[best]->last_applied_lsn(),
                     replicas_[i]->term(),
                     replicas_[i]->last_applied_lsn())) {
      best = i;
    }
  }
  if (best == replicas_.size()) {
    return Status::NotFound("repl: no live replica to promote");
  }
  // Safety check: with >= ack_quorum replicas down, a commit may have
  // been acked exclusively through down replicas. If one of them is
  // ahead of the candidate, promoting would silently discard commits the
  // client saw acknowledged — refuse unless the operator opted into
  // lossy failover.
  size_t down_count = 0;
  for (const auto& replica : replicas_) {
    if (replica->down()) ++down_count;
  }
  if (options_.ack_quorum > 0 && down_count >= options_.ack_quorum) {
    for (const auto& replica : replicas_) {
      if (!replica->down()) continue;
      if (PositionLess(replicas_[best]->term(),
                       replicas_[best]->last_applied_lsn(),
                       replica->term(), replica->last_applied_lsn())) {
        if (!options_.allow_lossy_failover) {
          failovers_refused_.fetch_add(1, std::memory_order_relaxed);
          return Status::FailedPrecondition(
              "repl: down replica " + replica->host() + " (term " +
              std::to_string(replica->term()) + ", lsn " +
              std::to_string(replica->last_applied_lsn()) +
              ") may hold acked commits past promotion candidate " +
              replicas_[best]->host() + " (term " +
              std::to_string(replicas_[best]->term()) + ", lsn " +
              std::to_string(replicas_[best]->last_applied_lsn()) +
              "); refusing lossy failover — recover the replica or set "
              "allow_lossy_failover");
        }
        lossy_failovers_.fetch_add(1, std::memory_order_relaxed);
        break;
      }
    }
  }
  std::unique_ptr<ReplicaNode> promoted = std::move(replicas_[best]);
  replicas_.erase(replicas_.begin() + best);
  // Entries past the promoted LSN were never acked; they die with the
  // old primary. The new timeline term fences stragglers: a replica that
  // was down across this failover and still holds truncated entries will
  // fail the term-history check on its next shipment and be bootstrapped
  // instead of silently skipping new entries as "duplicates".
  log_.TruncateAfter(promoted->last_applied_lsn());
  log_.BeginTerm();
  // Epoch barrier: the dead primary handed out epochs up to
  // log_.max_epoch(); restart the new timeline strictly above them so an
  // epoch can never name two different states (render caches key on it).
  // The barrier itself is a no-op log entry, so surviving replicas adopt
  // the new term and epoch through the ordinary apply path.
  uint64_t barrier_epoch =
      std::max(log_.max_epoch(), promoted->database().commit_epoch()) + 1;
  promoted->database().AdvanceCommitEpochTo(barrier_epoch);
  log_.Append(barrier_epoch, {});
  primary_->set_commit_listener({});
  primary_ = &promoted->database();
  options_.primary_host = promoted->host();
  shipper_ = std::make_unique<WalShipper>(
      &log_, network_,
      WalShipper::Options{options_.primary_host,
                          options_.max_entries_per_shipment});
  AttachListener(primary_);
  promoted_.push_back(std::move(promoted));
  round_robin_ = 0;
  failovers_.fetch_add(1, std::memory_order_relaxed);
  last_heartbeat_.store(network_->Now(), std::memory_order_release);
  return options_.primary_host;
}

std::vector<ReplicaInfo> ReplicationCoordinator::replica_info() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t primary_epoch = primary_->commit_epoch();
  std::vector<ReplicaInfo> out;
  out.reserve(replicas_.size());
  for (const auto& replica : replicas_) {
    ReplicaInfo info;
    info.host = replica->host();
    info.last_applied_lsn = replica->last_applied_lsn();
    info.term = replica->term();
    info.applied_epoch = replica->applied_epoch();
    info.lag_epochs = primary_epoch > info.applied_epoch
                          ? primary_epoch - info.applied_epoch
                          : 0;
    info.down = replica->down();
    out.push_back(std::move(info));
  }
  return out;
}

void ReplicationCoordinator::RegisterMetrics(obs::MetricsRegistry* metrics) {
  using Samples = std::vector<std::pair<obs::Labels, double>>;
  (void)metrics->RegisterCallback(
      "easia_repl_replica_lag_epochs",
      "Commit epochs each replica trails the primary by",
      obs::MetricsRegistry::CallbackKind::kGauge, [this] {
        Samples out;
        for (const ReplicaInfo& info : replica_info()) {
          out.push_back({{{"replica", info.host}},
                         static_cast<double>(info.lag_epochs)});
        }
        return out;
      });
  (void)metrics->RegisterCallback(
      "easia_repl_replica_applied_lsn",
      "Last replication log sequence number applied per replica",
      obs::MetricsRegistry::CallbackKind::kGauge, [this] {
        Samples out;
        for (const ReplicaInfo& info : replica_info()) {
          out.push_back({{{"replica", info.host}},
                         static_cast<double>(info.last_applied_lsn)});
        }
        return out;
      });
  (void)metrics->RegisterCallback(
      "easia_repl_reads_total",
      "Reads routed by the replication coordinator, by serving node kind",
      obs::MetricsRegistry::CallbackKind::kCounter, [this] {
        return Samples{
            {{{"node", "primary"}}, static_cast<double>(reads_primary())},
            {{{"node", "replica"}}, static_cast<double>(reads_replica())}};
      });
  (void)metrics->RegisterCallback(
      "easia_repl_writes_total",
      "Mutating statements routed to the primary",
      obs::MetricsRegistry::CallbackKind::kCounter, [this] {
        return Samples{{{}, static_cast<double>(writes())}};
      });
  (void)metrics->RegisterCallback(
      "easia_repl_failovers_total", "Primary failovers performed",
      obs::MetricsRegistry::CallbackKind::kCounter, [this] {
        return Samples{{{}, static_cast<double>(failovers())}};
      });
  (void)metrics->RegisterCallback(
      "easia_repl_failovers_refused_total",
      "Promotions refused because a down replica may hold acked commits",
      obs::MetricsRegistry::CallbackKind::kCounter, [this] {
        return Samples{{{}, static_cast<double>(failovers_refused())}};
      });
  (void)metrics->RegisterCallback(
      "easia_repl_quorum_failures_total",
      "Commits that missed the replication ack quorum",
      obs::MetricsRegistry::CallbackKind::kCounter, [this] {
        return Samples{{{}, static_cast<double>(quorum_failures())}};
      });
  (void)metrics->RegisterCallback(
      "easia_repl_shipments_total",
      "WAL shipments transferred to replicas",
      obs::MetricsRegistry::CallbackKind::kCounter, [this] {
        std::lock_guard<std::mutex> lock(mu_);
        return Samples{{{},
                        static_cast<double>(shipper_->counters().shipments.load(
                            std::memory_order_relaxed))}};
      });
  (void)metrics->RegisterCallback(
      "easia_repl_shipped_bytes_total",
      "Bytes of WAL shipments transferred to replicas",
      obs::MetricsRegistry::CallbackKind::kCounter, [this] {
        std::lock_guard<std::mutex> lock(mu_);
        return Samples{
            {{},
             static_cast<double>(shipper_->counters().bytes_shipped.load(
                 std::memory_order_relaxed))}};
      });
  (void)metrics->RegisterCallback(
      "easia_repl_torn_shipments_total",
      "Shipments that arrived truncated or checksum-corrupt",
      obs::MetricsRegistry::CallbackKind::kCounter, [this] {
        std::lock_guard<std::mutex> lock(mu_);
        uint64_t torn = 0;
        for (const auto& replica : replicas_) {
          torn += replica->counters().torn_shipments.load(
              std::memory_order_relaxed);
        }
        for (const auto& replica : promoted_) {
          torn += replica->counters().torn_shipments.load(
              std::memory_order_relaxed);
        }
        return Samples{{{}, static_cast<double>(torn)}};
      });
}

}  // namespace easia::db::repl
