#include "core/archive.h"

#include "fileserver/url.h"

namespace easia::core {

Archive::Archive(Options options)
    : options_(std::move(options)), network_(options_.start_epoch) {
  database_ = std::make_unique<db::Database>(options_.name,
                                             options_.db_options);
  med_ = std::make_unique<med::DataLinkManager>(
      &fleet_, &network_.clock(), options_.token_secret,
      options_.token_ttl_seconds);
  database_->set_coordinator(med_.get());
  backups_ = std::make_unique<med::BackupManager>(database_.get(), med_.get(),
                                                  &fleet_);
  engine_ = std::make_unique<ops::OperationEngine>(database_.get(), &fleet_,
                                                   &network_);
  jobs_ = std::make_unique<easia::jobs::JobScheduler>(
      engine_.get(), &xuis_, &network_.clock(), options_.job_options);
  (void)jobs_->Recover();
  if (options_.obs.enabled) {
    metrics_ = std::make_unique<obs::MetricsRegistry>();
    obs::Tracer::Options tracer_options;
    tracer_options.clock = &network_.clock();
    tracer_options.ring_capacity = options_.obs.trace_ring_capacity;
    tracer_options.slow_threshold_seconds =
        options_.obs.slow_request_threshold_seconds;
    tracer_options.slow_log_capacity = options_.obs.slow_log_capacity;
    tracer_options.metrics = metrics_.get();
    tracer_ = std::make_unique<obs::Tracer>(tracer_options);
    database_->set_tracer(tracer_.get());
    database_->set_metrics_registry(metrics_.get());
    jobs_->set_tracer(tracer_.get());
  }
  sessions_ = std::make_unique<web::SessionManager>(
      &users_, &network_.clock(), options_.session_timeout_seconds);
  if (options_.render_cache_bytes > 0) {
    web::RenderCache::Options cache_options;
    cache_options.max_bytes = options_.render_cache_bytes;
    cache_options.max_age_seconds = options_.token_ttl_seconds / 2;
    cache_options.clock = &network_.clock();
    render_cache_ = std::make_unique<web::RenderCache>(cache_options);
  }
  web::ArchiveWebServer::Deps deps;
  deps.database = database_.get();
  deps.xuis = &xuis_;
  deps.fleet = &fleet_;
  deps.engine = engine_.get();
  deps.users = &users_;
  deps.sessions = sessions_.get();
  deps.jobs = jobs_.get();
  deps.cache = render_cache_.get();
  deps.metrics = metrics_.get();
  deps.tracer = tracer_.get();
  web_ = std::make_unique<web::ArchiveWebServer>(deps);
  // After every sampled component exists (notably the render cache).
  if (metrics_ != nullptr) RegisterCollectors();
  // Database host participates in the network (metadata/query traffic).
  sim::HostSpec db_host;
  db_host.name = options_.db_host;
  db_host.processing_mb_per_sec = 100.0;
  network_.AddHost(db_host);
  // Guests cannot obtain download tokens (paper demo restriction).
  med_->set_read_privilege_check([this](const std::string& user) {
    Result<web::User> u = users_.GetUser(user);
    if (!u.ok()) return user == "system";  // internal callers
    return u->CanDownload();
  });
}

Archive::~Archive() = default;

void Archive::RegisterCollectors() {
  using obs::Labels;
  using obs::MetricsRegistry;
  using Samples = std::vector<std::pair<Labels, double>>;
  obs::MetricsRegistry* m = metrics_.get();
  // The components keep their own atomic counters as the single source of
  // truth; these families sample them at collect time, so /metrics and
  // /stats always agree with the component introspection APIs.
  (void)m->RegisterCallback(
      "easia_db_statements_total", "SQL statements executed",
      MetricsRegistry::CallbackKind::kCounter, [this]() -> Samples {
        return {{{}, static_cast<double>(database_->stats().statements)}};
      });
  (void)m->RegisterCallback(
      "easia_db_queries_total", "SELECT statements executed",
      MetricsRegistry::CallbackKind::kCounter, [this]() -> Samples {
        return {{{}, static_cast<double>(database_->stats().queries)}};
      });
  (void)m->RegisterCallback(
      "easia_db_rows_total", "Rows changed by DML, by operation",
      MetricsRegistry::CallbackKind::kCounter, [this]() -> Samples {
        db::DatabaseStats ds = database_->stats();
        return {{{{"op", "deleted"}}, static_cast<double>(ds.rows_deleted)},
                {{{"op", "inserted"}}, static_cast<double>(ds.rows_inserted)},
                {{{"op", "updated"}}, static_cast<double>(ds.rows_updated)}};
      });
  (void)m->RegisterCallback(
      "easia_db_txns_total", "Transactions finished, by outcome",
      MetricsRegistry::CallbackKind::kCounter, [this]() -> Samples {
        db::DatabaseStats ds = database_->stats();
        return {
            {{{"outcome", "aborted"}}, static_cast<double>(ds.txn_aborts)},
            {{{"outcome", "committed"}}, static_cast<double>(ds.txn_commits)}};
      });
  (void)m->RegisterCallback(
      "easia_db_commit_epoch", "Monotonic commit epoch (cache validator)",
      MetricsRegistry::CallbackKind::kGauge, [this]() -> Samples {
        return {{{}, static_cast<double>(database_->commit_epoch())}};
      });
  (void)m->RegisterCallback(
      "easia_db_bulk_chunks_total", "COPY bulk-ingest chunks committed",
      MetricsRegistry::CallbackKind::kCounter, [this]() -> Samples {
        return {{{}, static_cast<double>(database_->stats().bulk_chunks)}};
      });
  // Storage-engine gauges, sampled per table at collect time. Catalog
  // iteration yields sorted names, so exposition order is stable.
  (void)m->RegisterCallback(
      "easia_db_table_rows", "Rows stored, by table",
      MetricsRegistry::CallbackKind::kGauge, [this]() -> Samples {
        Samples out;
        for (const std::string& name : database_->catalog().TableNames()) {
          Result<const db::Table*> t = database_->GetTable(name);
          if (!t.ok()) continue;
          out.push_back({{{"table", name}},
                         static_cast<double>((*t)->GetStorageStats().rows)});
        }
        return out;
      });
  (void)m->RegisterCallback(
      "easia_db_columnar_bytes", "Columnar page bytes, by table",
      MetricsRegistry::CallbackKind::kGauge, [this]() -> Samples {
        Samples out;
        for (const std::string& name : database_->catalog().TableNames()) {
          Result<const db::Table*> t = database_->GetTable(name);
          if (!t.ok()) continue;
          out.push_back({{{"table", name}},
                         static_cast<double>(
                             (*t)->GetStorageStats().columnar_bytes)});
        }
        return out;
      });
  (void)m->RegisterCallback(
      "easia_db_radix_index", "Radix prefix-index size, by table and unit",
      MetricsRegistry::CallbackKind::kGauge, [this]() -> Samples {
        Samples out;
        for (const std::string& name : database_->catalog().TableNames()) {
          Result<const db::Table*> t = database_->GetTable(name);
          if (!t.ok()) continue;
          db::Table::StorageStats ss = (*t)->GetStorageStats();
          out.push_back({{{"table", name}, {"unit", "bytes"}},
                         static_cast<double>(ss.radix_bytes)});
          out.push_back({{{"table", name}, {"unit", "nodes"}},
                         static_cast<double>(ss.radix_nodes)});
        }
        return out;
      });
  if (render_cache_ != nullptr) {
    (void)m->RegisterCallback(
        "easia_render_cache_events_total", "Rendered-page cache events",
        MetricsRegistry::CallbackKind::kCounter, [this]() -> Samples {
          web::RenderCacheStats cs = render_cache_->stats();
          return {
              {{{"event", "eviction"}}, static_cast<double>(cs.evictions)},
              {{{"event", "hit"}}, static_cast<double>(cs.hits)},
              {{{"event", "invalidation"}},
               static_cast<double>(cs.invalidations)},
              {{{"event", "miss"}}, static_cast<double>(cs.misses)}};
        });
    (void)m->RegisterCallback(
        "easia_render_cache_entries", "Rendered pages currently cached",
        MetricsRegistry::CallbackKind::kGauge, [this]() -> Samples {
          return {{{},
                   static_cast<double>(render_cache_->stats().entries)}};
        });
    (void)m->RegisterCallback(
        "easia_render_cache_bytes", "Bytes held by the render cache",
        MetricsRegistry::CallbackKind::kGauge, [this]() -> Samples {
          return {{{}, static_cast<double>(render_cache_->stats().bytes)}};
        });
  }
  (void)m->RegisterCallback(
      "easia_tokens_total", "DATALINK access-token events",
      MetricsRegistry::CallbackKind::kCounter, [this]() -> Samples {
        med::TokenManager& tokens = med_->tokens();
        return {
            {{{"event", "issued"}}, static_cast<double>(tokens.issued())},
            {{{"event", "rejected"}}, static_cast<double>(tokens.rejected())},
            {{{"event", "validated"}},
             static_cast<double>(tokens.validated_ok())}};
      });
  (void)m->RegisterCallback(
      "easia_jobs_total", "Batch-job scheduler events",
      MetricsRegistry::CallbackKind::kCounter, [this]() -> Samples {
        return {
            {{{"event", "executed"}}, static_cast<double>(jobs_->executed())},
            {{{"event", "failed"}}, static_cast<double>(jobs_->failed())},
            {{{"event", "journal_error"}},
             static_cast<double>(jobs_->journal_errors())},
            {{{"event", "retried"}}, static_cast<double>(jobs_->retries())},
            {{{"event", "succeeded"}},
             static_cast<double>(jobs_->succeeded())}};
      });
  (void)m->RegisterCallback(
      "easia_jobs_queued", "Jobs by live queue state",
      MetricsRegistry::CallbackKind::kGauge, [this]() -> Samples {
        return {{{{"state", "open"}},
                 static_cast<double>(jobs_->queue().open_count())},
                {{{"state", "running"}},
                 static_cast<double>(jobs_->queue().running_count())}};
      });
  (void)m->RegisterCallback(
      "easia_engine_result_cache_entries", "Operation result-cache entries",
      MetricsRegistry::CallbackKind::kGauge, [this]() -> Samples {
        return {{{}, static_cast<double>(engine_->cache_size())}};
      });
  (void)m->RegisterCallback(
      "easia_engine_result_cache_evictions_total",
      "Operation result-cache evictions",
      MetricsRegistry::CallbackKind::kCounter, [this]() -> Samples {
        return {{{}, static_cast<double>(engine_->cache_evictions())}};
      });
  (void)m->RegisterCallback(
      "easia_op_invocations_total", "Server-side operation invocations",
      MetricsRegistry::CallbackKind::kCounter, [this]() -> Samples {
        Samples out;
        for (const auto& [name, stats] : engine_->stats()) {
          out.push_back(
              {{{"op", name}}, static_cast<double>(stats.invocations)});
        }
        return out;
      });
  (void)m->RegisterCallback(
      "easia_op_cache_hits_total", "Operation result-cache hits",
      MetricsRegistry::CallbackKind::kCounter, [this]() -> Samples {
        Samples out;
        for (const auto& [name, stats] : engine_->stats()) {
          out.push_back(
              {{{"op", name}}, static_cast<double>(stats.cache_hits)});
        }
        return out;
      });
  (void)m->RegisterCallback(
      "easia_op_failures_total", "Operation failures",
      MetricsRegistry::CallbackKind::kCounter, [this]() -> Samples {
        Samples out;
        for (const auto& [name, stats] : engine_->stats()) {
          out.push_back(
              {{{"op", name}}, static_cast<double>(stats.failures)});
        }
        return out;
      });
  (void)m->RegisterCallback(
      "easia_op_exec_seconds_total", "Modelled operation execution time",
      MetricsRegistry::CallbackKind::kCounter, [this]() -> Samples {
        Samples out;
        for (const auto& [name, stats] : engine_->stats()) {
          out.push_back({{{"op", name}}, stats.total_exec_seconds});
        }
        return out;
      });
  (void)m->RegisterCallback(
      "easia_fileserver_retries_total",
      "Transient-error re-attempts, by file-server host",
      MetricsRegistry::CallbackKind::kCounter, [this]() -> Samples {
        Samples out;
        for (const std::string& host : fleet_.Hosts()) {
          Result<fs::FileServer*> server = fleet_.GetServer(host);
          if (!server.ok()) continue;
          out.push_back({{{"host", host}},
                         static_cast<double>((*server)->retry_stats().retries)});
        }
        return out;
      });
  (void)m->RegisterCallback(
      "easia_fileserver_give_ups_total",
      "Operations that stayed transient past the retry budget, by host",
      MetricsRegistry::CallbackKind::kCounter, [this]() -> Samples {
        Samples out;
        for (const std::string& host : fleet_.Hosts()) {
          Result<fs::FileServer*> server = fleet_.GetServer(host);
          if (!server.ok()) continue;
          out.push_back(
              {{{"host", host}},
               static_cast<double>((*server)->retry_stats().give_ups)});
        }
        return out;
      });
}

fs::FileServer* Archive::AddFileServer(const std::string& host,
                                       double constant_mbps,
                                       double processing_mb_per_sec) {
  fs::FileServer* server = fleet_.AddServer(host);
  sim::HostSpec spec;
  spec.name = host;
  spec.processing_mb_per_sec = processing_mb_per_sec;
  network_.AddHost(spec);
  if (constant_mbps > 0) {
    network_.AddSymmetricLink(options_.db_host, host,
                              sim::BandwidthSchedule::Constant(constant_mbps));
  } else {
    // Paper-calibrated asymmetric schedules: traffic towards the archive
    // core is slow, traffic out of it is faster, both time-of-day shaped.
    network_.AddLink(host, options_.db_host, sim::ToSouthamptonSchedule());
    network_.AddLink(options_.db_host, host, sim::FromSouthamptonSchedule());
  }
  server->vfs().set_clock([this]() { return network_.Now(); });
  server->set_tracer(tracer_.get());
  // Make sure the SQL/MED agent exists on the host.
  (void)med_->EnsureLinker(host);
  return server;
}

void Archive::AddClientHost(const std::string& host, double constant_mbps) {
  sim::HostSpec spec;
  spec.name = host;
  spec.processing_mb_per_sec = 25.0;
  network_.AddHost(spec);
  for (const std::string& server_host : fleet_.Hosts()) {
    if (constant_mbps > 0) {
      network_.AddSymmetricLink(server_host, host,
                                sim::BandwidthSchedule::Constant(
                                    constant_mbps));
    } else {
      network_.AddLink(host, server_host, sim::ToSouthamptonSchedule());
      network_.AddLink(server_host, host, sim::FromSouthamptonSchedule());
    }
  }
  if (constant_mbps > 0) {
    network_.AddSymmetricLink(options_.db_host, host,
                              sim::BandwidthSchedule::Constant(constant_mbps));
  } else {
    network_.AddLink(host, options_.db_host, sim::ToSouthamptonSchedule());
    network_.AddLink(options_.db_host, host, sim::FromSouthamptonSchedule());
  }
}

Result<db::QueryResult> Archive::Execute(const std::string& sql,
                                         const std::string& user) {
  db::ExecContext ctx;
  ctx.user = user;
  return database_->Execute(sql, ctx);
}

Status Archive::InitializeXuis(const xuis::GeneratorOptions& options) {
  EASIA_ASSIGN_OR_RETURN(xuis::XuisSpec spec,
                         xuis::GenerateDefaultXuis(*database_, options));
  xuis_.SetDefault(std::move(spec));
  return Status::OK();
}

Status Archive::AddUser(const std::string& name, const std::string& password,
                        web::UserRole role) {
  return users_.AddUser(name, password, role);
}

Result<std::string> Archive::Login(const std::string& user,
                                   const std::string& password) {
  return sessions_->Login(user, password);
}

web::HttpResponse Archive::Get(const std::string& session_id,
                               const std::string& path,
                               const fs::HttpParams& params) {
  web::HttpRequest request;
  request.path = path;
  request.params = params;
  request.session_id = session_id;
  return web_->Handle(request);
}

Result<double> Archive::Download(const std::string& url,
                                 const std::string& client_host) {
  EASIA_ASSIGN_OR_RETURN(auto resolved, fleet_.Resolve(url));
  fs::FileServer* server = resolved.first;
  const fs::FileUrl& parsed = resolved.second;
  // The file server enforces READ PERMISSION DB via its gate.
  std::string request_path = parsed.Directory();
  if (!parsed.token.empty()) request_path += parsed.token + ";";
  request_path += parsed.filename;
  EASIA_ASSIGN_OR_RETURN(fs::GetResult got, server->Get(request_path));
  EASIA_ASSIGN_OR_RETURN(
      sim::TransferRecord record,
      network_.Transfer(parsed.host, client_host, got.stat.size));
  return record.duration_seconds;
}

}  // namespace easia::core
