#include "web/server.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <thread>
#include <utility>

#include "common/string_util.h"
#include "db/shard/coordinator.h"
#include "web/html.h"
#include "xuis/serialize.h"

namespace easia::web {

namespace {

std::string ParamOr(const fs::HttpParams& params, const std::string& key,
                    const std::string& fallback = "") {
  auto it = params.find(key);
  return it == params.end() ? fallback : it->second;
}

/// Every route label the server emits. Request paths outside this set are
/// collapsed to "other" so a scanner probing random URLs cannot grow the
/// metric cardinality.
constexpr const char* kRoutes[] = {
    "/login",       "/logout",      "/tables",    "/query",
    "/search",      "/browse",      "/typeahead", "/object",
    "/object/put",  "/opform",      "/runop",     "/runchain",
    "/upload",      "/jobs/submit", "/jobs/status", "/jobs/list",
    "/jobs/cancel", "/xuis",        "/stats",     "/metrics",
    "/users",       "other"};

/// The WHERE clause naming one row of `table` for /object and /object/put:
/// each primary-key column of the XUIS table exactly once, from the
/// request's pkN.<column> parameters. Only XUIS column names and escaped
/// string literals that coerce to the column's type reach the SQL, so the
/// statement always takes the unique-index lookup. An unknown, repeated
/// or missing key column (or an uncoercible value) is kInvalidArgument; a
/// hidden key column is kPermissionDenied.
Result<std::string> PrimaryKeyPredicate(const xuis::XuisTable& table,
                                        const fs::HttpParams& params) {
  std::map<const xuis::XuisColumn*, std::string> values;
  for (const auto& [key, value] : params) {
    if (!StartsWith(key, "pk")) continue;
    size_t dot = key.find('.');
    if (dot == std::string::npos) continue;
    const xuis::XuisColumn* col = table.FindColumn(key.substr(dot + 1));
    if (col == nullptr || !col->is_primary_key) {
      return Status::InvalidArgument("not a primary-key column of " +
                                     table.name + ": " + key.substr(dot + 1));
    }
    if (col->hidden) {
      return Status::PermissionDenied("column " + col->name + " is hidden");
    }
    if (!values.emplace(col, value).second) {
      return Status::InvalidArgument("primary-key column given twice: " +
                                     col->name);
    }
  }
  std::vector<std::string> predicates;
  for (const xuis::XuisColumn& col : table.columns) {
    if (!col.is_primary_key) continue;
    auto it = values.find(&col);
    if (it == values.end()) {
      return Status::InvalidArgument("missing primary key " + col.name);
    }
    if (!db::Value::Varchar(it->second).CoerceTo(col.type).ok()) {
      return Status::InvalidArgument("bad primary key value for " + col.name);
    }
    predicates.push_back(col.name + " = '" +
                         ReplaceAll(it->second, "'", "''") + "'");
  }
  if (predicates.empty()) {
    return Status::InvalidArgument("table " + table.name +
                                   " has no primary key");
  }
  return Join(predicates, " AND ");
}

/// 403 for a visibility refusal, 400 for any other bad request.
int RequestErrorStatus(const Status& status) {
  return status.IsPermissionDenied() ? 403 : 400;
}

constexpr const char kHttpRequestsHelp[] =
    "HTTP requests served, by route and status code";
constexpr const char kHttpLatencyHelp[] =
    "HTTP request latency in seconds, by route";

}  // namespace

ArchiveWebServer::ArchiveWebServer(Deps deps) : deps_(deps) {
  for (const char* route : kRoutes) {
    RouteMetrics rm;
    rm.web_span = std::string("web:") + route;
    rm.cache_span = std::string("cache:") + route;
    if (deps_.metrics != nullptr) {
      rm.requests_ok =
          deps_.metrics->GetCounter("easia_http_requests_total",
                                    kHttpRequestsHelp,
                                    {{"code", "200"}, {"route", route}});
      rm.latency = deps_.metrics->GetHistogram(
          "easia_http_request_seconds", kHttpLatencyHelp,
          obs::Histogram::LatencyBounds(), {{"route", route}});
    }
    route_metrics_.emplace(route, std::move(rm));
  }
}

HttpResponse ArchiveWebServer::Error(int status, const std::string& message) {
  HttpResponse resp;
  resp.status = status;
  resp.body = PageHeader("Error") + "<p>" + EscapeMarkup(message) + "</p>" +
              PageFooter();
  return resp;
}

const ArchiveWebServer::RouteMetrics& ArchiveWebServer::RouteEntry(
    const std::string& path, std::string* route) const {
  *route = path == "/"                  ? "/tables"
           : StartsWith(path, "/users") ? "/users"
                                        : path;
  auto it = route_metrics_.find(*route);
  if (it == route_metrics_.end()) {
    *route = "other";
    it = route_metrics_.find(*route);
  }
  return it->second;
}

HttpResponse ArchiveWebServer::Handle(const HttpRequest& request) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  std::string route;
  const RouteMetrics& rm = RouteEntry(request.path, &route);
  obs::Tracer::Scope span(deps_.tracer, rm.web_span);
  const Clock* clock =
      deps_.tracer != nullptr ? deps_.tracer->clock() : nullptr;
  double start = clock != nullptr ? clock->Now() : 0;
  HttpResponse resp = Dispatch(request);
  if (resp.status != 200) {
    span.set_error();
    span.set_note(StrPrintf("status %d", resp.status));
  }
  if (deps_.metrics != nullptr) {
    if (resp.status == 200) {
      rm.requests_ok->Increment();
    } else {
      // Non-200 codes are rare; the registry lookup off the hot path
      // keeps per-route-per-code children sparse.
      deps_.metrics
          ->GetCounter("easia_http_requests_total", kHttpRequestsHelp,
                       {{"code", StrPrintf("%d", resp.status)},
                        {"route", route}})
          ->Increment();
    }
    if (clock != nullptr) {
      rm.latency->Observe(clock->Now() - start);
    }
  }
  return resp;
}

HttpResponse ArchiveWebServer::Dispatch(const HttpRequest& request) {
  if (request.path == "/login") return HandleLogin(request);
  if (request.path == "/metrics") return HandleMetrics();
  Session session;
  HttpResponse gate = RequireSession(request, &session);
  if (!gate.ok()) return gate;
  if (request.path == "/logout") {
    (void)deps_.sessions->Logout(request.session_id);
    HttpResponse resp;
    resp.body = PageHeader("Logged out") + PageFooter();
    return resp;
  }
  if (request.path == "/" || request.path == "/tables") {
    return HandleTables(session);
  }
  if (request.path == "/query") return HandleQueryForm(request, session);
  if (request.path == "/search") return HandleSearch(request, session);
  if (request.path == "/browse") return HandleBrowse(request, session);
  if (request.path == "/typeahead") return HandleTypeahead(request, session);
  if (request.path == "/object/put") return HandleObjectPut(request, session);
  if (request.path == "/object") return HandleObject(request, session);
  if (request.path == "/opform") return HandleOpForm(request, session);
  if (request.path == "/runop") return HandleRunOp(request, session);
  if (request.path == "/runchain") return HandleRunChain(request, session);
  if (request.path == "/upload") return HandleUpload(request, session);
  if (request.path == "/jobs/submit") return HandleJobSubmit(request, session);
  if (request.path == "/jobs/status") return HandleJobStatus(request, session);
  if (request.path == "/jobs/list") return HandleJobList(session);
  if (request.path == "/jobs/cancel") return HandleJobCancel(request, session);
  if (request.path == "/xuis") return HandleXuis(session);
  if (request.path == "/stats") return HandleStats(session);
  if (StartsWith(request.path, "/users")) return HandleUsers(request, session);
  return Error(404, "no such page: " + request.path);
}

std::vector<HttpResponse> ArchiveWebServer::HandleConcurrent(
    const std::vector<HttpRequest>& requests, const DispatchOptions& options) {
  std::vector<HttpResponse> responses(requests.size());
  size_t workers = std::max<size_t>(1, options.workers);
  workers = std::min(workers, std::max<size_t>(1, requests.size()));
  std::atomic<size_t> next{0};
  auto run = [&] {
    for (;;) {
      size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= requests.size()) return;
      if (options.simulated_client_latency_seconds > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(
            options.simulated_client_latency_seconds));
      }
      responses[i] = Handle(requests[i]);
    }
  };
  if (workers == 1) {
    run();
    return responses;
  }
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (size_t t = 0; t < workers; ++t) pool.emplace_back(run);
  for (std::thread& t : pool) t.join();
  return responses;
}

std::string ArchiveWebServer::CacheVisibility(const Session& session,
                                              bool per_user) const {
  if (per_user || deps_.xuis->HasPersonal(session.user.name)) {
    return "u:" + session.user.name;
  }
  return session.user.IsGuest() ? "role:guest" : "role:auth";
}

db::repl::ReadTicket ArchiveWebServer::ServingNode() const {
  if (deps_.shard != nullptr) {
    // The shard coordinator is the serving "node": queries route through
    // it (ExecuteQuery), and the cache validator is the combined epoch —
    // a sum over shard primaries, so any shard's commit invalidates.
    return {deps_.shard->shard_db(0), deps_.shard->combined_epoch(), "shard",
            false};
  }
  if (deps_.repl != nullptr) return deps_.repl->RouteRead();
  return {deps_.database, deps_.database->commit_epoch(), "local", false};
}

Result<db::QueryResult> ArchiveWebServer::ExecuteQuery(
    db::Database* db, const std::string& sql,
    const db::ExecContext& ctx) const {
  if (deps_.shard != nullptr) return deps_.shard->Execute(sql, ctx);
  return db->Execute(sql, ctx);
}

Result<db::QueryResult> ArchiveWebServer::ExecuteDml(
    const std::string& sql, const db::ExecContext& ctx) {
  // DML must flow through the replication coordinator when it is wired:
  // it targets the CURRENT primary (deps_.database is only the initial
  // one — after a failover its commit listener is detached, so writing
  // there directly would commit outside the replication log, invisible
  // to every routed read) and enforces the ack quorum. The shard
  // coordinator subsumes it: writes route to the owning shard's current
  // primary with the same quorum semantics per shard.
  if (deps_.shard != nullptr) return deps_.shard->Execute(sql, ctx);
  if (deps_.repl != nullptr) return deps_.repl->Execute(sql, ctx);
  return deps_.database->Execute(sql, ctx);
}

template <typename RenderFn>
HttpResponse ArchiveWebServer::CachedRender(const Session& session,
                                            bool per_user,
                                            const std::string& route,
                                            const std::string& params,
                                            RenderFn&& render) {
  // Route once per request: the node queried on a miss and the epoch the
  // entry is validated/stored under must be the same observation.
  db::repl::ReadTicket ticket = ServingNode();
  if (deps_.cache == nullptr) return render(ticket);
  std::string route_label;
  const RouteMetrics& rm = RouteEntry(route, &route_label);
  obs::Tracer::Scope span(deps_.tracer, rm.cache_span);
  RenderCache::Key key;
  key.visibility = CacheVisibility(session, per_user);
  key.route = route;
  key.params = params;
  // Capture the validators BEFORE rendering: a commit racing with the
  // render leaves the entry tagged with the pre-commit epoch, so the next
  // lookup conservatively misses instead of replaying a possibly-mixed
  // page as current. The epoch is the SERVING node's applied epoch: a
  // page rendered from a lagging replica but stamped with the primary's
  // newer epoch would later be served as current even though the replica
  // had not applied those commits when it rendered.
  uint64_t epoch = ticket.epoch;
  uint64_t revision = deps_.xuis->revision();
  if (std::optional<CachedPage> page =
          deps_.cache->Get(key, epoch, revision)) {
    span.set_note("hit");
    HttpResponse resp;
    resp.content_type = std::move(page->content_type);
    resp.body = std::move(page->body);
    return resp;
  }
  span.set_note("miss");
  HttpResponse resp = render(ticket);
  if (resp.status == 200) {
    CachedPage page;
    page.content_type = resp.content_type;
    page.body = resp.body;
    deps_.cache->Put(key, epoch, revision, std::move(page));
  }
  return resp;
}

HttpResponse ArchiveWebServer::RequireSession(const HttpRequest& request,
                                              Session* session) {
  if (request.session_id.empty()) {
    return Error(401, "log in first");
  }
  Result<Session> s = deps_.sessions->Get(request.session_id);
  if (!s.ok()) return Error(401, s.status().message());
  *session = std::move(*s);
  HttpResponse ok;
  return ok;
}

HttpResponse ArchiveWebServer::HandleLogin(const HttpRequest& request) {
  Result<std::string> session_id =
      deps_.sessions->Login(ParamOr(request.params, "user"),
                            ParamOr(request.params, "password"));
  if (!session_id.ok()) return Error(403, session_id.status().message());
  HttpResponse resp;
  resp.content_type = "text/plain";
  resp.body = *session_id;
  return resp;
}

HttpResponse ArchiveWebServer::HandleTables(const Session& session) {
  return CachedRender(session, /*per_user=*/false, "/tables", "",
                      [&](const db::repl::ReadTicket&) {
    const xuis::XuisSpec& spec = deps_.xuis->For(session.user.name);
    HttpResponse resp;
    resp.body = RenderTableIndex(spec);
    return resp;
  });
}

HttpResponse ArchiveWebServer::HandleQueryForm(const HttpRequest& request,
                                               const Session& session) {
  std::string table_name = ParamOr(request.params, "table");
  return CachedRender(
      session, /*per_user=*/false, "/query", "table=" + table_name,
      [&](const db::repl::ReadTicket&) {
        const xuis::XuisSpec& spec = deps_.xuis->For(session.user.name);
        const xuis::XuisTable* table = spec.FindTable(table_name);
        if (table == nullptr || table->hidden) {
          return Error(404, "no such table");
        }
        HttpResponse resp;
        resp.body = RenderQueryForm(*table);
        return resp;
      });
}

HttpResponse ArchiveWebServer::HandleXuis(const Session& session) {
  return CachedRender(session, /*per_user=*/false, "/xuis", "",
                      [&](const db::repl::ReadTicket&) {
    Result<std::string> xml =
        xuis::ToXmlText(deps_.xuis->For(session.user.name));
    if (!xml.ok()) return Error(500, xml.status().ToString());
    HttpResponse resp;
    resp.content_type = "text/xml";
    resp.body = std::move(*xml);
    return resp;
  });
}

HttpResponse ArchiveWebServer::RenderQuery(const std::string& sql,
                                           const xuis::XuisTable* table,
                                           const Session& session,
                                           db::Database* db) {
  db::ExecContext exec;
  exec.user = session.user.name;
  Result<db::QueryResult> result = ExecuteQuery(db, sql, exec);
  if (!result.ok()) return Error(400, result.status().ToString());
  RenderContext ctx;
  ctx.spec = &deps_.xuis->For(session.user.name);
  ctx.table = table;
  ctx.query = [this, db](const std::string& fk_sql,
                         const db::ExecContext& fk_exec) {
    return ExecuteQuery(db, fk_sql, fk_exec);
  };
  ctx.fleet = deps_.fleet;
  ctx.is_guest = session.user.IsGuest();
  Result<std::string> html = RenderResultTable(*result, ctx);
  if (!html.ok()) return Error(500, html.status().ToString());
  HttpResponse resp;
  resp.body = std::move(*html);
  return resp;
}

HttpResponse ArchiveWebServer::HandleSearch(const HttpRequest& request,
                                            const Session& session) {
  const xuis::XuisSpec& spec = deps_.xuis->For(session.user.name);
  QbeRequest qbe;
  qbe.table = ParamOr(request.params, "table");
  const xuis::XuisTable* table = spec.FindTable(qbe.table);
  if (table == nullptr || table->hidden) return Error(404, "no such table");
  bool all = ParamOr(request.params, "all") == "1";
  if (!all) {
    for (const xuis::XuisColumn& col : table->columns) {
      if (col.hidden) continue;
      if (ParamOr(request.params, "show." + col.name) != "") {
        qbe.selected_columns.push_back(col.name);
      }
      std::string value = ParamOr(request.params, "value." + col.name);
      if (value.empty()) {
        value = ParamOr(request.params, "sample." + col.name);
      }
      if (!value.empty()) {
        qbe.restrictions.push_back(
            {col.name, ParamOr(request.params, "op." + col.name, "="),
             value});
      }
    }
  }
  qbe.order_by = ParamOr(request.params, "orderby");
  qbe.descending = ParamOr(request.params, "desc") == "1";
  std::string limit = ParamOr(request.params, "limit");
  if (!limit.empty()) {
    Result<int64_t> n = ParseInt64(limit);
    if (n.ok()) qbe.limit = *n;
  }
  Result<std::string> sql = TranslateToSql(spec, qbe);
  if (!sql.ok()) return Error(400, sql.status().ToString());
  // /search is uncached, so it routes here; cached routes route inside
  // CachedRender, where the ticket doubles as the cache validator.
  db::repl::ReadTicket ticket = ServingNode();
  return RenderQuery(*sql, table, session, ticket.db);
}

HttpResponse ArchiveWebServer::HandleBrowse(const HttpRequest& request,
                                            const Session& session) {
  std::string table_name = ParamOr(request.params, "table");
  std::string column = ParamOr(request.params, "column");
  std::string value = ParamOr(request.params, "value");
  // Browse pages embed per-user DATALINK access tokens, so they are cached
  // per user (and aged out by the cache's max-age bound, which the archive
  // wires to a fraction of the token TTL).
  std::string params =
      "table=" + table_name + "&column=" + column + "&value=" + value;
  return CachedRender(
      session, /*per_user=*/true, "/browse", params,
      [&](const db::repl::ReadTicket& ticket) {
    const xuis::XuisSpec& spec = deps_.xuis->For(session.user.name);
    Result<std::string> sql = BrowseSql(spec, table_name, column, value);
    if (!sql.ok()) {
      return Error(RequestErrorStatus(sql.status()), sql.status().ToString());
    }
    const xuis::XuisTable* table = spec.FindTable(table_name);
    return RenderQuery(*sql, table, session, ticket.db);
  });
}

HttpResponse ArchiveWebServer::HandleTypeahead(const HttpRequest& request,
                                               const Session& session) {
  std::string table_name = ParamOr(request.params, "table");
  std::string column = ParamOr(request.params, "column");
  std::string prefix = ParamOr(request.params, "prefix");
  std::string limit = ParamOr(request.params, "limit", "10");
  std::string params = "table=" + table_name + "&column=" + column +
                       "&prefix=" + prefix + "&limit=" + limit;
  return CachedRender(
      session, /*per_user=*/false, "/typeahead", params,
      [&](const db::repl::ReadTicket& ticket) {
    const xuis::XuisSpec& spec = deps_.xuis->For(session.user.name);
    const xuis::XuisTable* table = spec.FindTable(table_name);
    if (table == nullptr || table->hidden) return Error(404, "no such table");
    const xuis::XuisColumn* col = table->FindColumn(column);
    if (col == nullptr || col->hidden) return Error(404, "no such column");
    Result<int64_t> n = ParseInt64(limit);
    if (!n.ok() || *n <= 0 || *n > 1000) return Error(400, "bad limit");
    // The typed prefix is escaped (%, _, \ become literals) before the
    // trailing %, so LikePatternPrefix recovers exactly the typed text and
    // the planner serves a VARCHAR completion from its radix prefix index.
    std::string pattern = EscapeLikePattern(prefix) + "%";
    std::string sql = "SELECT DISTINCT " + column + " FROM " + table_name +
                      " WHERE " + column + " LIKE '" +
                      ReplaceAll(pattern, "'", "''") + "' ORDER BY " + column +
                      " LIMIT " + std::to_string(*n);
    db::ExecContext exec;
    exec.user = session.user.name;
    Result<db::QueryResult> result = ExecuteQuery(ticket.db, sql, exec);
    if (!result.ok()) return Error(400, result.status().ToString());
    HttpResponse resp;
    resp.content_type = "text/plain";
    for (const db::Row& row : result->rows) {
      if (row[0].is_null()) continue;
      resp.body += row[0].ToDisplayString();
      resp.body += "\n";
    }
    return resp;
  });
}

HttpResponse ArchiveWebServer::HandleObject(const HttpRequest& request,
                                            const Session& session) {
  const xuis::XuisSpec& spec = deps_.xuis->For(session.user.name);
  const xuis::XuisTable* table =
      spec.FindTable(ParamOr(request.params, "table"));
  if (table == nullptr) return Error(404, "no such table");
  const xuis::XuisColumn* col =
      table->FindColumn(ParamOr(request.params, "column"));
  if (col == nullptr) return Error(404, "no such column");
  if (table->hidden || col->hidden) {
    return Error(403, "object is hidden from this interface");
  }
  Result<std::string> where = PrimaryKeyPredicate(*table, request.params);
  if (!where.ok()) {
    return Error(RequestErrorStatus(where.status()),
                 where.status().ToString());
  }
  std::string sql =
      "SELECT " + col->name + " FROM " + table->name + " WHERE " + *where;
  db::ExecContext exec;
  exec.user = session.user.name;
  // Object reads route like every other read: a stale-bounded replica
  // with primary fallback when replication is wired, the scatter/gather
  // planner when sharding is.
  db::repl::ReadTicket ticket = ServingNode();
  Result<db::QueryResult> result = ExecuteQuery(ticket.db, sql, exec);
  if (!result.ok()) return Error(400, result.status().ToString());
  if (result->rows.empty() || result->rows[0][0].is_null()) {
    return Error(404, "object not found");
  }
  const db::Value& value = result->rows[0][0];
  HttpResponse resp;
  // Rematerialise with the appropriate MIME type (paper: "rematerialise the
  // underlying objects and return them to the user's browser").
  resp.content_type = value.type() == db::DataType::kBlob
                          ? "application/octet-stream"
                          : "text/plain";
  resp.body = value.AsString();
  return resp;
}

HttpResponse ArchiveWebServer::HandleObjectPut(const HttpRequest& request,
                                               const Session& session) {
  // Small files uploaded over the Internet into BLOB/CLOB columns (paper:
  // "store small files that can be uploaded"). Guests may not write.
  if (session.user.IsGuest()) {
    return Error(403, "object upload requires an authorised account");
  }
  const xuis::XuisSpec& spec = deps_.xuis->For(session.user.name);
  const xuis::XuisTable* table =
      spec.FindTable(ParamOr(request.params, "table"));
  const xuis::XuisColumn* col =
      table == nullptr ? nullptr
                       : table->FindColumn(ParamOr(request.params, "column"));
  if (col == nullptr) return Error(404, "no such column");
  if (table->hidden || col->hidden) {
    return Error(403, "object is hidden from this interface");
  }
  if (col->type != db::DataType::kBlob &&
      col->type != db::DataType::kClob) {
    return Error(400, "column is not a BLOB/CLOB");
  }
  Result<std::string> where = PrimaryKeyPredicate(*table, request.params);
  if (!where.ok()) {
    return Error(RequestErrorStatus(where.status()),
                 where.status().ToString());
  }
  std::string value = ParamOr(request.params, "value");
  std::string sql = "UPDATE " + table->name + " SET " + col->name + " = '" +
                    ReplaceAll(value, "'", "''") + "' WHERE " + *where;
  db::ExecContext exec;
  exec.user = session.user.name;
  Result<db::QueryResult> result = ExecuteDml(sql, exec);
  if (!result.ok()) {
    // kUnavailable: primary down, nothing committed — retriable after
    // failover. kAborted: committed on the primary but below the ack
    // quorum — NOT safely retriable (a retry would double-apply). Both
    // are server-side conditions, not client errors.
    StatusCode code = result.status().code();
    int http = code == StatusCode::kUnavailable ||
                       code == StatusCode::kAborted
                   ? 503
                   : 400;
    return Error(http, result.status().ToString());
  }
  if (result->rows_affected == 0) return Error(404, "no matching row");
  HttpResponse resp;
  resp.body = PageHeader("Object stored") +
              StrPrintf("<p>%zu bytes stored in %s.%s</p>", value.size(),
                        table->name.c_str(), col->name.c_str()) +
              PageFooter();
  return resp;
}

const xuis::OperationSpec* ArchiveWebServer::FindOperation(
    const xuis::XuisSpec& spec, const std::string& name) const {
  for (const xuis::XuisTable& table : spec.tables) {
    for (const xuis::XuisColumn& col : table.columns) {
      for (const xuis::OperationSpec& op : col.operations) {
        if (op.name == name) return &op;
      }
    }
  }
  return nullptr;
}

HttpResponse ArchiveWebServer::HandleOpForm(const HttpRequest& request,
                                            const Session& session) {
  const xuis::XuisSpec& spec = deps_.xuis->For(session.user.name);
  const xuis::OperationSpec* op =
      FindOperation(spec, ParamOr(request.params, "op"));
  if (op == nullptr) return Error(404, "no such operation");
  if (session.user.IsGuest() && !op->guest_access) {
    return Error(403, "operation not available to guests");
  }
  HttpResponse resp;
  resp.body = RenderOperationForm(*op, ParamOr(request.params, "dataset"));
  return resp;
}

HttpResponse ArchiveWebServer::HandleRunOp(const HttpRequest& request,
                                           const Session& session) {
  const xuis::XuisSpec& spec = deps_.xuis->For(session.user.name);
  const xuis::OperationSpec* op =
      FindOperation(spec, ParamOr(request.params, "op"));
  if (op == nullptr) return Error(404, "no such operation");
  std::string dataset = ParamOr(request.params, "dataset");
  if (dataset.empty()) return Error(400, "missing dataset");
  fs::HttpParams op_params;
  for (const auto& [key, value] : request.params) {
    if (key != "op" && key != "dataset") op_params[key] = value;
  }
  ops::InvocationContext ctx;
  ctx.user = session.user.name;
  ctx.is_guest = session.user.IsGuest();
  ctx.session_id = session.id;
  Result<ops::OperationResult> result =
      deps_.engine->Invoke(*op, dataset, op_params, ctx);
  if (!result.ok()) {
    int status = result.status().IsPermissionDenied() ? 403 : 400;
    return Error(status, result.status().ToString());
  }
  HtmlWriter w;
  w.Raw(PageHeader("Output from " + op->name));
  w.Open("pre").Text(result->output.text).Close();
  if (!result->output_urls.empty()) {
    w.Element("p", "Output files:");
    w.Open("ul");
    for (const std::string& url : result->output_urls) {
      w.Open("li");
      w.Link(url, url);
      w.Close();
    }
    w.Close();
  }
  w.Element("p", StrPrintf("host=%s input=%s output=%s%s",
                           result->host.c_str(),
                           HumanBytes(result->input_bytes).c_str(),
                           HumanBytes(result->output_bytes).c_str(),
                           result->cache_hit ? " (cached)" : ""));
  w.Raw(PageFooter());
  HttpResponse resp;
  resp.body = w.Finish();
  return resp;
}

HttpResponse ArchiveWebServer::HandleRunChain(const HttpRequest& request,
                                              const Session& session) {
  const xuis::XuisSpec& spec = deps_.xuis->For(session.user.name);
  std::string chain_name = ParamOr(request.params, "chain");
  std::string dataset = ParamOr(request.params, "dataset");
  if (dataset.empty()) return Error(400, "missing dataset");
  // Locate the chain and its column.
  const xuis::XuisColumn* column = nullptr;
  const xuis::OperationChainSpec* chain = nullptr;
  for (const xuis::XuisTable& table : spec.tables) {
    for (const xuis::XuisColumn& col : table.columns) {
      if (const xuis::OperationChainSpec* found =
              col.FindChain(chain_name)) {
        column = &col;
        chain = found;
      }
    }
  }
  if (chain == nullptr) return Error(404, "no such operation chain");
  if (session.user.IsGuest() && !chain->guest_access) {
    return Error(403, "chain not available to guests");
  }
  std::vector<ops::ChainStep> steps;
  for (const std::string& step_name : chain->step_operations) {
    const xuis::OperationSpec* op = column->FindOperation(step_name);
    if (op == nullptr) {
      return Error(500, "chain step missing: " + step_name);
    }
    ops::ChainStep step;
    step.op = op;
    // Parameters namespaced per step: "<op>.<param>=value".
    for (const auto& [key, value] : request.params) {
      if (StartsWith(key, step_name + ".")) {
        step.params[key.substr(step_name.size() + 1)] = value;
      }
    }
    steps.push_back(std::move(step));
  }
  ops::InvocationContext ctx;
  ctx.user = session.user.name;
  ctx.is_guest = session.user.IsGuest();
  ctx.session_id = session.id;
  Result<std::vector<ops::OperationResult>> results =
      deps_.engine->InvokeChain(steps, dataset, ctx);
  if (!results.ok()) {
    int status = results.status().IsPermissionDenied() ? 403 : 400;
    return Error(status, results.status().ToString());
  }
  HtmlWriter w;
  w.Raw(PageHeader("Chain: " + chain->name));
  for (size_t i = 0; i < results->size(); ++i) {
    const ops::OperationResult& step = (*results)[i];
    w.Element("h2", StrPrintf("Step %zu: %s", i + 1,
                              chain->step_operations[i].c_str()));
    w.Open("pre").Text(step.output.text).Close();
    w.Open("ul");
    for (const std::string& url : step.output_urls) {
      w.Open("li");
      w.Link(url, url);
      w.Close();
    }
    w.Close();
  }
  w.Raw(PageFooter());
  HttpResponse resp;
  resp.body = w.Finish();
  return resp;
}

HttpResponse ArchiveWebServer::HandleUpload(const HttpRequest& request,
                                            const Session& session) {
  if (!session.user.CanUploadCode()) {
    return Error(403, "code upload is not available to guest users");
  }
  const xuis::XuisSpec& spec = deps_.xuis->For(session.user.name);
  std::string colid = ParamOr(request.params, "table") + "." +
                      ParamOr(request.params, "column");
  const xuis::XuisColumn* col = spec.FindColumnById(colid);
  if (col == nullptr) return Error(404, "no such column " + colid);
  if (!col->upload.has_value()) {
    return Error(403, "column does not accept code upload");
  }
  std::string code = ParamOr(request.params, "code");
  if (code.empty()) {
    // No code supplied: show the upload form.
    HtmlWriter w;
    w.Raw(PageHeader("Upload code"));
    w.Open("form", {{"action", "/upload"}, {"method", "post"}});
    for (const std::string& key : {"table", "column", "dataset"}) {
      w.Void("input", {{"type", "hidden"},
                       {"name", key},
                       {"value", ParamOr(request.params, key)}});
    }
    w.Element("p", "Code must accept the dataset filename as its first "
                   "command line parameter and write output to relative "
                   "filenames.");
    w.Open("textarea", {{"name", "code"}, {"rows", "20"}, {"cols", "80"}});
    w.Close();
    w.Void("br");
    w.Void("input", {{"type", "submit"}, {"value", "Upload and run"}});
    w.Close();
    w.Raw(PageFooter());
    HttpResponse resp;
    resp.body = w.Finish();
    return resp;
  }
  ops::InvocationContext ctx;
  ctx.user = session.user.name;
  ctx.is_guest = session.user.IsGuest();
  ctx.session_id = session.id;
  Result<ops::OperationResult> result = deps_.engine->RunUploadedCode(
      *col->upload, code, ParamOr(request.params, "filename", "main.ea"),
      ParamOr(request.params, "dataset"), {}, ctx);
  if (!result.ok()) {
    int status = result.status().IsPermissionDenied() ? 403 : 400;
    return Error(status, result.status().ToString());
  }
  HtmlWriter w;
  w.Raw(PageHeader("Uploaded code output"));
  w.Open("pre").Text(result->output.text).Close();
  w.Open("ul");
  for (const std::string& url : result->output_urls) {
    w.Open("li");
    w.Link(url, url);
    w.Close();
  }
  w.Close();
  w.Raw(PageFooter());
  HttpResponse resp;
  resp.body = w.Finish();
  return resp;
}

HttpResponse ArchiveWebServer::HandleJobSubmit(const HttpRequest& request,
                                               const Session& session) {
  if (deps_.jobs == nullptr) return Error(503, "job queue not configured");
  jobs::JobSpec spec;
  Result<jobs::JobKind> kind =
      jobs::JobKindFromName(ParamOr(request.params, "kind"));
  if (!kind.ok()) return Error(400, kind.status().ToString());
  spec.kind = *kind;
  spec.user = session.user.name;
  spec.is_guest = session.user.IsGuest();
  spec.session_id = session.id;
  std::string datasets = ParamOr(request.params, "dataset");
  spec.datasets = SplitAndTrim(datasets, ',');
  if (spec.datasets.empty()) return Error(400, "missing dataset");
  const xuis::XuisSpec& xspec = deps_.xuis->For(session.user.name);
  switch (spec.kind) {
    case jobs::JobKind::kInvoke:
    case jobs::JobKind::kMulti: {
      spec.operation = ParamOr(request.params, "op");
      const xuis::OperationSpec* op = FindOperation(xspec, spec.operation);
      if (op == nullptr) return Error(404, "no such operation");
      if (session.user.IsGuest() && !op->guest_access) {
        return Error(403, "operation not available to guests");
      }
      break;
    }
    case jobs::JobKind::kChain: {
      spec.operation = ParamOr(request.params, "chain");
      if (spec.operation.empty()) return Error(400, "missing chain");
      // Validate at submission (like kInvoke) so a bad chain name or a
      // guest-forbidden chain fails here, not after queueing.
      const xuis::OperationChainSpec* chain = nullptr;
      for (const xuis::XuisTable& table : xspec.tables) {
        for (const xuis::XuisColumn& col : table.columns) {
          if (const xuis::OperationChainSpec* found =
                  col.FindChain(spec.operation)) {
            chain = found;
          }
        }
      }
      if (chain == nullptr) return Error(404, "no such operation chain");
      if (session.user.IsGuest() && !chain->guest_access) {
        return Error(403, "chain not available to guests");
      }
      break;
    }
    case jobs::JobKind::kUploadedCode: {
      if (!session.user.CanUploadCode()) {
        return Error(403, "code upload is not available to guest users");
      }
      spec.operation = ParamOr(request.params, "table") + "." +
                       ParamOr(request.params, "column");
      const xuis::XuisColumn* col = xspec.FindColumnById(spec.operation);
      if (col == nullptr || !col->upload.has_value()) {
        return Error(404, "no upload column " + spec.operation);
      }
      spec.code = ParamOr(request.params, "code");
      if (spec.code.empty()) return Error(400, "missing code");
      spec.entry_filename =
          ParamOr(request.params, "filename", "main.ea");
      break;
    }
  }
  Result<int64_t> priority =
      ParseInt64(ParamOr(request.params, "priority", "0"));
  if (priority.ok()) spec.priority = static_cast<int32_t>(*priority);
  Result<int64_t> timeout =
      ParseInt64(ParamOr(request.params, "timeout", "0"));
  if (timeout.ok() && *timeout > 0) {
    spec.timeout_seconds = static_cast<double>(*timeout);
  }
  // Server-side retry ceiling: backoff caps at a minute per retry, so an
  // uncapped user-supplied budget could park a job (and its queue slot)
  // for hours.
  constexpr int64_t kMaxJobAttempts = 10;
  Result<int64_t> attempts =
      ParseInt64(ParamOr(request.params, "attempts", "3"));
  if (attempts.ok() && *attempts > 0) {
    spec.max_attempts =
        static_cast<uint32_t>(std::min(*attempts, kMaxJobAttempts));
  }
  for (const auto& [key, value] : request.params) {
    if (key == "kind" || key == "op" || key == "chain" || key == "dataset" ||
        key == "priority" || key == "timeout" || key == "attempts" ||
        key == "code" || key == "filename" || key == "table" ||
        key == "column") {
      continue;
    }
    spec.params[key] = value;
  }
  Result<jobs::Job> job = deps_.jobs->Submit(std::move(spec));
  if (!job.ok()) {
    int status = job.status().IsResourceExhausted() ? 429 : 400;
    return Error(status, job.status().ToString());
  }
  // Plain text, like /login: the caller polls /jobs/status?id=<this>.
  HttpResponse resp;
  resp.content_type = "text/plain";
  resp.body = StrPrintf("%llu", static_cast<unsigned long long>(job->id));
  return resp;
}

HttpResponse ArchiveWebServer::HandleJobStatus(const HttpRequest& request,
                                               const Session& session) {
  if (deps_.jobs == nullptr) return Error(503, "job queue not configured");
  Result<int64_t> id = ParseInt64(ParamOr(request.params, "id"));
  if (!id.ok()) return Error(400, "missing or bad job id");
  Result<jobs::Job> job =
      deps_.jobs->queue().Get(static_cast<jobs::JobId>(*id));
  if (!job.ok()) return Error(404, job.status().ToString());
  if (!session.user.CanManageUsers() &&
      job->spec.user != session.user.name) {
    return Error(403, "job belongs to another user");
  }
  HtmlWriter w;
  w.Raw(PageHeader(StrPrintf("Job %llu",
                             static_cast<unsigned long long>(job->id))));
  w.Open("table", {{"border", "1"}});
  auto row = [&w](const std::string& k, const std::string& v) {
    w.Open("tr").Element("th", k).Element("td", v).Close();
  };
  row("state", std::string(jobs::JobStateName(job->state)));
  row("kind", std::string(jobs::JobKindName(job->spec.kind)));
  row("operation", job->spec.operation);
  row("dataset", Join(job->spec.datasets, ", "));
  row("attempts", StrPrintf("%u of %u", job->attempts,
                            job->spec.max_attempts));
  row("priority", StrPrintf("%d", job->spec.priority));
  if (job->state == jobs::JobState::kRetrying) {
    row("next attempt at", StrPrintf("%.3f", job->not_before));
  }
  if (!job->error.empty()) row("error", job->error);
  w.Close();
  if (!job->progress.empty()) {
    w.Element("p", "Progress:");
    w.Open("ul");
    for (const std::string& line : job->progress) {
      w.Element("li", line);
    }
    w.Close();
  }
  if (job->state == jobs::JobState::kSucceeded) {
    if (!job->output_text.empty()) {
      w.Open("pre").Text(job->output_text).Close();
    }
    if (!job->output_urls.empty()) {
      w.Element("p", "Output files:");
      w.Open("ul");
      for (const std::string& url : job->output_urls) {
        w.Open("li");
        w.Link(url, url);
        w.Close();
      }
      w.Close();
    }
  }
  w.Raw(PageFooter());
  HttpResponse resp;
  resp.body = w.Finish();
  return resp;
}

HttpResponse ArchiveWebServer::HandleJobList(const Session& session) {
  if (deps_.jobs == nullptr) return Error(503, "job queue not configured");
  std::vector<jobs::Job> all = deps_.jobs->queue().List(
      session.user.name, session.user.CanManageUsers());
  HtmlWriter w;
  w.Raw(PageHeader("Jobs"));
  w.Open("table", {{"border", "1"}});
  w.Open("tr");
  for (const char* h : {"id", "user", "kind", "operation", "state",
                        "attempts", "outputs"}) {
    w.Element("th", h);
  }
  w.Close();
  for (const jobs::Job& job : all) {
    w.Open("tr");
    std::string id = StrPrintf("%llu",
                               static_cast<unsigned long long>(job.id));
    w.Open("td");
    w.Link(BuildUrl("/jobs/status", {{"id", id}}), id);
    w.Close();
    w.Element("td", job.spec.user);
    w.Element("td", std::string(jobs::JobKindName(job.spec.kind)));
    w.Element("td", job.spec.operation);
    w.Element("td", std::string(jobs::JobStateName(job.state)));
    w.Element("td", StrPrintf("%u", job.attempts));
    w.Element("td", StrPrintf("%zu", job.output_urls.size()));
    w.Close();
  }
  w.Close();
  w.Raw(PageFooter());
  HttpResponse resp;
  resp.body = w.Finish();
  return resp;
}

HttpResponse ArchiveWebServer::HandleJobCancel(const HttpRequest& request,
                                               const Session& session) {
  if (deps_.jobs == nullptr) return Error(503, "job queue not configured");
  Result<int64_t> id = ParseInt64(ParamOr(request.params, "id"));
  if (!id.ok()) return Error(400, "missing or bad job id");
  Result<jobs::Job> job = deps_.jobs->Cancel(
      static_cast<jobs::JobId>(*id), session.user.name,
      session.user.CanManageUsers());
  if (!job.ok()) {
    int status = job.status().IsPermissionDenied() ? 403
                 : job.status().IsNotFound()       ? 404
                                                   : 400;
    return Error(status, job.status().ToString());
  }
  HttpResponse resp;
  resp.body = PageHeader("Job cancelled") +
              StrPrintf("<p>job %llu cancelled</p>",
                        static_cast<unsigned long long>(job->id)) +
              PageFooter();
  return resp;
}

HttpResponse ArchiveWebServer::HandleStats(const Session& session) {
  (void)session;  // stats are not sensitive; any logged-in user may look
  HtmlWriter w;
  w.Raw(PageHeader("Operation statistics"));
  w.Element("p",
            StrPrintf("requests served: %llu",
                      static_cast<unsigned long long>(
                          requests_.load(std::memory_order_relaxed))));
  if (deps_.database != nullptr) {
    db::DatabaseStats ds = deps_.database->stats();
    w.Element(
        "p",
        StrPrintf("database: %llu statements, %llu queries, %llu commits, "
                  "%llu aborts, commit epoch %llu",
                  static_cast<unsigned long long>(ds.statements),
                  static_cast<unsigned long long>(ds.queries),
                  static_cast<unsigned long long>(ds.txn_commits),
                  static_cast<unsigned long long>(ds.txn_aborts),
                  static_cast<unsigned long long>(
                      deps_.database->commit_epoch())));
    const db::stats::IndexAdvisor& advisor = deps_.database->index_advisor();
    std::vector<db::stats::IndexRecommendation> recs =
        advisor.Recommendations(1);
    w.Element("p",
              StrPrintf("index advisor: %llu plans observed, %zu "
                        "recommendations",
                        static_cast<unsigned long long>(
                            advisor.total_observations()),
                        recs.size()));
    if (!recs.empty()) {
      w.Open("table", {{"border", "1"}});
      w.Open("tr");
      w.Element("th", "table");
      w.Element("th", "column");
      w.Element("th", "hits");
      w.Close();  // tr
      for (const db::stats::IndexRecommendation& rec : recs) {
        w.Open("tr");
        w.Element("td", rec.table);
        w.Element("td", rec.column);
        w.Element("td", StrPrintf("%llu",
                                  static_cast<unsigned long long>(rec.hits)));
        w.Close();  // tr
      }
      w.Close();  // table
    }
  }
  if (deps_.shard != nullptr) {
    db::shard::ShardCounters sc = deps_.shard->counters();
    w.Element(
        "p",
        StrPrintf("sharding: %zu shards, queries single %llu / scatter "
                  "%llu / gather %llu, shard scans %llu performed %llu "
                  "pruned, %llu writes, %llu row migrations",
                  deps_.shard->num_shards(),
                  static_cast<unsigned long long>(sc.queries_single),
                  static_cast<unsigned long long>(sc.queries_scatter),
                  static_cast<unsigned long long>(sc.queries_gather),
                  static_cast<unsigned long long>(sc.scanned_shards),
                  static_cast<unsigned long long>(sc.pruned_shards),
                  static_cast<unsigned long long>(sc.writes),
                  static_cast<unsigned long long>(sc.migrations)));
    w.Open("table", {{"border", "1"}});
    w.Open("tr");
    for (const char* h : {"shard", "host", "partitioned rows",
                          "commit epoch", "replicas", "max lag (epochs)"}) {
      w.Element("th", h);
    }
    w.Close();  // tr
    std::vector<db::shard::ShardInfo> shards = deps_.shard->shard_info();
    for (size_t i = 0; i < shards.size(); ++i) {
      const db::shard::ShardInfo& info = shards[i];
      w.Open("tr");
      w.Element("td", StrPrintf("%zu", i));
      w.Element("td", info.host);
      w.Element("td", StrPrintf("%zu", info.partitioned_rows));
      w.Element("td", StrPrintf("%llu", static_cast<unsigned long long>(
                                            info.commit_epoch)));
      w.Element("td", StrPrintf("%zu", info.replicas));
      w.Element("td", StrPrintf("%llu", static_cast<unsigned long long>(
                                            info.max_replica_lag)));
      w.Close();  // tr
    }
    w.Close();  // table
  }
  if (deps_.repl != nullptr) {
    w.Element("p",
              StrPrintf("replication: primary %s, %llu reads on primary, "
                        "%llu on replicas, %llu writes, %llu quorum "
                        "failures, %llu failovers",
                        deps_.repl->primary_host().c_str(),
                        static_cast<unsigned long long>(
                            deps_.repl->reads_primary()),
                        static_cast<unsigned long long>(
                            deps_.repl->reads_replica()),
                        static_cast<unsigned long long>(
                            deps_.repl->writes()),
                        static_cast<unsigned long long>(
                            deps_.repl->quorum_failures()),
                        static_cast<unsigned long long>(
                            deps_.repl->failovers())));
    w.Open("table", {{"border", "1"}});
    w.Open("tr");
    for (const char* h : {"replica", "term", "applied lsn",
                          "applied epoch", "lag (epochs)", "state"}) {
      w.Element("th", h);
    }
    w.Close();  // tr
    for (const db::repl::ReplicaInfo& info : deps_.repl->replica_info()) {
      w.Open("tr");
      w.Element("td", info.host);
      w.Element("td",
                StrPrintf("%llu", static_cast<unsigned long long>(info.term)));
      w.Element("td", StrPrintf("%llu", static_cast<unsigned long long>(
                                            info.last_applied_lsn)));
      w.Element("td", StrPrintf("%llu", static_cast<unsigned long long>(
                                            info.applied_epoch)));
      w.Element("td", StrPrintf("%llu", static_cast<unsigned long long>(
                                            info.lag_epochs)));
      w.Element("td", info.down ? "down" : "up");
      w.Close();  // tr
    }
    w.Close();  // table
  }
  if (deps_.cache != nullptr) {
    RenderCacheStats cs = deps_.cache->stats();
    w.Element(
        "p",
        StrPrintf("render cache: %llu hits, %llu misses, %llu evictions, "
                  "%llu invalidations, %zu entries (%s)",
                  static_cast<unsigned long long>(cs.hits),
                  static_cast<unsigned long long>(cs.misses),
                  static_cast<unsigned long long>(cs.evictions),
                  static_cast<unsigned long long>(cs.invalidations),
                  cs.entries, HumanBytes(cs.bytes).c_str()));
  }
  if (deps_.engine != nullptr) {
    w.Element("p",
              StrPrintf("result cache: %zu of %zu entries, %llu evictions",
                        deps_.engine->cache_size(),
                        deps_.engine->cache_capacity(),
                        static_cast<unsigned long long>(
                            deps_.engine->cache_evictions())));
    w.Open("table", {{"border", "1"}});
    w.Open("tr");
    for (const char* h : {"operation", "invocations", "cache hits",
                          "evictions", "failures", "exec seconds",
                          "input", "output"}) {
      w.Element("th", h);
    }
    w.Close();
    for (const auto& [name, stats] : deps_.engine->stats()) {
      w.Open("tr");
      w.Element("td", name);
      w.Element("td", StrPrintf("%llu", static_cast<unsigned long long>(
                                            stats.invocations)));
      w.Element("td", StrPrintf("%llu", static_cast<unsigned long long>(
                                            stats.cache_hits)));
      w.Element("td", StrPrintf("%llu", static_cast<unsigned long long>(
                                            stats.cache_evictions)));
      w.Element("td", StrPrintf("%llu", static_cast<unsigned long long>(
                                            stats.failures)));
      w.Element("td", StrPrintf("%.3f", stats.total_exec_seconds));
      w.Element("td", HumanBytes(stats.total_input_bytes));
      w.Element("td", HumanBytes(stats.total_output_bytes));
      w.Close();
    }
    w.Close();
  }
  if (deps_.jobs != nullptr) {
    w.Element("p",
              StrPrintf("jobs: %zu open, %zu running, %llu executed "
                        "(%llu ok, %llu failed, %llu retries)",
                        deps_.jobs->queue().open_count(),
                        deps_.jobs->queue().running_count(),
                        static_cast<unsigned long long>(
                            deps_.jobs->executed()),
                        static_cast<unsigned long long>(
                            deps_.jobs->succeeded()),
                        static_cast<unsigned long long>(
                            deps_.jobs->failed()),
                        static_cast<unsigned long long>(
                            deps_.jobs->retries())));
    if (deps_.jobs->journal_errors() > 0) {
      w.Element("p", StrPrintf("job journal errors: %llu",
                               static_cast<unsigned long long>(
                                   deps_.jobs->journal_errors())));
    }
  }
  if (deps_.fleet != nullptr) {
    uint64_t fs_retries = 0;
    uint64_t fs_give_ups = 0;
    for (const std::string& host : deps_.fleet->Hosts()) {
      Result<fs::FileServer*> server = deps_.fleet->GetServer(host);
      if (!server.ok()) continue;
      fs::RetryStats rs = (*server)->retry_stats();
      fs_retries += rs.retries;
      fs_give_ups += rs.give_ups;
    }
    w.Element("p",
              StrPrintf("file servers: %llu transient-error retries, "
                        "%llu give-ups",
                        static_cast<unsigned long long>(fs_retries),
                        static_cast<unsigned long long>(fs_give_ups)));
  }
  if (deps_.metrics != nullptr) {
    w.Element("h2", "Metrics");
    w.Open("table", {{"border", "1"}});
    w.Open("tr");
    for (const char* h : {"metric", "value"}) w.Element("th", h);
    w.Close();
    for (const obs::MetricSample& sample : deps_.metrics->Collect()) {
      w.Open("tr");
      w.Element("td", sample.name + obs::FormatLabels(sample.labels));
      w.Element("td", obs::MetricsRegistry::FormatValue(sample.value));
      w.Close();
    }
    w.Close();
  }
  w.Raw(PageFooter());
  HttpResponse resp;
  resp.body = w.Finish();
  return resp;
}

HttpResponse ArchiveWebServer::HandleMetrics() {
  if (deps_.metrics == nullptr) {
    return Error(503, "metrics registry not wired");
  }
  HttpResponse resp;
  resp.content_type = "text/plain; version=0.0.4";
  resp.body = deps_.metrics->RenderPrometheusText();
  return resp;
}

HttpResponse ArchiveWebServer::HandleUsers(const HttpRequest& request,
                                           const Session& session) {
  if (!session.user.CanManageUsers()) {
    return Error(403, "user management requires admin");
  }
  if (request.path == "/users/add") {
    std::string role_name = ParamOr(request.params, "role", "authorised");
    UserRole role = UserRole::kAuthorised;
    if (role_name == "guest") role = UserRole::kGuest;
    if (role_name == "admin") role = UserRole::kAdmin;
    Status s = deps_.users->AddUser(ParamOr(request.params, "user"),
                                    ParamOr(request.params, "password"),
                                    role);
    if (!s.ok()) return Error(400, s.ToString());
  } else if (request.path == "/users/remove") {
    Status s = deps_.users->RemoveUser(ParamOr(request.params, "user"));
    if (!s.ok()) return Error(400, s.ToString());
  }
  HtmlWriter w;
  w.Raw(PageHeader("User management"));
  w.Open("table", {{"border", "1"}});
  w.Open("tr");
  w.Element("th", "User").Element("th", "Role");
  w.Close();
  for (const User& user : deps_.users->ListUsers()) {
    w.Open("tr");
    w.Element("td", user.name);
    w.Element("td", std::string(UserRoleName(user.role)));
    w.Close();
  }
  w.Close();
  w.Raw(PageFooter());
  HttpResponse resp;
  resp.body = w.Finish();
  return resp;
}

}  // namespace easia::web
