// The three closed-loop workloads. One client thread issues requests
// through core::Archive; every operation is timed on the wall clock and
// its response checked against the catalogue oracle.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>

#include "bench.h"
#include "db/parser.h"
#include "probes.h"
#include "web/qbe.h"

namespace archbench {

using easia::Result;
using easia::Status;
using easia::StrPrintf;
using easia::fs::HttpParams;
using easia::web::HttpResponse;

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

namespace {

/// Thrown at the start of an operation once the run is over.
struct StopRun {};

/// Share of targets (simulations, typed prefixes) drawn from a small hot
/// set; the rest are uniform over the catalogue. Chosen so that each
/// reported route's render-cache hit ratio stays well below one half.
constexpr uint64_t kHotPercent = 30;
/// Occasional browse-session steps, and the share of sessions that log
/// out rather than being abandoned.
constexpr uint64_t kXuisPercent = 10;
constexpr uint64_t kMetricsPercent = 5;
constexpr uint64_t kLogoutPercent = 60;
/// Curate cycles per archivist login.
constexpr size_t kCyclesPerLogin = 25;

/// FNV-1a over `bytes` plus a separator, folded into `digest`.
void Fnv(uint64_t* digest, const std::string& bytes) {
  for (unsigned char c : bytes) {
    *digest ^= c;
    *digest *= 1099511628211ULL;
  }
  *digest ^= 0xff;
  *digest *= 1099511628211ULL;
}

/// Row count a rendered result table reports ("<p>N rows</p>"), or -1.
long CountRows(const std::string& body) {
  size_t at = body.rfind(" rows</p>");
  if (at == std::string::npos) return -1;
  size_t open = body.rfind("<p>", at);
  if (open == std::string::npos) return -1;
  return std::strtol(body.c_str() + open + 3, nullptr, 10);
}

/// Absolute hrefs of a page, in document order.
std::vector<std::string> Hrefs(const std::string& body) {
  std::vector<std::string> out;
  size_t at = 0;
  while ((at = body.find("href=\"http://", at)) != std::string::npos) {
    at += 6;
    size_t end = body.find('"', at);
    if (end == std::string::npos) break;
    out.push_back(easia::ReplaceAll(body.substr(at, end - at), "&amp;", "&"));
    at = end;
  }
  return out;
}

std::string PreText(const std::string& body) {
  size_t open = body.find("<pre>");
  size_t close = body.find("</pre>");
  if (open == std::string::npos || close == std::string::npos) return "";
  return body.substr(open + 5, close - open - 5);
}

bool Contains(const std::string& body, const std::string& needle) {
  return body.find(needle) != std::string::npos;
}

/// The stored form of a token URL ("http://host/dir/TOKEN;file").
std::string StripToken(const std::string& url) {
  size_t semi = url.find(';');
  if (semi == std::string::npos) return url;
  size_t slash = url.rfind('/', semi);
  return url.substr(0, slash + 1) + url.substr(semi + 1);
}

std::string Canonical(const HttpParams& params) {
  std::string out;
  for (const auto& [k, v] : params) out += k + "=" + v + "&";
  return out;
}

/// Issues, times and checks client operations; owns the run's RNG.
class Client {
 public:
  Client(Built* built, const RunOptions& options, Probes* probes,
         RunLog* log)
      : archive_(*built->archive),
        cat_(*built->catalogue),
        options_(options),
        probes_(probes),
        log_(log),
        rng_(options.seed * 0x9E3779B97F4A7C15ULL + 1),
        warmup_left_(options.warmup_ops) {
    // Skewed targets: a small hot set repeats, the tail is uniform.
    size_t n = cat_.sims().size();
    for (size_t i = 0; i < std::min<size_t>(8, n); ++i) {
      hot_.push_back(static_cast<size_t>(rng_.Uniform(n)));
    }
  }

  Archive& archive() { return archive_; }
  Catalogue& cat() { return cat_; }
  easia::Random& rng() { return rng_; }
  Probes* probes() { return probes_; }
  RunLog* log() { return log_; }

  size_t PickSim(uint64_t hot_percent) {
    if (rng_.Uniform(100) < hot_percent) {
      return hot_[rng_.Uniform(hot_.size())];
    }
    return static_cast<size_t>(rng_.Uniform(cat_.sims().size()));
  }

  bool Done() const {
    if (warmup_left_ > 0) return false;
    if (options_.max_ops > 0) return timed_ops_ >= options_.max_ops;
    return timed_ops_ > 0 && WallNow() - log_->start >= options_.seconds;
  }

  /// Times `call` as one operation. The record is completed by Check.
  template <typename Call>
  auto Time(const std::string& route, const std::string& request,
            Call&& call) -> decltype(call()) {
    if (Done()) throw StopRun();
    timed_ = warmup_left_ == 0;
    Fnv(&log_->sequence_digest, route + "?" + request);
    if (timed_ && log_->start == 0) {
      log_->cache0 = archive_.render_cache().stats();
      log_->commits0 = archive_.database().stats().txn_commits;
      log_->tokens0 = archive_.med().tokens().issued();
      log_->rejected0 = archive_.med().tokens().rejected();
      log_->jobs0 = archive_.jobs().executed();
      log_->start = WallNow();
    }
    if (timed_ && probes_ != nullptr) {
      cache_before_ = archive_.render_cache().stats();
      probes_->BeginOp();
    }
    double t0 = WallNow();
    auto result = call();
    double t1 = WallNow();
    pending_ = OpRecord{route, t1 - t0, false, 0, t0 - log_->start};
    if (timed_ && probes_ != nullptr) exclusive_ = probes_->EndOp(t0, t1);
    return result;
  }

  /// Completes the last operation's record with its check outcome.
  bool Check(bool ok, size_t bytes, const std::string& what) {
    pending_.ok = ok;
    pending_.body_bytes = bytes;
    ++log_->attempted;
    if (!ok) {
      ++log_->failed;
      if (log_->failures.size() < 8) {
        log_->failures.push_back(pending_.route + ": " + what);
      }
    }
    if (!timed_) {
      --warmup_left_;
      return ok;
    }
    log_->ops.push_back(pending_);
    ++timed_ops_;
    if (timed_ops_ == options_.rss_cap_ops) log_->rss_mb_at_cap = PeakRssMb();
    if (probes_ != nullptr) Attribute();
    return ok;
  }

  /// Adds replayed in-request work to the route of the last operation:
  /// the web layer's own query translation, or a child layer's work.
  void AddReplay(const std::string& counter, double seconds) {
    if (!timed_ || probes_ == nullptr) return;
    RouteTrace& rt = log_->routes[pending_.route];
    (counter == "web.translate" ? rt.replay_web : rt.replay_child) += seconds;
  }
  bool traced() const { return timed_ && probes_ != nullptr; }

  /// Times a replay of a pure function on the operation's inputs.
  template <typename Fn>
  double Replay(const std::string& counter, Fn&& fn) {
    probes_->BeginReplay();
    double t0 = WallNow();
    fn();
    double seconds = WallNow() - t0;
    double fs = probes_->EndReplay();
    probes_->Count(counter, seconds - fs);
    probes_->Count(counter + "_total", seconds);
    return seconds - fs;
  }

  /// Replays db::ParseSql on an issued statement (traced runs).
  void ReplayParse(const std::string& sql) {
    if (!traced()) return;
    AddReplay("db.parse",
              Replay("db.parse", [&] { (void)easia::db::ParseSql(sql); }));
  }

  /// EXPLAIN ANALYZE once per statement shape: rows examined per row out.
  void Shape(const std::string& shape, const std::string& sql) {
    if (!traced()) return;
    ShapeTrace& s = log_->shapes[shape];
    if (s.occurrences++ > 0) return;
    easia::db::ExecContext ctx;
    ctx.resolve_datalinks = false;
    Result<easia::db::QueryResult> plan =
        archive_.database().Execute("EXPLAIN ANALYZE " + sql, ctx);
    if (!plan.ok()) return;
    double examined = 0;
    double out_rows = 0;
    for (const easia::db::Row& row : plan->rows) {
      std::string line = row[0].AsString();
      if (line.rfind("scan ", 0) == 0) {
        if (Contains(line, ": seq scan")) {
          std::string table = line.substr(5, line.find(' ', 5) - 5);
          Result<const easia::db::Table*> t =
              archive_.database().GetTable(table);
          if (t.ok()) examined += (*t)->GetStorageStats().rows;
        } else {
          size_t at = line.find("actual rows=");
          if (at != std::string::npos) {
            examined += std::strtod(line.c_str() + at + 12, nullptr);
          }
        }
      } else if (line.rfind("total: ", 0) == 0) {
        out_rows = std::strtod(line.c_str() + 7, nullptr);
      }
    }
    s.examined_per_row = examined / std::max(1.0, out_rows);
  }

  // --- Operations -------------------------------------------------------

  bool Login(const std::string& user, const std::string& password,
             std::string* sid) {
    Result<std::string> r = Time("login", user, [&] {
      return archive_.Login(user, password);
    });
    if (r.ok()) *sid = *r;
    return Check(r.ok(), 0, r.status().ToString());
  }

  /// GET through the web front end; returns the response after checking
  /// the status code (the caller checks the body).
  HttpResponse Get(const std::string& sid, const std::string& path,
                   const HttpParams& params) {
    return Time(path, Canonical(params),
                [&] { return archive_.Get(sid, path, params); });
  }

  bool Page(const std::string& sid, const std::string& path,
            const HttpParams& params, const std::string& needle) {
    HttpResponse r = Get(sid, path, params);
    return Check(r.ok() && Contains(r.body, needle), r.body.size(),
                 StrPrintf("status %d", r.status));
  }

  /// /browse with a row-count check; returns the page body.
  std::string Browse(const std::string& sid, const std::string& table,
                     const std::string& column, const std::string& value,
                     long expect_rows) {
    HttpParams params = {
        {"table", table}, {"column", column}, {"value", value}};
    HttpResponse r = Get(sid, "/browse", params);
    long rows = CountRows(r.body);
    Check(r.ok() && rows == expect_rows, r.body.size(),
          StrPrintf("%s.%s=%s: status %d, %ld rows (want %ld)", table.c_str(),
                    column.c_str(), value.c_str(), r.status, rows,
                    expect_rows));
    if (traced()) {
      std::string sql;
      AddReplay("web.translate", Replay("web.translate", [&] {
        Result<std::string> s = easia::web::BrowseSql(
            archive_.xuis().For(user_of_last_login_), table, column, value);
        if (s.ok()) sql = *s;
      }));
      ReplayParse(sql);
      Shape("browse " + table + "." + column, sql);
    }
    return r.body;
  }

  /// /search with a QBE request and an oracle row count.
  std::string Search(const std::string& sid,
                     const easia::web::QbeRequest& qbe, long expect_rows,
                     const std::string& shape) {
    HttpParams params = {{"table", qbe.table}};
    for (const easia::web::QbeRestriction& r : qbe.restrictions) {
      params["value." + r.column] = r.value;
      if (!r.op.empty()) params["op." + r.column] = r.op;
    }
    if (!qbe.order_by.empty()) params["orderby"] = qbe.order_by;
    if (qbe.descending) params["desc"] = "1";
    HttpResponse r = Get(sid, "/search", params);
    long rows = CountRows(r.body);
    Check(r.ok() && rows == expect_rows, r.body.size(),
          StrPrintf("%s: status %d, %ld rows (want %ld)", shape.c_str(),
                    r.status, rows, expect_rows));
    if (traced()) {
      std::string sql;
      AddReplay("web.translate", Replay("web.translate", [&] {
        Result<std::string> s = easia::web::TranslateToSql(
            archive_.xuis().For(user_of_last_login_), qbe);
        if (s.ok()) sql = *s;
      }));
      ReplayParse(sql);
      Shape("search " + shape, sql);
    }
    return r.body;
  }

  void Typeahead(const std::string& sid, const std::string& prefix) {
    HttpParams params = {{"table", "SIMULATION"},
                         {"column", "TITLE"},
                         {"prefix", prefix},
                         {"limit", "10"}};
    HttpResponse r = Get(sid, "/typeahead", params);
    long want = static_cast<long>(
        std::min<size_t>(10, cat_.CountTitlePrefix(prefix)));
    long got =
        static_cast<long>(std::count(r.body.begin(), r.body.end(), '\n'));
    Check(r.ok() && got == want &&
              (want == 0 || r.body.rfind(prefix, 0) == 0),
          r.body.size(),
          StrPrintf("prefix '%s': status %d, %ld completions (want %ld)",
                    prefix.c_str(), r.status, got, want));
    std::string sql =
        "SELECT DISTINCT TITLE FROM SIMULATION WHERE TITLE LIKE " +
        SqlQuoted(prefix + "%") + " ORDER BY TITLE LIMIT 10";
    ReplayParse(sql);
    Shape("typeahead SIMULATION.TITLE", sql);
  }

  /// /object of a simulation's DESCRIPTION CLOB; the body must be the
  /// stored text.
  void Clob(const std::string& sid, const SimModel& sim) {
    HttpParams params = {{"table", "SIMULATION"},
                         {"column", "DESCRIPTION"},
                         {"pk0.SIMULATION_KEY", sim.key}};
    HttpResponse r = Get(sid, "/object", params);
    Check(r.ok() && r.body == sim.description, r.body.size(),
          StrPrintf("%s: status %d, %zu bytes (want %zu)", sim.key.c_str(),
                    r.status, r.body.size(), sim.description.size()));
    ReplayParse("SELECT DESCRIPTION FROM SIMULATION WHERE SIMULATION_KEY = " +
                SqlQuoted(sim.key));
  }

  /// Downloads a token URL and checks the bytes moved match the file's
  /// stat size on its host. `identity` stands for the URL in the request
  /// digest where the URL itself is not stable across runs.
  void Download(const std::string& url, const std::string& route = "download",
                const std::string& identity = "") {
    Result<double> r = Time(route, identity.empty() ? url : identity, [&] {
      return archive_.Download(url, kClientHost);
    });
    bool ok = r.ok();
    std::string what = r.status().ToString();
    if (ok) {
      uint64_t moved = archive_.network().history().back().bytes;
      Result<std::pair<easia::fs::FileServer*, easia::fs::FileUrl>> res =
          archive_.fleet().Resolve(url);
      Result<easia::fs::FileStat> stat =
          res.ok() ? res->first->vfs().Stat(res->second.path)
                   : Result<easia::fs::FileStat>(res.status());
      ok = stat.ok() && stat->size == moved && *r > 0;
      what = StrPrintf("moved %llu bytes",
                       static_cast<unsigned long long>(moved));
      if (ok && timed_) log_->download_sim_seconds.push_back(*r);
    }
    Check(ok, 0, what);
  }

  void Logout(const std::string& sid) {
    Page(sid, "/logout", {}, "Logged out");
  }

  std::string user_of_last_login_;

 private:
  void Attribute() {
    RouteTrace& rt = log_->routes[pending_.route];
    ++rt.n;
    rt.total += pending_.seconds;
    if (rt.seams.empty()) rt.seams.assign(exclusive_.size(), 0.0);
    for (size_t i = 0; i < exclusive_.size(); ++i) rt.seams[i] += exclusive_[i];
    // Render-cache hits and lookups of this request, from the cache's
    // counters: the archive's own span ring stays as the untraced run
    // leaves it.
    easia::web::RenderCacheStats cache = archive_.render_cache().stats();
    rt.cache_hits += cache.hits - cache_before_.hits;
    rt.cache_lookups += (cache.hits + cache.misses) -
                        (cache_before_.hits + cache_before_.misses);
  }

  Archive& archive_;
  Catalogue& cat_;
  RunOptions options_;
  Probes* probes_;
  RunLog* log_;
  easia::Random rng_;
  size_t warmup_left_;
  size_t timed_ops_ = 0;
  bool timed_ = false;
  OpRecord pending_;
  easia::web::RenderCacheStats cache_before_;
  std::vector<double> exclusive_;
  std::vector<size_t> hot_;
};

struct Login {
  std::string user;
  std::string password;
};

std::string SessionLogin(Client& d, const Login& who) {
  std::string sid;
  d.user_of_last_login_ = who.user;
  if (!d.Login(who.user, who.password, &sid)) throw StopRun();
  return sid;
}

/// A typed-prefix for /typeahead: a few short hot prefixes, or a longer
/// prefix of one simulation's title (rarely repeated).
std::string TypedPrefix(Client& d, const SimModel& sim, uint64_t hot_percent) {
  if (d.rng().Uniform(100) < hot_percent) {
    const std::string& flow = d.cat().flows()[d.rng().Uniform(4)];
    return flow.substr(0, 1 + d.rng().Uniform(3));
  }
  size_t len = sim.flow.size() + 5 + d.rng().Uniform(6);
  return sim.title.substr(0, std::min(len, sim.title.size()));
}

easia::web::QbeRequest KeySearch(const SimModel& sim) {
  easia::web::QbeRequest qbe;
  qbe.table = "SIMULATION";
  qbe.restrictions.push_back({"SIMULATION_KEY", "=", sim.key});
  return qbe;
}

// --- browse ----------------------------------------------------------------

/// One browse session; every step runs once, in the order of the paper's
/// interface, apart from the occasional /xuis and /metrics and the logout.
void BrowseSession(Client& d, size_t session) {
  easia::Random& rng = d.rng();
  Catalogue& cat = d.cat();
  // Sessions take the users in turn; bob has a personal XUIS.
  static const Login kUsers[] = {{"guest", "guest"},
                                 {"alice", "alice-pw"},
                                 {"carol", "carol-pw"},
                                 {"bob", "bob-pw"}};
  const Login& who = kUsers[session % 4];
  bool guest = who.user == "guest";
  std::string sid = SessionLogin(d, who);
  d.Page(sid, "/tables", {}, "Query");
  d.Page(sid, "/query", {{"table", "SIMULATION"}}, "SIMULATION_KEY");

  const SimModel& sim = cat.sims()[d.PickSim(kHotPercent)];
  {
    // Key equality, a '*' wildcard, a numeric range and ORDER BY: the
    // author's runs of the same flow above half this run's Reynolds number.
    easia::web::QbeRequest qbe;
    qbe.table = "SIMULATION";
    double threshold = 100.0 * std::floor(sim.reynolds / 200.0);
    qbe.restrictions.push_back({"AUTHOR_KEY", "=", sim.author_key});
    qbe.restrictions.push_back({"TITLE", "=", sim.flow + "*"});
    qbe.restrictions.push_back(
        {"REYNOLDS_NUMBER", ">=", StrPrintf("%.0f", threshold)});
    qbe.order_by = "REYNOLDS_NUMBER";
    qbe.descending = session % 2 == 1;
    d.Search(sid, qbe,
             static_cast<long>(
                 cat.CountSearch(sim.author_key, sim.flow, threshold)),
             "author+wildcard+range");
  }
  // PK and FK walks: SIMULATION -> RESULT_FILE -> AUTHOR.
  d.Browse(sid, "SIMULATION", "SIMULATION_KEY", sim.key, 1);
  std::string files = d.Browse(sid, "RESULT_FILE", "SIMULATION_KEY", sim.key,
                               static_cast<long>(sim.rows.size()));
  d.Browse(sid, "AUTHOR", "AUTHOR_KEY", sim.author_key, 1);
  d.Typeahead(sid, TypedPrefix(d, sim, kHotPercent));
  d.Clob(sid, sim);
  if (!guest) {
    std::vector<std::string> hrefs = Hrefs(files);
    if (hrefs.empty()) {
      d.Time("download", "none", [] { return 0; });
      d.Check(false, 0, "no DATALINK href on the RESULT_FILE page");
    } else {
      d.Download(hrefs[rng.Uniform(hrefs.size())]);
    }
  }
  if (rng.Uniform(100) < kXuisPercent) d.Page(sid, "/xuis", {}, "<xuis");
  if (rng.Uniform(100) < kMetricsPercent) {
    d.Page(sid, "/metrics", {}, "easia_http_requests_total");
  }
  if (rng.Uniform(100) < kLogoutPercent) d.Logout(sid);  // else abandoned
}

// --- curate ----------------------------------------------------------------

class Curator {
 public:
  explicit Curator(Client& d) : d_(d), cat_(d.cat()) {}

  /// One cycle runs every curation operation once on one simulation.
  void Cycle() {
    if (sid_.empty() || cycles_ % kCyclesPerLogin == 0) {
      sid_ = SessionLogin(d_, {"dana", "dana-pw"});
    }
    ++cycles_;
    size_t index = d_.PickSim(kHotPercent);
    SimModel& sim = cat_.sims()[index];
    // Find the simulation the way an archivist would.
    d_.Typeahead(sid_, TypedPrefix(d_, sim, 0));
    d_.Search(sid_, KeySearch(sim), 1, "key");
    Ingest(index, sim);
    Retire(sim);
    Relink(sim);
    Edit(sim);
    PutDescription(sim);
    Restrict(sim);
  }

 private:
  easia::fs::FileServer* Server(size_t host) {
    return *d_.archive().fleet().GetServer(kHosts[host]);
  }

  /// A DML statement as the archivist; times the statement itself too.
  Result<easia::db::QueryResult> Dml(const std::string& sql) {
    double t0 = WallNow();
    Result<easia::db::QueryResult> r = d_.archive().Execute(sql, "dana");
    if (d_.traced()) {
      d_.log()->dml_statement_seconds += WallNow() - t0;
      ++d_.log()->dml_statements;
    }
    return r;
  }

  void PointSelect(const std::string& file, const SimModel& sim) {
    if (!d_.traced()) return;
    std::string sql = "SELECT * FROM RESULT_FILE WHERE FILE_NAME = " +
                      SqlQuoted(file) + " AND SIMULATION_KEY = " +
                      SqlQuoted(sim.key);
    easia::db::ExecContext ctx;
    ctx.resolve_datalinks = false;
    double t0 = WallNow();
    (void)d_.archive().database().Execute(sql, ctx);
    d_.log()->point_select_seconds += WallNow() - t0;
    ++d_.log()->point_selects;
  }

  std::string WhereRow(const std::string& file, const SimModel& sim) {
    return " WHERE FILE_NAME = " + SqlQuoted(file) + " AND SIMULATION_KEY = " +
           SqlQuoted(sim.key);
  }

  static std::string FileOf(const RowModel& row) {
    return row.path.substr(row.path.rfind('/') + 1);
  }

  /// Archive a new timestep: write the file on its host, then INSERT the
  /// RESULT_FILE row with its DATALINK.
  void Ingest(size_t index, SimModel& sim) {
    uint32_t t = sim.next_timestep;
    RowModel row;
    row.host = (index + t) % kNumHosts;
    row.path = "/archive/" + sim.key + "/" + Catalogue::FileName(sim, t, 0);
    row.measurement = "u,v,w,p";
    std::string file = FileOf(row);
    std::string sql = StrPrintf(
        "INSERT INTO RESULT_FILE (FILE_NAME, SIMULATION_KEY, TIMESTEP, "
        "MEASUREMENT, FILE_FORMAT, FILE_SIZE, DOWNLOAD_RESULT) VALUES (%s, "
        "%s, %u, %s, 'TBF', %llu, %s)",
        SqlQuoted(file).c_str(), SqlQuoted(sim.key).c_str(), t,
        SqlQuoted(row.measurement).c_str(),
        static_cast<unsigned long long>(sim.file_bytes),
        SqlQuoted(cat_.Url(row)).c_str());
    Status s = d_.Time("ingest", file, [&] {
      Status w = Server(row.host)->storage().CreateSparseFile(row.path,
                                                             sim.file_bytes);
      if (!w.ok()) return w;
      return Dml(sql).status();
    });
    if (!d_.Check(s.ok(), 0, s.ToString())) return;
    d_.ReplayParse(sql);
    sim.next_timestep = t + 1;
    sim.rows.emplace(t, row);
    std::string page = ReadBack(sim);
    // Verify the new dataset is downloadable by token.
    for (const std::string& href : Hrefs(page)) {
      if (href.size() > file.size() &&
          href.compare(href.size() - file.size(), file.size(), file) == 0) {
        d_.Download(href);
        return;
      }
    }
    d_.Time("download", file, [] { return 0; });
    d_.Check(false, 0, "ingested row has no DATALINK href");
  }

  /// Retire the oldest dataset: DELETE by PK (ON UNLINK RESTORE leaves
  /// the file unpinned), then remove the file from its host.
  void Retire(SimModel& sim) {
    if (sim.rows.size() <= 1) return;
    auto oldest = sim.rows.begin();
    RowModel row = oldest->second;
    std::string file = FileOf(row);
    std::string sql = "DELETE FROM RESULT_FILE" + WhereRow(file, sim);
    Result<easia::db::QueryResult> r =
        d_.Time("retire", file, [&] { return Dml(sql); });
    bool ok = r.ok() && r->rows_affected == 1;
    if (ok) {
      Status rm = Server(row.host)->storage().DeleteFile(row.path);
      ok = rm.ok();  // unpinned by RESTORE, so deletable
    }
    if (!d_.Check(ok, 0, r.status().ToString())) return;
    d_.ReplayParse(sql);
    PointSelect(file, sim);
    sim.rows.erase(oldest);
    ReadBackCheck(ReadBack(sim), ">" + file, false);
  }

  /// Relink a dataset to a moved file: write it on another host, UPDATE
  /// the DATALINK by PK (unlink + link), remove the old copy.
  void Relink(SimModel& sim) {
    auto it = std::next(sim.rows.begin(), d_.rng().Uniform(sim.rows.size()));
    RowModel moved = it->second;
    std::string file = FileOf(moved);
    moved.host = (moved.host + 1) % kNumHosts;
    moved.path = (moved.path.rfind("/archive/", 0) == 0 ? "/moved/"
                                                          : "/archive/") +
                 sim.key + "/" + file;
    std::string sql = "UPDATE RESULT_FILE SET DOWNLOAD_RESULT = " +
                      SqlQuoted(cat_.Url(moved)) + WhereRow(file, sim);
    const RowModel old = it->second;
    Result<easia::db::QueryResult> r = d_.Time("relink", file, [&] {
      Status w = Server(moved.host)->storage().CreateSparseFile(
          moved.path, sim.file_bytes);
      if (!w.ok()) return Result<easia::db::QueryResult>(w);
      Result<easia::db::QueryResult> u = Dml(sql);
      if (u.ok()) {
        Status rm = Server(old.host)->storage().DeleteFile(old.path);
        if (!rm.ok()) return Result<easia::db::QueryResult>(rm);
      }
      return u;
    });
    if (!d_.Check(r.ok() && r->rows_affected == 1, 0, r.status().ToString())) {
      return;
    }
    d_.ReplayParse(sql);
    PointSelect(file, sim);
    it->second = moved;
    std::string page = ReadBack(sim);
    std::string url = cat_.Url(moved);
    bool linked = false;
    for (const std::string& href : Hrefs(page)) {
      linked = linked || StripToken(href) == url;
    }
    ReadBackCheck(linked ? url : "", url, true);
  }

  /// Edit metadata: UPDATE a non-key column by PK.
  void Edit(SimModel& sim) {
    auto it = std::next(sim.rows.begin(), d_.rng().Uniform(sim.rows.size()));
    std::string file = FileOf(it->second);
    std::string value = StrPrintf("u,v,w,p rev%zu", ++revisions_);
    std::string sql = "UPDATE RESULT_FILE SET MEASUREMENT = " +
                      SqlQuoted(value) + WhereRow(file, sim);
    Result<easia::db::QueryResult> r =
        d_.Time("edit", file, [&] { return Dml(sql); });
    if (!d_.Check(r.ok() && r->rows_affected == 1, 0, r.status().ToString())) {
      return;
    }
    d_.ReplayParse(sql);
    PointSelect(file, sim);
    it->second.measurement = value;
    ReadBackCheck(ReadBack(sim), value, true);
  }

  /// Edit metadata: /object/put a new CLOB description.
  void PutDescription(SimModel& sim) {
    std::string value = sim.description.substr(0, 80) +
                        StrPrintf(" Revision %zu.", ++revisions_);
    HttpParams params = {{"table", "SIMULATION"},
                         {"column", "DESCRIPTION"},
                         {"pk0.SIMULATION_KEY", sim.key},
                         {"value", value}};
    HttpResponse r = d_.Get(sid_, "/object/put", params);
    if (!d_.Check(r.ok(), r.body.size(), StrPrintf("status %d", r.status))) {
      return;
    }
    sim.description = value;
    // The CLOB itself must read back as written (a lost write or a stale
    // cached page fails here); the browse checks the row is still there.
    d_.Clob(sid_, sim);
    d_.Browse(sid_, "SIMULATION", "SIMULATION_KEY", sim.key, 1);
  }

  /// Deleting a simulation that still has datasets must be refused.
  void Restrict(const SimModel& sim) {
    std::string sql =
        "DELETE FROM SIMULATION WHERE SIMULATION_KEY = " + SqlQuoted(sim.key);
    Result<easia::db::QueryResult> r =
        d_.Time("restrict", sim.key, [&] { return Dml(sql); });
    d_.Check(!r.ok() && r.status().IsConstraintViolation(), 0,
             r.ok() ? "delete was not refused" : r.status().ToString());
    d_.ReplayParse(sql);
    d_.Browse(sid_, "SIMULATION", "SIMULATION_KEY", sim.key, 1);
  }

  /// Reads a changed dataset back through the simulation's dataset list
  /// (the FK browse, which also checks the live row count).
  std::string ReadBack(const SimModel& sim) {
    return d_.Browse(sid_, "RESULT_FILE", "SIMULATION_KEY", sim.key,
                     static_cast<long>(sim.rows.size()));
  }

  /// A read-back must show the written value, or no longer show a removed
  /// one (a second check on the /browse already recorded).
  void ReadBackCheck(const std::string& page, const std::string& needle,
                     bool present) {
    if (Contains(page, needle) == present) return;
    ++d_.log()->failed;
    if (d_.log()->failures.size() < 8) {
      d_.log()->failures.push_back(
          (present ? "read-back lacks " : "read-back still shows ") + needle);
    }
  }

  Client& d_;
  Catalogue& cat_;
  std::string sid_;
  size_t cycles_ = 0;
  size_t revisions_ = 0;
};

// --- analyse ---------------------------------------------------------------

constexpr const char* kUploadCode = R"EA(let f = arg(0);
let n = tbf_n(f);
let s = tbf_slice(f, "z", n / 2, "w");
let total = 0;
for (let j = 0; j < len(s); j = j + 1) { total = total + s[j]; }
write("mean_w.txt", str(total / len(s)));
print("mean w on the mid z-plane: " + str(total / len(s)));
)EA";

const easia::xuis::OperationSpec* FindOp(const easia::xuis::XuisSpec& spec,
                                         const std::string& name) {
  for (const easia::xuis::XuisTable& table : spec.tables) {
    for (const easia::xuis::XuisColumn& col : table.columns) {
      for (const easia::xuis::OperationSpec& op : col.operations) {
        if (op.name == name) return &op;
      }
    }
  }
  return nullptr;
}

class Analyst {
 public:
  explicit Analyst(Client& d) : d_(d), cat_(d.cat()) {}

  /// One session of the authorised user alice runs every step once on one
  /// dataset.
  void Session() {
    user_ = "alice";
    sid_ = SessionLogin(d_, {"alice", "alice-pw"});
    size_t index = d_.rng().Uniform(cat_.sims().size());
    const SimModel& sim = cat_.sims()[index];
    d_.Typeahead(sid_, sim.flow);
    {
      easia::web::QbeRequest qbe;
      qbe.table = "RESULT_FILE";
      uint32_t from = static_cast<uint32_t>(d_.rng().Uniform(sim.rows.size()));
      qbe.restrictions.push_back({"SIMULATION_KEY", "=", sim.key});
      qbe.restrictions.push_back({"TIMESTEP", ">=", StrPrintf("%u", from)});
      qbe.order_by = "TIMESTEP";
      d_.Search(sid_, qbe, static_cast<long>(sim.rows.size() - from),
                "datasets");
    }
    std::string page = d_.Browse(sid_, "RESULT_FILE", "SIMULATION_KEY",
                                 sim.key, static_cast<long>(sim.rows.size()));
    std::vector<std::string> datasets = Hrefs(page);
    if (datasets.size() != sim.rows.size()) {
      d_.Time("download", "none", [] { return 0; });
      d_.Check(false, 0, "dataset hrefs missing from the browse page");
      return;
    }
    const std::string& dataset = datasets[d_.rng().Uniform(datasets.size())];
    // The native suite, and the EaScript GetImage where the archive
    // attaches it (the first simulation's datasets).
    for (const char* op :
         {"FieldStats", "KineticEnergy", "SliceCsv", "Subsample"}) {
      RunOp(op, dataset);
    }
    if (index == 0) RunOp("GetImage", dataset);
    // Operation outputs are far smaller than the 1 MB datasets, so their
    // downloads are a route of their own and download_p50_ms stays a
    // dataset figure. An output URL names a numbered temp dir, and the
    // traced run's operation replays take numbers too, so the request
    // digest names the output by the operation that made it.
    d_.Download(dataset);
    if (!last_output_url_.empty()) {
      d_.Download(last_output_url_, "output_download", last_output_key_);
    }
    Upload(dataset);
    Job(datasets, false);
    Job(datasets, true);
    d_.Logout(sid_);
  }

 private:
  HttpParams ParamsFor(const std::string& op) {
    HttpParams params;
    size_t n = cat_.shape().grid_n;
    if (op == "SliceCsv" || op == "GetImage") {
      params["slice"] = StrPrintf("x%zu", (n / 8) * d_.rng().Uniform(8));
      params["type"] = std::string(1, "uvwp"[d_.rng().Uniform(4)]);
    } else if (op == "Subsample") {
      params["factor"] = d_.rng().OneIn(2) ? "2" : "4";
    }
    return params;
  }

  static const char* Marker(const std::string& op) {
    if (op == "FieldStats") return "min=";
    if (op == "KineticEnergy") return "E=";
    if (op == "SliceCsv") return "SliceCsv";
    if (op == "Subsample") return "Subsample";
    return "GetImage";
  }

  /// Same (operation, dataset, parameters) must give the same output.
  bool Consistent(const std::string& key, const std::string& text) {
    uint64_t h = 1469598103934665603ULL;
    Fnv(&h, text);
    Fnv(&d_.log()->output_digest, key + "\n" + text);
    auto [it, inserted] = outputs_.emplace(key, h);
    return inserted || it->second == h;
  }

  void RunOp(const std::string& op, const std::string& dataset) {
    d_.Page(sid_, "/opform", {{"op", op}, {"dataset", dataset}},
            "Operation: " + op);
    HttpParams params = ParamsFor(op);
    HttpParams request = params;
    request["op"] = op;
    request["dataset"] = dataset;
    HttpResponse r = d_.Get(sid_, "/runop", request);
    std::string text = PreText(r.body);
    std::vector<std::string> outputs = Hrefs(r.body);
    std::string key = op + " " + StripToken(dataset) + " " + Canonical(params);
    bool ok = r.ok() && Contains(text, Marker(op)) && !outputs.empty() &&
              Consistent(key, text);
    d_.Check(ok, r.body.size(),
             StrPrintf("%s: status %d", op.c_str(), r.status));
    if (ok) {
      last_output_url_ = outputs[0];
      last_output_key_ = key;
    }
    if (d_.traced()) {
      const easia::xuis::OperationSpec* spec =
          FindOp(d_.archive().xuis().For(user_), op);
      if (spec == nullptr) return;
      easia::ops::InvocationContext ctx;
      ctx.user = user_;
      ctx.is_guest = false;
      ctx.session_id = sid_;
      Result<easia::ops::OperationResult> replay =
          Status::Internal("not run");
      double seconds = d_.Replay("ops.invoke", [&] {
        replay = d_.archive().engine().Invoke(*spec, dataset, params, ctx);
      });
      d_.AddReplay("ops.invoke", seconds);
      if (replay.ok()) {
        d_.probes()->Count("ops.input_bytes",
                           static_cast<double>(replay->input_bytes));
        d_.probes()->Count("ops.output_bytes",
                           static_cast<double>(replay->output_bytes));
        if (spec->type == "EASCRIPT") {
          d_.probes()->Count("script.run", seconds);
          d_.probes()->Count("script.steps",
                             static_cast<double>(replay->script_steps));
        }
      }
    }
  }

  void Upload(const std::string& dataset) {
    HttpParams request = {{"table", "RESULT_FILE"},
                          {"column", "DOWNLOAD_RESULT"},
                          {"dataset", dataset},
                          {"code", kUploadCode}};
    HttpResponse r = d_.Get(sid_, "/upload", request);
    std::string text = PreText(r.body);
    bool ok = r.ok() && Contains(text, "mean w on the mid z-plane") &&
              Consistent("upload " + StripToken(dataset), text);
    d_.Check(ok, r.body.size(), StrPrintf("status %d", r.status));
    if (!d_.traced()) return;
    const easia::xuis::XuisColumn* col =
        d_.archive().xuis().For(user_).FindColumnById(
            "RESULT_FILE.DOWNLOAD_RESULT");
    if (col == nullptr || !col->upload.has_value()) return;
    easia::ops::InvocationContext ctx;
    ctx.user = user_;
    ctx.is_guest = false;
    ctx.session_id = sid_;
    Result<easia::ops::OperationResult> replay = Status::Internal("not run");
    double seconds = d_.Replay("script.run", [&] {
      replay = d_.archive().engine().RunUploadedCode(
          *col->upload, kUploadCode, "main.ea", dataset, {}, ctx);
    });
    d_.AddReplay("script.run", seconds);
    if (replay.ok()) {
      d_.probes()->Count("script.steps",
                         static_cast<double>(replay->script_steps));
    }
  }

  /// Submit -> run (deterministic drain on the client thread) -> status.
  /// A multi job runs over three datasets, so it is timed as a route of
  /// its own and job_p50_ms stays a single-dataset figure.
  void Job(const std::vector<std::string>& datasets, bool multi) {
    HttpParams submit;
    if (!multi) {
      submit = {{"kind", "op"},
                {"op", d_.rng().OneIn(2) ? "FieldStats" : "KineticEnergy"},
                {"dataset", datasets[d_.rng().Uniform(datasets.size())]}};
    } else {
      size_t first = d_.rng().Uniform(datasets.size() - 2);
      submit = {{"kind", "multi"},
                {"op", "KineticEnergy"},
                {"dataset", datasets[first] + "," + datasets[first + 1] +
                                "," + datasets[first + 2]}};
    }
    std::string key = submit["kind"] + " " + submit["op"];
    for (const std::string& ds : easia::SplitAndTrim(submit["dataset"], ',')) {
      key += " " + StripToken(ds);
    }
    HttpResponse status =
        d_.Time(multi ? "job_multi" : "job", Canonical(submit), [&] {
          HttpResponse s = d_.archive().Get(sid_, "/jobs/submit", submit);
          if (!s.ok()) return s;
          d_.archive().jobs().RunPending();
          return d_.archive().Get(sid_, "/jobs/status", {{"id", s.body}});
        });
    std::string text = PreText(status.body);
    bool ok = status.ok() && Contains(status.body, "<td>succeeded</td>") &&
              (multi ? Contains(text, "3 datasets") &&
                           Hrefs(status.body).size() == 3
                     : Contains(text, Marker(submit["op"]))) &&
              Consistent(key, text);
    d_.Check(ok, status.body.size(), StrPrintf("status %d", status.status));
  }

  Client& d_;
  Catalogue& cat_;
  std::string user_;
  std::string sid_;
  std::string last_output_url_;
  std::string last_output_key_;
  std::map<std::string, uint64_t> outputs_;
};

}  // namespace

RunLog RunWorkload(const std::string& workload, Built* built,
                   const RunOptions& options, Probes* probes) {
  RunLog log;
  Client d(built, options, probes, &log);
  try {
    if (workload == "browse") {
      for (size_t session = 0;; ++session) BrowseSession(d, session);
    } else if (workload == "curate") {
      Curator curator(d);
      for (;;) curator.Cycle();
    } else {
      Analyst analyst(d);
      for (;;) analyst.Session();
    }
  } catch (const StopRun&) {
  }
  log.end = WallNow();
  return log;
}

}  // namespace archbench
