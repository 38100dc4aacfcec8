// archbench: end-to-end benchmark of the EASIA archive through
// core::Archive, timed on the wall clock, with an optional traced run
// that splits each request across the archive's layers. See README.md.
//
//   archbench --workload browse|curate|analyse --seed N --seconds S
//             --trace 0|1 --work-dir DIR [--max-ops N] [--rev REV]
//
// The last line of standard output is the result object.
#include <malloc.h>
#include <sys/statfs.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>

#include "bench.h"
#include "common/string_util.h"
#include "probes.h"

namespace archbench {
namespace {

using easia::StrPrintf;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
  size_t max_ops = 0;
  std::string rev = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    std::string v = argv[i + 1];
    if (k == "--workload") {
      args->workload = v;
    } else if (k == "--seed") {
      args->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      args->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      args->trace = v == "1";
    } else if (k == "--work-dir") {
      args->work_dir = v;
    } else if (k == "--max-ops") {
      args->max_ops = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--rev") {
      args->rev = v;
    } else {
      return false;
    }
  }
  return (args->workload == "browse" || args->workload == "curate" ||
          args->workload == "analyse") &&
         !args->work_dir.empty() && args->seconds > 0;
}

/// Untimed warm-up operations (render cache fill, first code fetches) and
/// the operation count at which peak RSS is sampled. Both are fixed per
/// workload so runs stay comparable whatever their speed; the cap is about
/// a fifth of a 20 s run's operations on a 4-core x86-64 host, so a run
/// several times slower still reaches it.
size_t WarmupOps(const std::string& w) {
  return w == "browse" ? 2000 : w == "curate" ? 16 : 500;
}
size_t RssCapOps(const std::string& w) {
  return w == "browse" ? 15000 : w == "curate" ? 300 : 1500;
}
/// Timed set-ups per run: setup_s is their median. All of them run before
/// the timed phase, each after the previous archive has been destroyed,
/// and after one untimed set-up that takes the process's first-touch
/// page faults; the last one serves the run.
constexpr int kSetupReps = 7;
/// glibc malloc thresholds (bytes) set for the whole run.
constexpr int kMmapThreshold = 32 << 20;
constexpr int kTrimThreshold = 1 << 30;

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::vector<double> Latencies(const RunLog& log, const std::string& route) {
  std::vector<double> out;
  for (const OpRecord& op : log.ops) {
    if (route.empty() || op.route == route) out.push_back(op.seconds);
  }
  return out;
}

double Ms(double seconds) { return seconds * 1000.0; }

/// Median latency of `routes`, taken per one-second window of the timed
/// phase and averaged over the windows. Other tenants of a shared host
/// switch the machine between fast and slow memory phases lasting
/// seconds; a run-wide median jumps between the two phases as their
/// shares cross one half, while this average moves smoothly with them.
/// Falls back to the run-wide median when no window has enough samples.
double WindowedP50(const RunLog& log, const std::set<std::string>& routes) {
  constexpr size_t kMinSamples = 3;
  std::map<long, std::vector<double>> windows;
  std::vector<double> all;
  for (const OpRecord& op : log.ops) {
    if (routes.count(op.route) == 0) continue;
    windows[static_cast<long>(op.at)].push_back(op.seconds);
    all.push_back(op.seconds);
  }
  double sum = 0;
  size_t n = 0;
  for (const auto& [window, v] : windows) {
    if (v.size() < kMinSamples) continue;
    sum += Percentile(v, 0.5);
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : Percentile(all, 0.5);
}

std::string FsType(const std::string& dir) {
  struct statfs s;
  if (statfs(dir.c_str(), &s) != 0) return "unknown";
  switch (static_cast<unsigned long>(s.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    default:
      return StrPrintf("0x%lx", static_cast<unsigned long>(s.f_type));
  }
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Counts that repeat exactly for a seed (the determinism check).
std::string DeterminismJson(const RunLog& log, Archive& archive,
                            const std::string& work_dir,
                            const Probes* probes) {
  std::string out = StrPrintf(
      "{\"sequence_digest\": \"%016llx\", \"output_digest\": \"%016llx\", "
      "\"operations\": %zu",
      static_cast<unsigned long long>(log.sequence_digest),
      static_cast<unsigned long long>(log.output_digest), log.ops.size());
  for (const std::string& table : archive.database().catalog().TableNames()) {
    easia::Result<const easia::db::Table*> t =
        archive.database().GetTable(table);
    if (t.ok()) {
      out += StrPrintf(", \"rows.%s\": %zu", table.c_str(),
                       (*t)->GetStorageStats().rows);
    }
  }
  out += StrPrintf(", \"linked_files\": %zu, \"tokens_issued\": %llu",
                   archive.med().TotalLinkedFiles(),
                   static_cast<unsigned long long>(
                       archive.med().tokens().issued()));
  for (const char* file : {"curate.wal", "analyse.jobj"}) {
    easia::Result<std::string> bytes =
        easia::io::RealEnv()->ReadFileToString(work_dir + "/" + file);
    out += StrPrintf(", \"%s_bytes\": %zu", file,
                     bytes.ok() ? bytes->size() : 0);
  }
  out += StrPrintf(", \"sim_seconds\": %.6f", archive.clock().Now());
  if (archive.tracer() != nullptr) {
    out += StrPrintf(", \"archive_spans\": %llu",
                     static_cast<unsigned long long>(
                         archive.tracer()->finished()));
  }
  if (probes != nullptr) {
    std::map<std::string, uint64_t> layers;
    for (const auto& [name, n] : probes->span_counts()) {
      layers[name.substr(0, name.find(':'))] += n;
    }
    for (const auto& [layer, n] : layers) {
      out += StrPrintf(", \"spans.%s\": %llu", layer.c_str(),
                       static_cast<unsigned long long>(n));
    }
  }
  return out + "}";
}

void PrintFailures(const RunLog& log, const char* phase) {
  for (const std::string& f : log.failures) {
    std::printf("failure (%s): %s\n", phase, f.c_str());
  }
}

void PrintRoutes(const RunLog& log, const char* phase) {
  std::map<std::string, std::vector<double>> by_route;
  std::map<std::string, double> bytes;
  for (const OpRecord& op : log.ops) {
    by_route[op.route].push_back(op.seconds);
    bytes[op.route] += static_cast<double>(op.body_bytes);
  }
  std::printf("routes (%s run, %zu operations, %.2f s):\n", phase,
              log.ops.size(), log.end - log.start);
  std::printf("  %-14s %7s %10s %10s %10s\n", "route", "n", "p50 ms",
              "p99 ms", "body KB");
  for (const auto& [route, v] : by_route) {
    std::printf("  %-14s %7zu %10.4f %10.4f %10.2f\n", route.c_str(),
                v.size(), Ms(Percentile(v, 0.5)), Ms(Percentile(v, 0.99)),
                bytes[route] / static_cast<double>(v.size()) / 1024.0);
  }
}

/// Per-route attribution of the traced run: mean time per layer measured
/// in the request (db, wal/journal, med, fs, jobs), child-layer work
/// estimated by replays (parse, operation invoke, script), the web
/// layer's self time (the rest), the part of it the web layer's replayed
/// translation explains, and the share of the request nothing accounts
/// for: an unmeasured hot path shows up there.
void PrintAttribution(const RunLog& log) {
  std::printf(
      "attribution (traced run; mean us per request; self = web self time "
      "or client-side remainder; gap = unexplained share):\n");
  std::printf("  %-12s %6s %9s %8s %8s %8s %8s %8s %8s %9s %8s %6s %6s\n",
              "route", "n", "total", "db", "log", "med", "fs", "jobs",
              "replayed", "self", "transl", "gap", "hit");
  for (const auto& [route, rt] : log.routes) {
    if (rt.n == 0) continue;
    double n = static_cast<double>(rt.n);
    std::map<std::string, double> layer;
    for (size_t i = 0; i < rt.seams.size(); ++i) {
      Seam seam = static_cast<Seam>(i);
      std::string name = SeamLayer(seam);
      if (seam == Seam::kWalAppend || seam == Seam::kWalSync ||
          seam == Seam::kJournalAppend || seam == Seam::kJournalSync) {
        name = "log";
      }
      layer[name] += rt.seams[i];
    }
    double covered = 0;
    for (const auto& [name, s] : layer) covered += s;
    double self = std::max(0.0, rt.total - covered - rt.replay_child);
    double gap = std::max(0.0, self - rt.replay_web) /
                 std::max(rt.total, 1e-12);
    std::string hit =
        rt.cache_lookups == 0
            ? "-"
            : StrPrintf("%.2f", static_cast<double>(rt.cache_hits) /
                                    static_cast<double>(rt.cache_lookups));
    std::printf(
        "  %-12s %6llu %9.1f %8.1f %8.1f %8.1f %8.1f %8.1f %8.1f %9.1f "
        "%8.1f %6.2f %6s\n",
        route.c_str(), static_cast<unsigned long long>(rt.n),
        rt.total / n * 1e6, layer["db"] / n * 1e6, layer["log"] / n * 1e6,
        layer["med"] / n * 1e6, layer["fileserver"] / n * 1e6,
        layer["jobs"] / n * 1e6, rt.replay_child / n * 1e6, self / n * 1e6,
        rt.replay_web / n * 1e6, gap, hit.c_str());
  }
  for (const auto& [shape, s] : log.shapes) {
    std::printf("  shape %-40s x%-6llu rows examined per row out %.1f\n",
                shape.c_str(), static_cast<unsigned long long>(s.occurrences),
                s.examined_per_row);
  }
}

std::string EnvJson(const Args& args, const Catalogue& cat,
                    const Archive& archive) {
  const Archive::Options& o = archive.options();
  std::string durability =
      args.workload == "curate"
          ? "WAL fsync on every commit (sync_on_commit)"
          : args.workload == "analyse" ? "job journal fsync per transition"
                                       : "in-memory database, no WAL";
  return StrPrintf(
      "{\"env\": {\"rev\": \"%s\", \"build_type\": \"%s\", \"compiler\": "
      "\"%s\", \"nproc\": %u, \"work_dir\": \"%s\", \"work_dir_fs\": \"%s\", "
      "\"flush_policy\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %.3f, \"catalogue\": {\"simulations\": %zu, "
      "\"timesteps\": %zu, \"authors\": %zu, \"result_files\": %zu, "
      "\"materialised\": %s, \"grid_n\": %zu}, \"archive_options\": "
      "{\"render_cache_bytes\": %zu, \"token_ttl_seconds\": %.0f, "
      "\"session_timeout_seconds\": %.0f, \"obs_enabled\": %s, "
      "\"cost_based_planner\": %s, \"storage\": \"row store\", "
      "\"client_link_mbps\": %.0f, \"file_servers\": %zu}, \"malloc\": "
      "{\"mmap_threshold\": %d, \"trim_threshold\": %d}}}",
      JsonEscape(args.rev).c_str(), ARCHBENCH_BUILD_TYPE, ARCHBENCH_COMPILER,
      std::thread::hardware_concurrency(), JsonEscape(args.work_dir).c_str(),
      FsType(args.work_dir).c_str(), durability.c_str(),
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, cat.shape().simulations, cat.shape().timesteps,
      cat.shape().authors, cat.CountLiveRows(),
      cat.shape().materialised ? "true" : "false", cat.shape().grid_n,
      o.render_cache_bytes, o.token_ttl_seconds, o.session_timeout_seconds,
      o.obs.enabled ? "true" : "false",
      o.db_options.cost_based_planner ? "true" : "false", kClientMbps,
      kNumHosts, kMmapThreshold, kTrimThreshold);
}

double NonSparseVfsMb(Archive& archive) {
  double bytes = 0;
  for (const std::string& host : archive.fleet().Hosts()) {
    easia::Result<easia::fs::FileServer*> server =
        archive.fleet().GetServer(host);
    if (!server.ok()) continue;
    for (const std::string& path : (*server)->vfs().List("/")) {
      easia::Result<easia::fs::FileStat> st = (*server)->vfs().Stat(path);
      if (st.ok() && !st->sparse) bytes += static_cast<double>(st->size);
    }
  }
  return bytes / 1e6;
}

/// Archive state at the end of the untraced run. The traced run issues
/// the same requests, but its operation replays also leave temp-dir
/// outputs and GetImage code transfers behind, so these are read here.
struct EndState {
  double vfs_mb = 0;
  double transfer_history = 0;
};

/// Per-layer metrics of the traced run (see README.md for definitions).
std::vector<Metric> LayerMetrics(const RunLog& untraced, const RunLog& traced,
                                 const Built& built, const Probes& probes,
                                 double xuis_seconds, const EndState& end) {
  Archive& archive = *built.archive;
  const easia::web::RenderCacheStats& cache0 = traced.cache0;
  const std::vector<Acc>& seams = probes.seam_totals();
  auto seam_us = [&](Seam s) {
    const Acc& a = seams[static_cast<size_t>(s)];
    return a.n == 0 ? 0.0 : a.sum / static_cast<double>(a.n) * 1e6;
  };
  auto calls = [&](Seam s) {
    return static_cast<double>(seams[static_cast<size_t>(s)].n);
  };
  auto counter = [&](const std::string& name) {
    auto it = probes.counters().find(name);
    return it == probes.counters().end() ? Acc() : it->second;
  };
  double requests = static_cast<double>(traced.ops.size());
  double web_requests = 0;
  double web_self = 0;
  double web_bytes = 0;
  for (const auto& [route, rt] : traced.routes) {
    if (route.empty() || route[0] != '/') continue;
    double covered = 0;
    for (double s : rt.seams) covered += s;
    web_self += std::max(0.0, rt.total - covered - rt.replay_child);
    web_requests += static_cast<double>(rt.n);
  }
  for (const OpRecord& op : traced.ops) {
    if (!op.route.empty() && op.route[0] == '/') {
      web_bytes += static_cast<double>(op.body_bytes);
    }
  }
  easia::web::RenderCacheStats cache = archive.render_cache().stats();
  double lookups = static_cast<double>((cache.hits - cache0.hits) +
                                       (cache.misses - cache0.misses));
  double per_k_web = web_requests > 0 ? 1000.0 / web_requests : 0;
  double commits = static_cast<double>(
      archive.database().stats().txn_commits - traced.commits0);
  double jobs = static_cast<double>(archive.jobs().executed() - traced.jobs0);
  double shape_weight = 0;
  double shape_sum = 0;
  for (const auto& [shape, s] : traced.shapes) {
    shape_weight += static_cast<double>(s.occurrences);
    shape_sum += static_cast<double>(s.occurrences) * s.examined_per_row;
  }
  Acc invoke = counter("ops.invoke");
  Acc invoke_total = counter("ops.invoke_total");
  Acc input = counter("ops.input_bytes");
  Acc output = counter("ops.output_bytes");
  std::vector<double> scrape = Latencies(traced, "/metrics");
  // Both runs issue the same operations, so their summed latencies compare
  // directly (a mix's median can sit on the edge between two routes).
  double untraced_total = 0;
  double traced_total = 0;
  for (const OpRecord& op : untraced.ops) untraced_total += op.seconds;
  for (const OpRecord& op : traced.ops) traced_total += op.seconds;
  double sim_download = 0;
  for (double s : traced.download_sim_seconds) sim_download += s;
  return {
      {"web.self_us", web_requests > 0 ? web_self / web_requests * 1e6 : 0,
       "us"},
      {"web.cache_hit_ratio",
       lookups > 0 ? static_cast<double>(cache.hits - cache0.hits) / lookups
                   : 0,
       "ratio"},
      {"web.cache_evictions",
       static_cast<double>(cache.evictions - cache0.evictions) * per_k_web,
       "count/1k_req"},
      {"web.cache_invalidations",
       static_cast<double>(cache.invalidations - cache0.invalidations) *
           per_k_web,
       "count/1k_req"},
      {"web.page_kb", web_requests > 0 ? web_bytes / web_requests / 1024 : 0,
       "KB"},
      {"web.sessions_live",
       static_cast<double>(archive.sessions().ActiveCount()), "count"},
      {"xuis.generate_ms", Ms(xuis_seconds), "ms"},
      {"db.parse_us", counter("db.parse").Mean() * 1e6, "us"},
      {"db.select_us", seam_us(Seam::kDbSelect), "us"},
      {"db.rows_examined_per_row",
       shape_weight > 0 ? shape_sum / shape_weight : 0, "ratio"},
      {"db.dml_us", seam_us(Seam::kDbDml), "us"},
      {"db.dml_to_point_select",
       traced.point_selects > 0 && traced.point_select_seconds > 0
           ? (traced.dml_statement_seconds /
              static_cast<double>(traced.dml_statements)) /
                 (traced.point_select_seconds /
                  static_cast<double>(traced.point_selects))
           : 0,
       "ratio"},
      {"db.wal_bytes_per_commit",
       commits > 0 ? counter("wal.append_bytes").sum / commits : 0, "B"},
      {"db.wal_syncs_per_commit",
       commits > 0 ? calls(Seam::kWalSync) / commits : 0, "ratio"},
      {"db.wal_sync_us", counter("wal.sync_seconds").Mean() * 1e6, "us"},
      {"med.prepare_us", seam_us(Seam::kMedPrepare), "us"},
      {"med.commit_us", seam_us(Seam::kMedCommit), "us"},
      {"med.linked_files",
       static_cast<double>(archive.med().TotalLinkedFiles()), "count"},
      {"med.resolve_us", seam_us(Seam::kMedResolve), "us"},
      {"med.tokens_per_req",
       requests > 0 ? static_cast<double>(archive.med().tokens().issued() -
                                          traced.tokens0) /
                          requests
                    : 0,
       "count/req"},
      {"med.tokens_rejected",
       static_cast<double>(archive.med().tokens().rejected() -
                           traced.rejected0),
       "count"},
      {"fileserver.stat_us", seam_us(Seam::kFsStat), "us"},
      {"fileserver.stats_per_req",
       requests > 0 ? calls(Seam::kFsStat) / requests : 0, "count/req"},
      {"fileserver.read_us", seam_us(Seam::kFsRead), "us"},
      {"fileserver.read_mb",
       requests > 0 ? counter("fs.read_bytes").sum / 1e6 / requests : 0,
       "MB/req"},
      {"fileserver.pins", requests > 0 ? calls(Seam::kFsPin) / requests : 0,
       "count/req"},
      {"fileserver.vfs_mb", end.vfs_mb, "MB"},
      {"ops.invoke_us", invoke.Mean() * 1e6, "us"},
      {"ops.input_mb_per_s",
       invoke_total.sum > 0 ? input.sum / 1e6 / invoke_total.sum : 0,
       "MB/s"},
      {"ops.output_ratio", input.sum > 0 ? output.sum / input.sum : 0,
       "ratio"},
      {"script.run_us", counter("script.run").Mean() * 1e6, "us"},
      {"script.steps_per_run", counter("script.steps").Mean(), "count"},
      {"jobs.exec_us", seam_us(Seam::kJobExec), "us"},
      {"jobs.journal_sync_us", counter("journal.sync_seconds").Mean() * 1e6,
       "us"},
      {"jobs.journal_bytes_per_job",
       jobs > 0 ? counter("journal.append_bytes").sum / jobs : 0, "B"},
      {"sim.download_s",
       traced.download_sim_seconds.empty()
           ? 0
           : sim_download /
                 static_cast<double>(traced.download_sim_seconds.size()),
       "s"},
      {"sim.transfer_history", end.transfer_history, "count"},
      {"obs.scrape_ms", Ms(Percentile(scrape, 0.5)), "ms"},
      {"ingest_p50_ms", Ms(WindowedP50(untraced, {"ingest"})), "ms"},
      {"ingest_p99_ms", Ms(Percentile(Latencies(untraced, "ingest"), 0.99)),
       "ms"},
      {"dml_p50_ms",
       Ms(WindowedP50(untraced, {"retire", "relink", "edit", "restrict",
                                 "/object/put"})),
       "ms"},
      {"runop_p50_ms", Ms(WindowedP50(untraced, {"/runop", "/upload"})),
       "ms"},
      {"job_p50_ms", Ms(WindowedP50(untraced, {"job"})), "ms"},
      {"trace.overhead_pct",
       untraced_total > 0 ? (traced_total / untraced_total - 1.0) * 100.0
                          : 0,
       "%"},
  };
}

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = StrPrintf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
      correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += StrPrintf("\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                     metrics[i].name.c_str(), metrics[i].value,
                     metrics[i].unit.c_str());
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: archbench --workload browse|curate|analyse --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR [--max-ops N] "
                 "[--rev REV]\n");
    return 2;
  }
  RunOptions run;
  run.seed = args.seed;
  run.seconds = args.seconds;
  run.warmup_ops = WarmupOps(args.workload);
  run.max_ops = args.max_ops;
  run.rss_cap_ops = RssCapOps(args.workload);
  BuildOptions build;
  build.workload = args.workload;
  build.work_dir = args.work_dir;
  // Freed memory stays in the process: with glibc's default thresholds a
  // large block (a 1 MB dataset read) is returned to the kernel or not
  // depending on heap layout, and faulting it back in made the same
  // request fast in one run and slow in the next.
  mallopt(M_MMAP_THRESHOLD, kMmapThreshold);
  mallopt(M_TRIM_THRESHOLD, kTrimThreshold);

  // The measured run: tracing off, wall clock around each operation only.
  std::vector<double> setups;
  std::vector<double> xuis;
  double untimed_setup = 0;
  Built built;
  for (int i = 0; i <= kSetupReps; ++i) {
    built = Built();
    built = BuildArchive(build);
    if (i == 0) {
      untimed_setup = built.setup_seconds;
      continue;
    }
    setups.push_back(built.setup_seconds);
    xuis.push_back(built.xuis_seconds);
  }
  double xuis_seconds = Percentile(xuis, 0.5);
  RunLog log = RunWorkload(args.workload, &built, run, nullptr);
  std::printf("%s\n", EnvJson(args, *built.catalogue, *built.archive).c_str());
  std::printf("{\"determinism\": %s}\n",
              DeterminismJson(log, *built.archive, args.work_dir, nullptr)
                  .c_str());
  PrintRoutes(log, "untraced");
  PrintFailures(log, "untraced");
  size_t attempted = log.attempted;
  size_t failed = log.failed;
  // Linked files follow the catalogue model: ingests and retirements
  // balance, except for a cycle the time limit cut short.
  size_t linked = built.archive->med().TotalLinkedFiles();
  if (args.workload == "curate" && linked != built.catalogue->CountLiveRows()) {
    std::printf("failure: %zu linked files, %zu live datasets\n", linked,
                built.catalogue->CountLiveRows());
    ++failed;
  }
  EndState end{NonSparseVfsMb(*built.archive),
               static_cast<double>(built.archive->network().history().size())};
  built = Built();

  if (!args.trace) {
    // Peak RSS is only comparable at a fixed operation count.
    if (log.rss_mb_at_cap == 0) {
      std::printf(
          "failure: peak_rss_mb: the run ended after %zu timed operations, "
          "before the %zu at which peak RSS is sampled\n",
          log.ops.size(), run.rss_cap_ops);
      ++failed;
    }
    std::vector<double> all = Latencies(log, "");
    double elapsed = log.end - log.start;
    std::vector<Metric> metrics = {
        {"setup_s", Percentile(setups, 0.5), "s"},
        {"throughput_rps",
         elapsed > 0 ? static_cast<double>(log.ops.size()) / elapsed : 0,
         "1/s"},
        {"p99_ms", Ms(Percentile(all, 0.99)), "ms"},
        {"search_p50_ms", Ms(WindowedP50(log, {"/search"})), "ms"},
        {"browse_p50_ms", Ms(WindowedP50(log, {"/browse"})), "ms"},
        {"typeahead_p50_ms", Ms(WindowedP50(log, {"/typeahead"})), "ms"},
        {"download_p50_ms", Ms(WindowedP50(log, {"download"})), "ms"},
        {"peak_rss_mb", log.rss_mb_at_cap, "MB"},
    };
    std::printf("setups: %zu after an untimed one of %.4f s, samples (s):",
                setups.size(), untimed_setup);
    for (double s : setups) std::printf(" %.4f", s);
    std::printf("\n");
    PrintResult(failed == 0, attempted, failed, metrics);
    return 0;
  }

  // The traced run: the same seed and request sequence (the same number
  // of operations), with benchmark-side probes on every layer seam.
  Probes probes;
  build.probes = &probes;
  RunOptions traced_run = run;
  traced_run.max_ops = log.ops.size();
  Built tbuilt = BuildArchive(build);
  RunLog tlog = RunWorkload(args.workload, &tbuilt, traced_run, &probes);
  std::printf(
      "{\"determinism_traced\": %s}\n",
      DeterminismJson(tlog, *tbuilt.archive, args.work_dir, &probes).c_str());
  PrintRoutes(tlog, "traced");
  PrintAttribution(tlog);
  PrintFailures(tlog, "traced");
  attempted += tlog.attempted;
  failed += tlog.failed;
  std::vector<Metric> metrics =
      LayerMetrics(log, tlog, tbuilt, probes, xuis_seconds, end);
  PrintResult(failed == 0, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace archbench

int main(int argc, char** argv) { return archbench::Main(argc, argv); }
