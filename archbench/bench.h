// Shared declarations of the archive benchmark (see README.md).
#ifndef ARCHBENCH_BENCH_H_
#define ARCHBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "core/archive.h"

namespace archbench {

using easia::core::Archive;

/// Wall-clock seconds on the monotonic clock.
inline double WallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A SQL string literal.
inline std::string SqlQuoted(const std::string& v) {
  return "'" + easia::ReplaceAll(v, "'", "''") + "'";
}

// ---------------------------------------------------------------------------
// Catalogue: the generated archive contents plus the seed-time oracle that
// the checks compare responses against.
// ---------------------------------------------------------------------------

inline constexpr const char* kHosts[] = {"fs1.soton.ac.uk", "fs2.qmw.ac.uk",
                                         "fs3.man.ac.uk"};
inline constexpr size_t kNumHosts = 3;
inline constexpr const char* kClientHost = "client.example.ac.uk";
/// Client link rate. Downloads advance the simulated clock by size / rate,
/// and cached pages and tokens age on that clock, so this is a fixed
/// workload parameter, not a tuning knob.
inline constexpr double kClientMbps = 1000.0;

struct RowModel {
  size_t host = 0;    // index into kHosts
  std::string path;   // file path on the host
  std::string measurement;
};

struct SimModel {
  std::string key;
  std::string author_key;
  std::string flow;
  std::string title;
  std::string description;
  int grid = 0;
  double reynolds = 0;
  uint64_t file_bytes = 0;  // sparse dataset size (0: materialised)
  /// Live RESULT_FILE rows by timestep (ordered: the oldest is retired
  /// first by the curate workload).
  std::map<uint32_t, RowModel> rows;
  uint32_t next_timestep = 0;
};

struct CatalogueShape {
  size_t simulations = 0;
  size_t timesteps = 0;
  size_t authors = 0;
  bool materialised = false;  // real TBF bytes (analyse) vs sparse files
  size_t grid_n = 0;          // materialised grid size
};

class Catalogue {
 public:
  explicit Catalogue(CatalogueShape shape);

  const CatalogueShape& shape() const { return shape_; }
  std::vector<SimModel>& sims() { return sims_; }
  const std::vector<SimModel>& sims() const { return sims_; }
  const std::vector<std::string>& flows() const { return flows_; }

  static std::string FileName(const SimModel& sim, uint32_t timestep,
                              size_t grid_n);
  std::string Url(const RowModel& row) const;

  /// Oracle answers.
  size_t CountTitlePrefix(const std::string& prefix) const;
  /// Simulations of `author_key` whose title starts with `flow`, at a
  /// Reynolds number of at least `reynolds`.
  size_t CountSearch(const std::string& author_key, const std::string& flow,
                     double reynolds) const;
  size_t CountLiveRows() const;

 private:
  CatalogueShape shape_;
  std::vector<std::string> flows_;
  std::vector<SimModel> sims_;
  std::vector<std::string> sorted_titles_;
};

// ---------------------------------------------------------------------------
// Probes: benchmark-side decorators and a wall-clock tracer (traced runs).
// ---------------------------------------------------------------------------

class Probes;

/// Options of one archive build.
struct BuildOptions {
  std::string workload;
  std::string work_dir;  // WAL / journal directory (curate, analyse)
  Probes* probes = nullptr;
};

struct Built {
  std::unique_ptr<Archive> archive;
  std::unique_ptr<Catalogue> catalogue;
  double setup_seconds = 0;
  double xuis_seconds = 0;
};

/// Builds the archive for a workload: construction, schema, batched
/// seeding, XUIS, operations and users. Probes (when given) are wired
/// before the first statement so the WAL and journal run through them.
Built BuildArchive(const BuildOptions& options);

// ---------------------------------------------------------------------------
// Client operations and their records.
// ---------------------------------------------------------------------------

struct OpRecord {
  std::string route;
  double seconds = 0;
  bool ok = false;
  size_t body_bytes = 0;
  double at = 0;  // start, seconds into the timed phase
};

/// Traced-run attribution of one route.
struct RouteTrace {
  uint64_t n = 0;
  double total = 0;
  std::vector<double> seams;  // exclusive seconds per probe seam
  /// In-request work no seam covers, estimated by replaying the pure
  /// functions the request ran: child layers (parse, operation invoke,
  /// script) and the web layer's own query translation.
  double replay_child = 0;
  double replay_web = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_lookups = 0;
};

/// EXPLAIN ANALYZE of one statement shape (first occurrence).
struct ShapeTrace {
  uint64_t occurrences = 0;
  double examined_per_row = 0;
};

/// Everything one run produces besides the archive's own state.
struct RunLog {
  std::vector<OpRecord> ops;
  size_t attempted = 0;
  std::map<std::string, RouteTrace> routes;
  std::map<std::string, ShapeTrace> shapes;
  /// Database statements timed inside DML operations, and the point
  /// SELECTs on the same keys replayed after them (traced runs).
  double dml_statement_seconds = 0;
  uint64_t dml_statements = 0;
  double point_select_seconds = 0;
  uint64_t point_selects = 0;
  /// Digest of the generated request sequence (route + parameters).
  uint64_t sequence_digest = 1469598103934665603ULL;
  /// Digest of operation outputs (deterministic for a seed).
  uint64_t output_digest = 1469598103934665603ULL;
  std::vector<std::string> failures;  // first few failure descriptions
  size_t failed = 0;
  std::vector<double> download_sim_seconds;
  /// Wall-clock instants of the timed phase.
  double start = 0;
  double end = 0;
  double rss_mb_at_cap = 0;
  /// Archive counters when the timed phase began (after the warm-up).
  easia::web::RenderCacheStats cache0;
  uint64_t commits0 = 0;
  uint64_t tokens0 = 0;
  uint64_t rejected0 = 0;
  uint64_t jobs0 = 0;
};

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10;
  size_t warmup_ops = 0;
  /// Stop after this many timed operations (0: time-bounded).
  size_t max_ops = 0;
  /// Sample peak RSS after this many timed operations, so the figure is
  /// comparable between runs that complete different operation counts.
  size_t rss_cap_ops = 0;
};

/// Runs a workload's closed loop against a built archive.
RunLog RunWorkload(const std::string& workload, Built* built,
                   const RunOptions& options, Probes* probes);

/// Peak resident set of this process so far (VmHWM), in MB.
double PeakRssMb();

}  // namespace archbench

#endif  // ARCHBENCH_BENCH_H_
