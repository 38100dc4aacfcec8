// Benchmark-side probes for the traced run. They only use seams the
// program already exposes: io::Env (WAL, job journal), fs::Vfs decorators
// installed with FileServer::InterposeVfs, a forwarding
// db::DatalinkCoordinator, and a wall-clock obs::Tracer wired with the
// set_tracer methods of Database, FileServer and JobScheduler.
#ifndef ARCHBENCH_PROBES_H_
#define ARCHBENCH_PROBES_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "common/io.h"
#include "obs/trace.h"

namespace archbench {

/// In-request seams. Every interval recorded during a timed operation is
/// attributed to the innermost seam active at each instant.
enum class Seam {
  kDbSelect,      // planner:select span
  kDbDml,         // db:execute span
  kWalAppend,     // io::LogFile::Append under DatabaseOptions::env
  kWalSync,       // io::LogFile::Sync under DatabaseOptions::env
  kJournalAppend, // ... under SchedulerOptions::env
  kJournalSync,
  kMedPrepare,    // DatalinkCoordinator::PrepareLink / PrepareUnlink
  kMedCommit,     // DatalinkCoordinator::CommitTxn / AbortTxn
  kMedResolve,    // DatalinkCoordinator::ResolveForRead
  kFsStat,        // Vfs::Stat
  kFsRead,        // Vfs::ReadFile
  kFsWrite,       // Vfs::WriteFile / CreateSparseFile / Delete / Rename
  kFsPin,         // Vfs::Pin / Unpin
  kFsOther,       // Vfs::Exists / IsPinned / List
  kJobExec,       // job:execute span
  kCount
};

/// The layer a seam belongs to ("db", "med", "fileserver", "jobs").
const char* SeamLayer(Seam seam);

/// Count and total of one quantity.
struct Acc {
  uint64_t n = 0;
  double sum = 0;
  void Add(double v) {
    ++n;
    sum += v;
  }
  double Mean() const { return n == 0 ? 0 : sum / static_cast<double>(n); }
};

class Probes {
 public:
  Probes();
  ~Probes();
  Probes(const Probes&) = delete;
  Probes& operator=(const Probes&) = delete;

  easia::io::Env* wal_env();
  easia::io::Env* journal_env();
  /// Decorates every file server, wraps the DataLink coordinator and wires
  /// the wall-clock tracer into the database, file servers and scheduler.
  void Install(Archive* archive);

  /// Bracket one timed client operation: intervals and counters are kept
  /// only between these calls. EndOp returns the operation's exclusive
  /// time per seam (seconds) and folds it into the totals.
  void BeginOp();
  std::vector<double> EndOp(double op_start, double op_end);

  /// Replays (pure functions timed on the operation's inputs) run between
  /// operations; file-server time they cause is kept apart.
  void BeginReplay();
  double EndReplay();  // returns file-server seconds inside the replay

  // Called by the decorators.
  bool recording() const { return recording_; }
  void Record(Seam seam, double start, double end);
  void Count(const std::string& name, double value) {
    counters_[name].Add(value);
  }

  /// Spans finished during the timed phase, by name (determinism check).
  const std::map<std::string, uint64_t>& span_counts() const {
    return span_counts_;
  }
  const std::map<std::string, Acc>& counters() const { return counters_; }
  /// Exclusive seconds and call counts per seam over all timed operations.
  const std::vector<Acc>& seam_totals() const { return seam_totals_; }

 private:
  class TimedEnv;
  class TimedVfs;
  class TimedCoordinator;
  class SteadyClock;

  struct Interval {
    Seam seam;
    double start;
    double end;
  };

  bool recording_ = false;
  bool replaying_ = false;
  double replay_fs_seconds_ = 0;
  std::vector<Interval> intervals_;
  std::vector<Acc> seam_totals_;
  std::map<std::string, Acc> counters_;
  std::map<std::string, uint64_t> span_counts_;

  std::unique_ptr<SteadyClock> clock_;
  std::unique_ptr<easia::obs::Tracer> tracer_;
  std::unique_ptr<TimedEnv> wal_env_;
  std::unique_ptr<TimedEnv> journal_env_;
  std::vector<std::unique_ptr<TimedVfs>> vfs_;
  std::unique_ptr<TimedCoordinator> coordinator_;
};

}  // namespace archbench

#endif  // ARCHBENCH_PROBES_H_
