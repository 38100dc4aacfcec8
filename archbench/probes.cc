#include "probes.h"

#include <algorithm>

#include "db/database.h"
#include "fileserver/file_server.h"
#include "fileserver/vfs.h"

namespace archbench {

using easia::Result;
using easia::Status;

const char* SeamLayer(Seam seam) {
  switch (seam) {
    case Seam::kDbSelect:
    case Seam::kDbDml:
    case Seam::kWalAppend:
    case Seam::kWalSync:
      return "db";
    case Seam::kJournalAppend:
    case Seam::kJournalSync:
    case Seam::kJobExec:
      return "jobs";
    case Seam::kMedPrepare:
    case Seam::kMedCommit:
    case Seam::kMedResolve:
      return "med";
    case Seam::kFsStat:
    case Seam::kFsRead:
    case Seam::kFsWrite:
    case Seam::kFsPin:
    case Seam::kFsOther:
      return "fileserver";
    case Seam::kCount:
      break;
  }
  return "?";
}

namespace {

bool IsFileServerSeam(Seam seam) {
  return std::string_view(SeamLayer(seam)) == "fileserver";
}

}  // namespace

class Probes::SteadyClock final : public easia::Clock {
 public:
  double Now() const override { return WallNow(); }
};

/// io::Env decorator over the host file system: times every log Append
/// and Sync and counts the bytes appended.
class Probes::TimedEnv final : public easia::io::Env {
 public:
  TimedEnv(Probes* probes, Seam append, Seam sync, std::string prefix)
      : probes_(probes), append_(append), sync_(sync),
        prefix_(std::move(prefix)) {}

  Result<std::unique_ptr<easia::io::LogFile>> OpenAppend(
      const std::string& path) override {
    Result<std::unique_ptr<easia::io::LogFile>> inner =
        easia::io::RealEnv()->OpenAppend(path);
    if (!inner.ok()) return inner.status();
    return std::unique_ptr<easia::io::LogFile>(
        new TimedLogFile(this, std::move(*inner)));
  }
  Result<std::string> ReadFileToString(const std::string& path) override {
    return easia::io::RealEnv()->ReadFileToString(path);
  }
  bool FileExists(const std::string& path) override {
    return easia::io::RealEnv()->FileExists(path);
  }
  Status WriteFileAtomic(const std::string& path,
                         std::string_view contents) override {
    return easia::io::RealEnv()->WriteFileAtomic(path, contents);
  }
  Status RemoveFile(const std::string& path) override {
    return easia::io::RealEnv()->RemoveFile(path);
  }
  Status Truncate(const std::string& path) override {
    return easia::io::RealEnv()->Truncate(path);
  }

 private:
  class TimedLogFile final : public easia::io::LogFile {
   public:
    TimedLogFile(TimedEnv* env, std::unique_ptr<easia::io::LogFile> inner)
        : env_(env), inner_(std::move(inner)) {}
    Status Append(std::string_view data) override {
      double t0 = WallNow();
      Status s = inner_->Append(data);
      env_->probes_->Record(env_->append_, t0, WallNow());
      if (env_->probes_->recording()) {
        env_->probes_->Count(env_->prefix_ + ".append_bytes",
                             static_cast<double>(data.size()));
      }
      return s;
    }
    Status Sync() override {
      double t0 = WallNow();
      Status s = inner_->Sync();
      double t1 = WallNow();
      env_->probes_->Record(env_->sync_, t0, t1);
      if (env_->probes_->recording()) {
        env_->probes_->Count(env_->prefix_ + ".sync_seconds", t1 - t0);
      }
      return s;
    }
    void Close() override { inner_->Close(); }

   private:
    TimedEnv* env_;
    std::unique_ptr<easia::io::LogFile> inner_;
  };

  Probes* probes_;
  Seam append_;
  Seam sync_;
  std::string prefix_;
};

/// fs::Vfs decorator installed on each file server; the DataLinker and
/// the operation engine reach the store through it too.
class Probes::TimedVfs final : public easia::fs::Vfs {
 public:
  TimedVfs(Probes* probes, easia::fs::Vfs* inner)
      : probes_(probes), inner_(inner) {}

  Status WriteFile(const std::string& path, std::string contents,
                   const std::string& owner) override {
    return Time(Seam::kFsWrite, [&] {
      return inner_->WriteFile(path, std::move(contents), owner);
    });
  }
  Status CreateSparseFile(const std::string& path, uint64_t size,
                          const std::string& owner) override {
    return Time(Seam::kFsWrite,
                [&] { return inner_->CreateSparseFile(path, size, owner); });
  }
  Result<std::string> ReadFile(const std::string& path) const override {
    Result<std::string> r =
        Time(Seam::kFsRead, [&] { return inner_->ReadFile(path); });
    if (probes_->recording() && r.ok()) {
      probes_->Count("fs.read_bytes", static_cast<double>(r->size()));
    }
    return r;
  }
  Result<easia::fs::FileStat> Stat(const std::string& path) const override {
    return Time(Seam::kFsStat, [&] { return inner_->Stat(path); });
  }
  bool Exists(const std::string& path) const override {
    return Time(Seam::kFsOther, [&] { return inner_->Exists(path); });
  }
  Status DeleteFile(const std::string& path) override {
    return Time(Seam::kFsWrite, [&] { return inner_->DeleteFile(path); });
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    return Time(Seam::kFsWrite, [&] { return inner_->RenameFile(from, to); });
  }
  Status Pin(const std::string& path) override {
    return Time(Seam::kFsPin, [&] { return inner_->Pin(path); });
  }
  Status Unpin(const std::string& path) override {
    return Time(Seam::kFsPin, [&] { return inner_->Unpin(path); });
  }
  bool IsPinned(const std::string& path) const override {
    return Time(Seam::kFsOther, [&] { return inner_->IsPinned(path); });
  }
  std::vector<std::string> List(const std::string& prefix) const override {
    return Time(Seam::kFsOther, [&] { return inner_->List(prefix); });
  }
  uint64_t TotalBytes() const override { return inner_->TotalBytes(); }
  size_t FileCount() const override { return inner_->FileCount(); }

 private:
  template <typename F>
  auto Time(Seam seam, F&& f) const -> decltype(f()) {
    double t0 = WallNow();
    auto r = f();
    probes_->Record(seam, t0, WallNow());
    return r;
  }

  Probes* probes_;
  easia::fs::Vfs* inner_;
};

/// Forwarding SQL/MED coordinator around the archive's DataLinkManager.
class Probes::TimedCoordinator final : public easia::db::DatalinkCoordinator {
 public:
  TimedCoordinator(Probes* probes, easia::db::DatalinkCoordinator* inner)
      : probes_(probes), inner_(inner) {}

  Status PrepareLink(uint64_t txn_id,
                     const easia::db::DatalinkOptions& options,
                     const std::string& url) override {
    double t0 = WallNow();
    Status s = inner_->PrepareLink(txn_id, options, url);
    probes_->Record(Seam::kMedPrepare, t0, WallNow());
    return s;
  }
  Status PrepareUnlink(uint64_t txn_id,
                       const easia::db::DatalinkOptions& options,
                       const std::string& url) override {
    double t0 = WallNow();
    Status s = inner_->PrepareUnlink(txn_id, options, url);
    probes_->Record(Seam::kMedPrepare, t0, WallNow());
    return s;
  }
  void CommitTxn(uint64_t txn_id) override {
    double t0 = WallNow();
    inner_->CommitTxn(txn_id);
    probes_->Record(Seam::kMedCommit, t0, WallNow());
  }
  void AbortTxn(uint64_t txn_id) override {
    double t0 = WallNow();
    inner_->AbortTxn(txn_id);
    probes_->Record(Seam::kMedCommit, t0, WallNow());
  }
  Result<std::string> ResolveForRead(const easia::db::DatalinkOptions& options,
                                     const std::string& url,
                                     const std::string& user) override {
    double t0 = WallNow();
    Result<std::string> r = inner_->ResolveForRead(options, url, user);
    probes_->Record(Seam::kMedResolve, t0, WallNow());
    return r;
  }

 private:
  Probes* probes_;
  easia::db::DatalinkCoordinator* inner_;
};

Probes::Probes()
    : seam_totals_(static_cast<size_t>(Seam::kCount)),
      clock_(std::make_unique<SteadyClock>()) {
  easia::obs::Tracer::Options options;
  options.clock = clock_.get();
  options.ring_capacity = 1 << 14;
  tracer_ = std::make_unique<easia::obs::Tracer>(options);
  wal_env_ = std::make_unique<TimedEnv>(this, Seam::kWalAppend,
                                        Seam::kWalSync, "wal");
  journal_env_ = std::make_unique<TimedEnv>(this, Seam::kJournalAppend,
                                            Seam::kJournalSync, "journal");
}

Probes::~Probes() = default;

easia::io::Env* Probes::wal_env() { return wal_env_.get(); }
easia::io::Env* Probes::journal_env() { return journal_env_.get(); }

void Probes::Install(Archive* archive) {
  archive->database().set_tracer(tracer_.get());
  archive->jobs().set_tracer(tracer_.get());
  for (const std::string& host : archive->fleet().Hosts()) {
    Result<easia::fs::FileServer*> server = archive->fleet().GetServer(host);
    if (!server.ok()) continue;
    (*server)->set_tracer(tracer_.get());
    vfs_.push_back(std::make_unique<TimedVfs>(this, &(*server)->vfs()));
    (*server)->InterposeVfs(vfs_.back().get());
  }
  coordinator_ = std::make_unique<TimedCoordinator>(this, &archive->med());
  archive->database().set_coordinator(coordinator_.get());
}

void Probes::Record(Seam seam, double start, double end) {
  if (recording_) {
    intervals_.push_back({seam, start, end});
  } else if (replaying_ && IsFileServerSeam(seam)) {
    replay_fs_seconds_ += end - start;
  }
}

void Probes::BeginOp() {
  tracer_->Clear();
  intervals_.clear();
  recording_ = true;
}

std::vector<double> Probes::EndOp(double op_start, double op_end) {
  recording_ = false;
  for (const easia::obs::Span& span : tracer_->Snapshot()) {
    ++span_counts_[span.name];
    Seam seam;
    if (span.name == "planner:select") {
      seam = Seam::kDbSelect;
    } else if (span.name == "db:execute") {
      seam = Seam::kDbDml;
    } else if (span.name == "job:execute") {
      seam = Seam::kJobExec;
    } else {
      continue;  // fs:* duplicate the Vfs decorator; exec:* nest in select
    }
    intervals_.push_back({seam, span.start, span.start + span.duration});
  }
  tracer_->Clear();
  // One client thread: the intervals nest like the call stack. Attribute
  // each instant to the innermost seam (outer first on equal starts).
  std::sort(intervals_.begin(), intervals_.end(),
            [](const Interval& a, const Interval& b) {
              if (a.start != b.start) return a.start < b.start;
              return a.end > b.end;
            });
  std::vector<double> exclusive(static_cast<size_t>(Seam::kCount), 0.0);
  struct Open {
    Interval iv;
    double children = 0;
  };
  std::vector<Open> stack;
  auto close_top = [&] {
    Open top = stack.back();
    stack.pop_back();
    double dur = top.iv.end - top.iv.start;
    exclusive[static_cast<size_t>(top.iv.seam)] +=
        std::max(0.0, dur - top.children);
    if (!stack.empty()) stack.back().children += dur;
  };
  for (Interval iv : intervals_) {
    iv.start = std::clamp(iv.start, op_start, op_end);
    iv.end = std::clamp(iv.end, iv.start, op_end);
    while (!stack.empty() && stack.back().iv.end <= iv.start) close_top();
    if (!stack.empty()) iv.end = std::min(iv.end, stack.back().iv.end);
    stack.push_back({iv, 0});
    ++seam_totals_[static_cast<size_t>(iv.seam)].n;
  }
  while (!stack.empty()) close_top();
  for (size_t i = 0; i < exclusive.size(); ++i) {
    seam_totals_[i].sum += exclusive[i];
  }
  intervals_.clear();
  return exclusive;
}

void Probes::BeginReplay() {
  replaying_ = true;
  replay_fs_seconds_ = 0;
}

double Probes::EndReplay() {
  replaying_ = false;
  return replay_fs_seconds_;
}

}  // namespace archbench
