// Catalogue generation and archive construction for the three workloads.
#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "bench.h"
#include "core/turbulence_setup.h"
#include "probes.h"
#include "turbulence/field.h"
#include "turbulence/tbf.h"

namespace archbench {

using easia::Result;
using easia::Status;
using easia::StrPrintf;

namespace {

constexpr const char* kFlows[] = {
    "Decaying Taylor-Green vortex", "Channel flow",
    "Homogeneous isotropic turbulence", "Rotating stratified turbulence",
    "Turbulent mixing layer", "Backward-facing step",
    "Boundary layer transition", "Jet in crossflow",
    "Rayleigh-Benard convection", "Kolmogorov flow",
    "Wake behind a cylinder", "Lid-driven cavity"};
constexpr const char* kNames[] = {"A. N. Author", "B. Researcher",
                                  "C. Scientist", "D. Modeller"};
constexpr const char* kOrgs[] = {"University of Southampton",
                                 "Queen Mary & Westfield College",
                                 "University of Manchester",
                                 "Imperial College"};
constexpr int kGrids[] = {64, 128, 256, 512};

[[noreturn]] void Die(const std::string& what, const Status& s) {
  std::fprintf(stderr, "archbench: setup failed: %s: %s\n", what.c_str(),
               s.ToString().c_str());
  std::exit(3);
}

void Check(const std::string& what, const Status& s) {
  if (!s.ok()) Die(what, s);
}

CatalogueShape ShapeFor(const std::string& workload) {
  CatalogueShape shape;
  if (workload == "analyse") {
    // A few hundred materialised ~1 MB TBF datasets at most: everything
    // fits in memory and in the render cache.
    shape.simulations = 8;
    shape.timesteps = 12;
    shape.authors = 4;
    shape.materialised = true;
    shape.grid_n = 32;
  } else {
    // Paper-scale catalogue: ~2,000 simulations x 20 timesteps of sparse
    // files, ~40k linked RESULT_FILE rows across three file servers.
    shape.simulations = 2000;
    shape.timesteps = 20;
    shape.authors = 250;
  }
  return shape;
}

}  // namespace

Catalogue::Catalogue(CatalogueShape shape) : shape_(shape) {
  for (const char* flow : kFlows) flows_.push_back(flow);
  sims_.resize(shape_.simulations);
  for (size_t i = 0; i < shape_.simulations; ++i) {
    SimModel& sim = sims_[i];
    sim.key = StrPrintf("S199901%08zu", i + 1);
    sim.author_key = StrPrintf("A199901%08zu", i % shape_.authors + 1);
    sim.flow = flows_[(i * 7 + i / 13) % flows_.size()];
    sim.grid = kGrids[i % 4];
    sim.reynolds = 100.0 * static_cast<double>(1 + (i * 37) % 200);
    sim.title = StrPrintf("%s Re=%.0f run %04zu", sim.flow.c_str(),
                          sim.reynolds, i + 1);
    sim.description = StrPrintf(
        "Direct numerical simulation of %s at Reynolds number %.0f on a "
        "%d^3 grid.",
        sim.flow.c_str(), sim.reynolds, sim.grid);
    for (size_t k = 0; k < i % 5; ++k) {
      sim.description +=
          " Velocity and pressure fields are archived at every output "
          "timestep for post-processing next to the data.";
    }
    if (!shape_.materialised) {
      sim.file_bytes = i % 8 == 0 ? easia::turb::kLargeSimulationBytes
                                  : easia::turb::kSmallSimulationBytes;
    }
    for (uint32_t t = 0; t < shape_.timesteps; ++t) {
      RowModel row;
      row.host = (i + t) % kNumHosts;
      row.path = "/archive/" + sim.key + "/" +
                 FileName(sim, t, shape_.materialised ? shape_.grid_n : 0);
      row.measurement = "u,v,w,p";
      sim.rows.emplace(t, std::move(row));
    }
    sim.next_timestep = static_cast<uint32_t>(shape_.timesteps);
    sorted_titles_.push_back(sim.title);
  }
  std::sort(sorted_titles_.begin(), sorted_titles_.end());
}

std::string Catalogue::FileName(const SimModel& sim, uint32_t timestep,
                                size_t grid_n) {
  return grid_n > 0 ? StrPrintf("%s_t%04u_n%zu.tbf", sim.key.c_str(),
                                timestep, grid_n)
                    : StrPrintf("%s_t%04u.tbf", sim.key.c_str(), timestep);
}

std::string Catalogue::Url(const RowModel& row) const {
  return std::string("http://") + kHosts[row.host] + row.path;
}

size_t Catalogue::CountTitlePrefix(const std::string& prefix) const {
  auto lo = std::lower_bound(sorted_titles_.begin(), sorted_titles_.end(),
                             prefix);
  size_t n = 0;
  for (auto it = lo; it != sorted_titles_.end() &&
                     it->compare(0, prefix.size(), prefix) == 0;
       ++it) {
    ++n;
  }
  return n;
}

size_t Catalogue::CountSearch(const std::string& author_key,
                              const std::string& flow,
                              double reynolds) const {
  size_t n = 0;
  for (const SimModel& sim : sims_) {
    if (sim.author_key == author_key &&
        sim.title.compare(0, flow.size(), flow) == 0 &&
        sim.reynolds >= reynolds) {
      ++n;
    }
  }
  return n;
}

size_t Catalogue::CountLiveRows() const {
  size_t n = 0;
  for (const SimModel& sim : sims_) n += sim.rows.size();
  return n;
}

Built BuildArchive(const BuildOptions& options) {
  Built built;
  double t0 = WallNow();
  CatalogueShape shape = ShapeFor(options.workload);
  built.catalogue = std::make_unique<Catalogue>(shape);
  Catalogue& cat = *built.catalogue;

  // The archive's default Options: observability on, an 8 MB render
  // cache, the cost-based planner and row-store tables. Only durability
  // paths (and the probes' io::Env seams) are set here.
  Archive::Options archive_options;
  if (options.workload == "curate") {
    std::string wal = options.work_dir + "/curate.wal";
    std::remove(wal.c_str());
    archive_options.db_options.wal_path = wal;
  }
  if (options.workload == "analyse") {
    std::string journal = options.work_dir + "/analyse.jobj";
    std::remove(journal.c_str());
    archive_options.job_options.journal_path = journal;
  }
  if (options.probes != nullptr) {
    archive_options.db_options.env = options.probes->wal_env();
    archive_options.job_options.env = options.probes->journal_env();
  }
  built.archive = std::make_unique<Archive>(archive_options);
  Archive& archive = *built.archive;
  for (const char* host : kHosts) archive.AddFileServer(host);
  archive.AddClientHost(kClientHost, kClientMbps);
  if (options.probes != nullptr) options.probes->Install(&archive);

  Check("schema", easia::core::CreateTurbulenceSchema(&archive));

  // Authors, then simulations with their datasets, in batched
  // transactions: DataLinker::CommitTxn walks every link on each commit,
  // so row-at-a-time seeding is quadratic in the linked-file count.
  Check("begin", archive.database().Begin());
  for (size_t a = 0; a < shape.authors; ++a) {
    Check("author",
          archive
              .Execute(StrPrintf(
                  "INSERT INTO AUTHOR (AUTHOR_KEY, NAME, ORGANISATION, EMAIL)"
                  " VALUES ('A199901%08zu', %s, %s, "
                  "'author%zu@example.ac.uk')",
                  a + 1, SqlQuoted(kNames[a % 4]).c_str(),
                  SqlQuoted(kOrgs[a % 4]).c_str(), a))
              .status());
  }
  Check("commit", archive.database().Commit());
  constexpr size_t kSimsPerTxn = 50;
  for (size_t first = 0; first < cat.sims().size(); first += kSimsPerTxn) {
    Check("begin", archive.database().Begin());
    size_t last = std::min(first + kSimsPerTxn, cat.sims().size());
    for (size_t i = first; i < last; ++i) {
      const SimModel& sim = cat.sims()[i];
      Check("simulation",
            archive
                .Execute(StrPrintf(
                    "INSERT INTO SIMULATION (SIMULATION_KEY, AUTHOR_KEY, "
                    "TITLE, DESCRIPTION, GRID_SIZE, TIMESTEPS, "
                    "REYNOLDS_NUMBER, CREATED) VALUES (%s, %s, %s, %s, %d, "
                    "%zu, %.1f, %zu)",
                    SqlQuoted(sim.key).c_str(),
                    SqlQuoted(sim.author_key).c_str(),
                    SqlQuoted(sim.title).c_str(),
                    SqlQuoted(sim.description).c_str(), sim.grid,
                    shape.timesteps, sim.reynolds,
                    static_cast<size_t>(915465600 + i * 86400)))
                .status());
      std::string sql =
          "INSERT INTO RESULT_FILE (FILE_NAME, SIMULATION_KEY, TIMESTEP, "
          "MEASUREMENT, FILE_FORMAT, FILE_SIZE, DOWNLOAD_RESULT) VALUES ";
      bool first_row = true;
      for (const auto& [t, row] : sim.rows) {
        Result<easia::fs::FileServer*> server =
            archive.fleet().GetServer(kHosts[row.host]);
        Check("server", server.status());
        uint64_t size = sim.file_bytes;
        if (shape.materialised) {
          easia::turb::Field field = easia::turb::Field::Generate(
              shape.grid_n, 0.5 * static_cast<double>(t), 0.01);
          std::string bytes = easia::turb::SerializeTbf(field, t);
          size = bytes.size();
          Check("dataset",
                (*server)->storage().WriteFile(row.path, std::move(bytes)));
        } else {
          Check("dataset",
                (*server)->storage().CreateSparseFile(row.path, size));
        }
        if (!first_row) sql += ", ";
        first_row = false;
        size_t slash = row.path.rfind('/');
        sql += StrPrintf("(%s, %s, %u, %s, 'TBF', %llu, %s)",
                         SqlQuoted(row.path.substr(slash + 1)).c_str(),
                         SqlQuoted(sim.key).c_str(), t,
                         SqlQuoted(row.measurement).c_str(),
                         static_cast<unsigned long long>(size),
                         SqlQuoted(cat.Url(row)).c_str());
      }
      Check("result files", archive.Execute(sql).status());
    }
    Check("commit", archive.database().Commit());
  }

  double x0 = WallNow();
  Check("xuis", archive.InitializeXuis());
  built.xuis_seconds = WallNow() - x0;
  if (shape.materialised) {
    Check("getimage", easia::core::AttachGetImageOperation(
                          &archive, cat.sims()[0].key, shape.grid_n));
    Check("natives", easia::core::AttachNativeOperations(&archive));
    Check("upload", easia::core::AttachCodeUpload(&archive));
  }

  using easia::web::UserRole;
  Check("user", archive.AddUser("alice", "alice-pw", UserRole::kAuthorised));
  Check("user", archive.AddUser("bob", "bob-pw", UserRole::kAuthorised));
  Check("user", archive.AddUser("carol", "carol-pw", UserRole::kAuthorised));
  Check("user", archive.AddUser("dana", "dana-pw", UserRole::kAuthorised));
  // bob works through a personal XUIS, so his pages form their own cache
  // visibility class (and his FK cells render the author's name).
  easia::xuis::XuisSpec personal = archive.xuis().Default();
  easia::xuis::XuisCustomizer customizer(&personal);
  Check("personal", customizer.SetFkSubstitution("SIMULATION.AUTHOR_KEY",
                                                 "AUTHOR.NAME"));
  Check("personal",
        customizer.SetColumnAlias("SIMULATION.REYNOLDS_NUMBER", "Re"));
  Check("personal", customizer.HideColumn("AUTHOR.EMAIL"));
  archive.xuis().SetForUser("bob", std::move(personal));
  built.setup_seconds = WallNow() - t0;
  return built;
}

}  // namespace archbench
