#ifndef EASIA_TURBULENCE_TBF_H_
#define EASIA_TURBULENCE_TBF_H_

#include <string>

#include "common/result.h"
#include "fileserver/file_server.h"
#include "turbulence/field.h"

namespace easia::turb {

/// TBF — "Turbulence Binary Format", this repo's stand-in for the
/// consortium's unmodified solver output files. Layout (little endian):
///   magic "TBF1" | u32 n | u32 timestep | f64 time | f64 nu |
///   u(n^3 f64) | v(n^3 f64) | w(n^3 f64) | p(n^3 f64)
/// Post-processing codes read these files by name, matching the paper's
/// requirement that archived codes "accept a filename as a command line
/// parameter" and use standard file I/O.
std::string SerializeTbf(const Field& field, uint32_t timestep);
/// Fails with kCorruption unless `bytes` is exactly the size the header's
/// n implies; an n whose size overflows size_t is refused the same way.
Result<Field> ParseTbf(std::string_view bytes);

/// Reads just the header (cheap metadata probe).
struct TbfHeader {
  uint32_t n = 0;
  uint32_t timestep = 0;
  double time = 0;
  double nu = 0;
};
Result<TbfHeader> ParseTbfHeader(std::string_view bytes);

/// A logical simulation dataset to archive: one timestep of an n³ run.
struct DatasetSpec {
  std::string simulation_key;  // e.g. "S19990110150932"
  uint32_t timestep = 0;
  size_t grid_n = 0;
  double time = 0;
  double nu = 0.01;
  /// Materialise real bytes (small grids, tests) or declare a sparse file
  /// of the faithful size (paper-scale 85/544 MB datasets).
  bool materialize = false;

  std::string FileName() const;
  uint64_t SizeBytes() const { return Field::FileBytes(grid_n); }
};

/// Archives the dataset into `directory` on `server` (file stays where it
/// was generated — EASIA's first principle). Returns the stored URL in the
/// DATALINK insert form `http://host/dir/file`.
Result<std::string> ArchiveDataset(fs::FileServer* server,
                                   const std::string& directory,
                                   const DatasetSpec& spec);

/// Paper-calibrated dataset sizes (decimal MB, matching the ftp table).
constexpr uint64_t kSmallSimulationBytes = 85ULL * 1000 * 1000;
constexpr uint64_t kLargeSimulationBytes = 544ULL * 1000 * 1000;

}  // namespace easia::turb

#endif  // EASIA_TURBULENCE_TBF_H_
