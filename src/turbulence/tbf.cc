#include "turbulence/tbf.h"

#include <iterator>
#include <optional>

#include "common/coding.h"
#include "common/string_util.h"

namespace easia::turb {

namespace {

constexpr std::string_view kMagic = "TBF1";
constexpr size_t kHeaderBytes = kMagic.size() + 24;

/// Size of a TBF file with an n³ grid, or nullopt when it does not fit in
/// size_t: a hostile header must not wrap the size check to a small number.
std::optional<size_t> TbfFileBytes(size_t n) {
  size_t bytes = 0;
  if (__builtin_mul_overflow(n, n, &bytes) ||
      __builtin_mul_overflow(bytes, n, &bytes) ||
      __builtin_mul_overflow(bytes, std::size(kComponents) * sizeof(double),
                             &bytes) ||
      __builtin_add_overflow(bytes, kHeaderBytes, &bytes)) {
    return std::nullopt;
  }
  return bytes;
}

}  // namespace

std::string SerializeTbf(const Field& field, uint32_t timestep) {
  std::string out;
  out.reserve(TbfFileBytes(field.n()).value_or(0));
  out += kMagic;
  PutU32(&out, static_cast<uint32_t>(field.n()));
  PutU32(&out, timestep);
  PutDouble(&out, field.time());
  PutDouble(&out, field.nu());
  for (Component c : kComponents) PutDoubles(&out, field.Values(c));
  return out;
}

Result<TbfHeader> ParseTbfHeader(std::string_view bytes) {
  if (bytes.size() < kHeaderBytes ||
      bytes.substr(0, kMagic.size()) != kMagic) {
    return Status::Corruption("not a TBF file");
  }
  Decoder dec(bytes.substr(kMagic.size()));
  TbfHeader h;
  EASIA_ASSIGN_OR_RETURN(h.n, dec.GetU32());
  EASIA_ASSIGN_OR_RETURN(h.timestep, dec.GetU32());
  EASIA_ASSIGN_OR_RETURN(h.time, dec.GetDouble());
  EASIA_ASSIGN_OR_RETURN(h.nu, dec.GetDouble());
  return h;
}

Result<Field> ParseTbf(std::string_view bytes) {
  EASIA_ASSIGN_OR_RETURN(TbfHeader header, ParseTbfHeader(bytes));
  size_t n = header.n;
  std::optional<size_t> expected = TbfFileBytes(n);
  if (!expected.has_value()) {
    return Status::Corruption(
        StrPrintf("TBF grid n=%zu overflows the file size", n));
  }
  if (bytes.size() != *expected) {
    return Status::Corruption(
        StrPrintf("TBF size mismatch: got %zu, want %zu", bytes.size(),
                  *expected));
  }
  Field field = Field::Zero(n, header.time, header.nu);
  Decoder dec(bytes.substr(kHeaderBytes));
  for (Component c : kComponents) {
    EASIA_RETURN_IF_ERROR(dec.GetDoubles(field.MutableValues(c)));
  }
  return field;
}

std::string DatasetSpec::FileName() const {
  return StrPrintf("%s_t%04u_n%zu.tbf", simulation_key.c_str(), timestep,
                   grid_n);
}

Result<std::string> ArchiveDataset(fs::FileServer* server,
                                   const std::string& directory,
                                   const DatasetSpec& spec) {
  std::string dir = directory;
  if (dir.empty() || dir.back() != '/') dir += '/';
  std::string path = dir + spec.FileName();
  if (spec.materialize) {
    Field field = Field::Generate(spec.grid_n, spec.time, spec.nu);
    EASIA_RETURN_IF_ERROR(
        server->vfs().WriteFile(path, SerializeTbf(field, spec.timestep)));
  } else {
    EASIA_RETURN_IF_ERROR(
        server->vfs().CreateSparseFile(path, spec.SizeBytes()));
  }
  return "http://" + server->host() + path;
}

}  // namespace easia::turb
