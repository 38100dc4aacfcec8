#include "ops/native.h"

#include <charconv>
#include <cmath>

#include "common/string_util.h"
#include "turbulence/field.h"
#include "turbulence/tbf.h"

namespace easia::ops {

using turb::Component;
using turb::Field;
using turb::FieldStats;
using turb::Slice2D;

uint64_t OperationOutput::TotalFileBytes() const {
  if (simulated) return simulated_output_bytes;
  uint64_t total = 0;
  for (const auto& [name, bytes] : files) total += bytes.size();
  return total;
}

void NativeRegistry::Register(const std::string& name, NativeOperation op) {
  ops_[name] = std::move(op);
}

Result<const NativeOperation*> NativeRegistry::Get(
    const std::string& name) const {
  auto it = ops_.find(name);
  if (it == ops_.end()) {
    return Status::NotFound("no native operation named " + name);
  }
  return &it->second;
}

bool NativeRegistry::Has(const std::string& name) const {
  return ops_.find(name) != ops_.end();
}

std::vector<std::string> NativeRegistry::Names() const {
  std::vector<std::string> out;
  for (const auto& [name, op] : ops_) out.push_back(name);
  return out;
}

size_t GridFromFileBytes(uint64_t bytes) {
  if (bytes <= 64) return 0;
  double n = std::cbrt(static_cast<double>(bytes - 64) / 32.0);
  return static_cast<size_t>(n + 0.5);
}

namespace {

struct SliceRequest {
  char axis = 'x';
  size_t index = 0;
  Component component = Component::kU;
};

Result<SliceRequest> ParseSliceParams(const fs::HttpParams& params) {
  SliceRequest req;
  auto slice_it = params.find("slice");
  if (slice_it != params.end() && !slice_it->second.empty()) {
    // Accept "x0".."xN" (the paper's option values) or bare "x"/"y"/"z"
    // with a separate "index" parameter.
    char axis = slice_it->second[0];
    if (axis != 'x' && axis != 'y' && axis != 'z') {
      return Status::InvalidArgument("bad slice axis: " + slice_it->second);
    }
    req.axis = axis;
    if (slice_it->second.size() > 1) {
      EASIA_ASSIGN_OR_RETURN(int64_t idx,
                             ParseInt64(slice_it->second.substr(1)));
      req.index = static_cast<size_t>(idx);
    }
  }
  auto index_it = params.find("index");
  if (index_it != params.end()) {
    EASIA_ASSIGN_OR_RETURN(int64_t idx, ParseInt64(index_it->second));
    if (idx < 0) return Status::InvalidArgument("negative slice index");
    req.index = static_cast<size_t>(idx);
  }
  auto type_it = params.find("type");
  if (type_it != params.end()) {
    EASIA_ASSIGN_OR_RETURN(req.component,
                           turb::ComponentFromName(type_it->second));
  }
  return req;
}

NativeOperation MakeGetImage() {
  NativeOperation op;
  op.run = [](const std::string& bytes,
              const fs::HttpParams& params) -> Result<OperationOutput> {
    EASIA_ASSIGN_OR_RETURN(Field field, turb::ParseTbf(bytes));
    EASIA_ASSIGN_OR_RETURN(SliceRequest req, ParseSliceParams(params));
    EASIA_ASSIGN_OR_RETURN(Slice2D slice,
                           field.Slice(req.axis, req.index, req.component));
    OperationOutput out;
    std::string name = StrPrintf("slice_%c%zu_%s.pgm", req.axis, req.index,
                                 std::string(ComponentName(req.component))
                                     .c_str());
    out.files.emplace_back(name, slice.ToPgm());
    FieldStats stats = slice.Stats();
    out.text = StrPrintf(
        "GetImage: %zux%zu %s-slice at %c=%zu  min=%.6f max=%.6f mean=%.6f\n",
        slice.n1, slice.n2,
        std::string(ComponentName(req.component)).c_str(), req.axis,
        req.index, stats.min, stats.max, stats.mean);
    return out;
  };
  // PGM pixels: one byte per point, plus header.
  op.reduction_model = [](uint64_t input_bytes) -> uint64_t {
    size_t n = GridFromFileBytes(input_bytes);
    return n == 0 ? 0 : static_cast<uint64_t>(n) * n + 16;
  };
  return op;
}

NativeOperation MakeFieldStats() {
  NativeOperation op;
  op.run = [](const std::string& bytes,
              const fs::HttpParams& params) -> Result<OperationOutput> {
    (void)params;
    EASIA_ASSIGN_OR_RETURN(Field field, turb::ParseTbf(bytes));
    OperationOutput out;
    for (Component c : turb::kComponents) {
      FieldStats s = field.Stats(c);
      out.text += StrPrintf("%s: min=%.6f max=%.6f mean=%.6f rms=%.6f\n",
                            std::string(ComponentName(c)).c_str(), s.min,
                            s.max, s.mean, s.rms);
    }
    out.files.emplace_back("stats.txt", out.text);
    return out;
  };
  op.reduction_model = [](uint64_t) -> uint64_t { return 256; };
  return op;
}

NativeOperation MakeSliceCsv() {
  NativeOperation op;
  op.run = [](const std::string& bytes,
              const fs::HttpParams& params) -> Result<OperationOutput> {
    EASIA_ASSIGN_OR_RETURN(Field field, turb::ParseTbf(bytes));
    EASIA_ASSIGN_OR_RETURN(SliceRequest req, ParseSliceParams(params));
    EASIA_ASSIGN_OR_RETURN(Slice2D slice,
                           field.Slice(req.axis, req.index, req.component));
    // to_chars(general, 9) is defined as printf's "%.9g" in the C locale,
    // without a heap string per value.
    std::string csv;
    char buf[32];
    for (size_t i = 0; i < slice.n1; ++i) {
      for (size_t j = 0; j < slice.n2; ++j) {
        if (j > 0) csv += ',';
        char* end = std::to_chars(buf, buf + sizeof(buf), slice.At(i, j),
                                  std::chars_format::general, 9)
                        .ptr;
        csv.append(buf, end);
      }
      csv += '\n';
    }
    OperationOutput out;
    out.files.emplace_back(
        StrPrintf("slice_%c%zu.csv", req.axis, req.index), std::move(csv));
    out.text = StrPrintf("SliceCsv: wrote %zux%zu values\n", slice.n1,
                         slice.n2);
    return out;
  };
  // ~18 text bytes per value.
  op.reduction_model = [](uint64_t input_bytes) -> uint64_t {
    size_t n = GridFromFileBytes(input_bytes);
    return n == 0 ? 0 : static_cast<uint64_t>(n) * n * 18;
  };
  return op;
}

NativeOperation MakeSubsample() {
  NativeOperation op;
  op.run = [](const std::string& bytes,
              const fs::HttpParams& params) -> Result<OperationOutput> {
    EASIA_ASSIGN_OR_RETURN(Field field, turb::ParseTbf(bytes));
    int64_t factor = 2;
    auto it = params.find("factor");
    if (it != params.end()) {
      EASIA_ASSIGN_OR_RETURN(factor, ParseInt64(it->second));
    }
    size_t n = field.n();
    if (factor < 1 || static_cast<size_t>(factor) > n) {
      return Status::InvalidArgument("bad subsample factor");
    }
    size_t step = static_cast<size_t>(factor);
    size_t m = n / step;
    if (m == 0) return Status::InvalidArgument("factor too large");
    Field small = Field::Zero(m, field.time(), field.nu());
    for (Component c : turb::kComponents) {
      std::span<const double> src = field.Values(c);
      std::span<double> dst = small.MutableValues(c);
      size_t idx = 0;
      for (size_t i = 0; i < m; ++i) {
        for (size_t j = 0; j < m; ++j) {
          for (size_t k = 0; k < m; ++k) {
            dst[idx++] = src[((i * n + j) * n + k) * step];
          }
        }
      }
    }
    OperationOutput out;
    out.files.emplace_back(StrPrintf("subsample_%lldx.tbf",
                                     static_cast<long long>(factor)),
                           turb::SerializeTbf(small, 0));
    out.text = StrPrintf("Subsample: %zu^3 -> %zu^3\n", field.n(), m);
    return out;
  };
  // Default factor 2: 1/8 of the data.
  op.reduction_model = [](uint64_t input_bytes) -> uint64_t {
    return input_bytes / 8;
  };
  return op;
}

NativeOperation MakeKineticEnergy() {
  NativeOperation op;
  op.run = [](const std::string& bytes,
              const fs::HttpParams& params) -> Result<OperationOutput> {
    (void)params;
    EASIA_ASSIGN_OR_RETURN(Field field, turb::ParseTbf(bytes));
    OperationOutput out;
    out.text = StrPrintf("KineticEnergy: t=%.4f E=%.8f max|omega|=%.6f\n",
                         field.time(), field.KineticEnergy(),
                         field.MaxVorticity());
    out.files.emplace_back("energy.txt", out.text);
    return out;
  };
  op.reduction_model = [](uint64_t) -> uint64_t { return 64; };
  return op;
}

}  // namespace

NativeRegistry NativeRegistry::BuiltIns() {
  NativeRegistry registry;
  registry.Register("GetImage", MakeGetImage());
  registry.Register("FieldStats", MakeFieldStats());
  registry.Register("SliceCsv", MakeSliceCsv());
  registry.Register("Subsample", MakeSubsample());
  registry.Register("KineticEnergy", MakeKineticEnergy());
  return registry;
}

}  // namespace easia::ops
