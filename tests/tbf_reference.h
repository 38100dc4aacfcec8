#ifndef EASIA_TESTS_TBF_REFERENCE_H_
#define EASIA_TESTS_TBF_REFERENCE_H_

#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>

#include "common/coding.h"
#include "turbulence/field.h"

namespace easia::turb {

/// The per-value TBF encoder (one PutDouble per grid point, component by
/// component): the byte-for-byte reference the block codec must match.
inline std::string ReferenceSerializeTbf(const Field& field,
                                         uint32_t timestep) {
  std::string out = "TBF1";
  PutU32(&out, static_cast<uint32_t>(field.n()));
  PutU32(&out, timestep);
  PutDouble(&out, field.time());
  PutDouble(&out, field.nu());
  size_t n = field.n();
  for (Component c :
       {Component::kU, Component::kV, Component::kW, Component::kP}) {
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) {
        for (size_t k = 0; k < n; ++k) {
          PutDouble(&out, field.At(c, i, j, k));
        }
      }
    }
  }
  return out;
}

inline double DoubleFromBits(uint64_t bits) {
  double v = 0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

inline uint64_t BitsOf(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// An n³ field whose leading values are every IEEE-754 class a codec or a
/// formatter can get wrong (signed zeros, NaNs with payloads, infinities,
/// denormals, extremes), followed by seeded random bit patterns.
inline Field SpecialValuesField(size_t n) {
  const double kSpecials[] = {
      -0.0,
      0.0,
      DoubleFromBits(0x7FF8000000000001ULL),  // quiet NaN, payload 1
      DoubleFromBits(0xFFF80000DEADBEEFULL),  // negative NaN with payload
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      DoubleFromBits(0x000FFFFFFFFFFFFFULL),  // largest denormal
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(),
      1.0 / 3.0,
      123456789.0,
      1e-300,
      0.1,
  };
  Field field = Field::Zero(n, 0.25, 0.01);
  uint64_t state = 0x9E3779B97F4A7C15ULL;
  size_t next = 0;
  for (Component c : kComponents) {
    for (double& v : field.MutableValues(c)) {
      if (next < std::size(kSpecials)) {
        v = kSpecials[next++];
        continue;
      }
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      v = DoubleFromBits(state);
    }
  }
  return field;
}

}  // namespace easia::turb

#endif  // EASIA_TESTS_TBF_REFERENCE_H_
