#ifndef EASIA_COMMON_CODING_H_
#define EASIA_COMMON_CODING_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "common/result.h"

namespace easia {

/// Little-endian fixed-width encoders used by the WAL, snapshot files and
/// the TBF dataset format.
void PutU8(std::string* dst, uint8_t v);
void PutU32(std::string* dst, uint32_t v);
void PutU64(std::string* dst, uint64_t v);
void PutDouble(std::string* dst, double v);
/// Appends `values` in PutDouble's encoding: one block copy on
/// little-endian hosts, the per-value loop elsewhere.
void PutDoubles(std::string* dst, std::span<const double> values);
void PutLengthPrefixed(std::string* dst, std::string_view s);

/// A sequential decoder over a byte string. All Get* methods fail with
/// kCorruption when the input is exhausted.
class Decoder {
 public:
  explicit Decoder(std::string_view data) : data_(data) {}

  Result<uint8_t> GetU8();
  Result<uint32_t> GetU32();
  Result<uint64_t> GetU64();
  Result<double> GetDouble();
  /// Fills `out` with the next out.size() doubles (GetDouble's encoding)
  /// as one block; fails without consuming anything if fewer remain.
  Status GetDoubles(std::span<double> out);
  Result<std::string> GetLengthPrefixed();

  bool Done() const { return pos_ >= data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

/// CRC-32 (IEEE 802.3 polynomial, table-driven).
uint32_t Crc32(std::string_view data);

}  // namespace easia

#endif  // EASIA_COMMON_CODING_H_
