#include "common/coding.h"

#include <bit>
#include <cstring>

namespace easia {

void PutU8(std::string* dst, uint8_t v) {
  dst->push_back(static_cast<char>(v));
}

void PutU32(std::string* dst, uint32_t v) {
  char buf[4];
  for (int i = 0; i < 4; ++i) buf[i] = static_cast<char>(v >> (8 * i));
  dst->append(buf, 4);
}

void PutU64(std::string* dst, uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>(v >> (8 * i));
  dst->append(buf, 8);
}

void PutDouble(std::string* dst, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, 8);
  PutU64(dst, bits);
}

void PutDoubles(std::string* dst, std::span<const double> values) {
  if constexpr (std::endian::native == std::endian::little) {
    dst->append(reinterpret_cast<const char*>(values.data()),
                values.size_bytes());
  } else {
    for (double v : values) PutDouble(dst, v);
  }
}

void PutLengthPrefixed(std::string* dst, std::string_view s) {
  PutU32(dst, static_cast<uint32_t>(s.size()));
  dst->append(s.data(), s.size());
}

Result<uint8_t> Decoder::GetU8() {
  if (pos_ + 1 > data_.size()) return Status::Corruption("decoder: short u8");
  return static_cast<uint8_t>(data_[pos_++]);
}

Result<uint32_t> Decoder::GetU32() {
  if (pos_ + 4 > data_.size()) return Status::Corruption("decoder: short u32");
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

Result<uint64_t> Decoder::GetU64() {
  if (pos_ + 8 > data_.size()) return Status::Corruption("decoder: short u64");
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

Result<double> Decoder::GetDouble() {
  EASIA_ASSIGN_OR_RETURN(uint64_t bits, GetU64());
  double v;
  std::memcpy(&v, &bits, 8);
  return v;
}

Status Decoder::GetDoubles(std::span<double> out) {
  if (out.size() > remaining() / sizeof(double)) {
    return Status::Corruption("decoder: short f64 block");
  }
  if constexpr (std::endian::native == std::endian::little) {
    if (!out.empty()) {
      std::memcpy(out.data(), data_.data() + pos_, out.size_bytes());
    }
    pos_ += out.size_bytes();
  } else {
    for (double& v : out) v = *GetDouble();
  }
  return Status::OK();
}

Result<std::string> Decoder::GetLengthPrefixed() {
  EASIA_ASSIGN_OR_RETURN(uint32_t len, GetU32());
  if (pos_ + len > data_.size()) {
    return Status::Corruption("decoder: short string");
  }
  std::string out(data_.substr(pos_, len));
  pos_ += len;
  return out;
}

namespace {

struct Crc32Table {
  uint32_t table[256];
  Crc32Table() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      table[i] = c;
    }
  }
};

}  // namespace

uint32_t Crc32(std::string_view data) {
  static const Crc32Table* const kTable = new Crc32Table();
  uint32_t crc = 0xFFFFFFFFu;
  for (char ch : data) {
    crc = kTable->table[(crc ^ static_cast<uint8_t>(ch)) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace easia
