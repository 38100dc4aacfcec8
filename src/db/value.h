#ifndef EASIA_DB_VALUE_H_
#define EASIA_DB_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"

namespace easia::db {

/// SQL data types supported by the EASIA archive engine. BLOB/CLOB hold
/// small objects inside the database (rematerialised over HTTP on demand);
/// DATALINK references a large external file managed under SQL/MED rules.
enum class DataType {
  kInteger,
  kDouble,
  kVarchar,
  kTimestamp,  // seconds since epoch, integer-valued
  kBlob,       // binary, stored in-row
  kClob,       // character large object, stored in-row
  kDatalink,   // SQL/MED external file reference
};

std::string_view DataTypeName(DataType type);
Result<DataType> DataTypeFromName(std::string_view name);

/// True when `type` joins the numeric comparison family of Value::Compare
/// (integers, doubles and timestamps compare numerically with each other).
inline bool IsNumericType(DataType type) {
  return type == DataType::kInteger || type == DataType::kDouble ||
         type == DataType::kTimestamp;
}

/// A single SQL value: typed payload or NULL. Integers and timestamps share
/// the int64 slot; varchar/blob/clob/datalink share the string slot (for a
/// DATALINK this is the unlinked URL form `http://host/fs/path/file`).
class Value {
 public:
  /// NULL of unspecified type (takes the type of its column).
  Value() : null_(true), type_(DataType::kVarchar) {}

  static Value Null() { return Value(); }
  static Value Integer(int64_t v);
  static Value Double(double v);
  static Value Varchar(std::string v);
  static Value Timestamp(int64_t epoch_seconds);
  static Value Blob(std::string bytes);
  static Value Clob(std::string text);
  static Value Datalink(std::string url);

  bool is_null() const { return null_; }
  DataType type() const { return type_; }

  int64_t AsInt() const { return int_; }
  double AsDouble() const {
    return type_ == DataType::kDouble ? double_ : static_cast<double>(int_);
  }
  const std::string& AsString() const { return str_; }

  /// True when the payload lives in the string slot.
  bool IsStringKind() const {
    return type_ == DataType::kVarchar || type_ == DataType::kBlob ||
           type_ == DataType::kClob || type_ == DataType::kDatalink;
  }
  bool IsNumericKind() const { return IsNumericType(type_); }

  /// Three-way comparison for ORDER BY / index keys. NULLs sort first;
  /// numeric kinds compare numerically across integer/double/timestamp;
  /// string kinds compare lexicographically. Returns <0, 0, >0.
  int Compare(const Value& other) const;

  bool Equals(const Value& other) const { return Compare(other) == 0; }

  /// Display form ("NULL", "42", "3.14", "abc"). BLOBs render as
  /// "<blob N bytes>"; the UI layer replaces large-object cells with links.
  std::string ToDisplayString() const;

  /// SQL literal form with quoting/escaping suitable for re-parsing.
  std::string ToSqlLiteral() const;

  /// Stable key encoding used by unique indexes (type-tagged, unambiguous).
  std::string ToKeyString() const;

  /// Coerces this value to `target` (e.g. integer literal into a DOUBLE
  /// column, string into CLOB). Fails when lossy or nonsensical.
  Result<Value> CoerceTo(DataType target) const;

 private:
  bool null_ = false;
  DataType type_;
  int64_t int_ = 0;
  double double_ = 0;
  std::string str_;
};

}  // namespace easia::db

#endif  // EASIA_DB_VALUE_H_
