#include "db/table.h"

#include <algorithm>

#include "common/string_util.h"

namespace easia::db {

void EncodeValue(std::string* dst, const Value& value) {
  if (value.is_null()) {
    PutU8(dst, 0xFF);
    return;
  }
  PutU8(dst, static_cast<uint8_t>(value.type()));
  switch (value.type()) {
    case DataType::kInteger:
    case DataType::kTimestamp:
      PutU64(dst, static_cast<uint64_t>(value.AsInt()));
      break;
    case DataType::kDouble:
      PutDouble(dst, value.AsDouble());
      break;
    case DataType::kVarchar:
    case DataType::kBlob:
    case DataType::kClob:
    case DataType::kDatalink:
      PutLengthPrefixed(dst, value.AsString());
      break;
  }
}

Result<Value> DecodeValue(Decoder* dec) {
  EASIA_ASSIGN_OR_RETURN(uint8_t tag, dec->GetU8());
  if (tag == 0xFF) return Value::Null();
  if (tag > static_cast<uint8_t>(DataType::kDatalink)) {
    return Status::Corruption("bad value type tag");
  }
  DataType type = static_cast<DataType>(tag);
  switch (type) {
    case DataType::kInteger: {
      EASIA_ASSIGN_OR_RETURN(uint64_t v, dec->GetU64());
      return Value::Integer(static_cast<int64_t>(v));
    }
    case DataType::kTimestamp: {
      EASIA_ASSIGN_OR_RETURN(uint64_t v, dec->GetU64());
      return Value::Timestamp(static_cast<int64_t>(v));
    }
    case DataType::kDouble: {
      EASIA_ASSIGN_OR_RETURN(double v, dec->GetDouble());
      return Value::Double(v);
    }
    case DataType::kVarchar: {
      EASIA_ASSIGN_OR_RETURN(std::string s, dec->GetLengthPrefixed());
      return Value::Varchar(std::move(s));
    }
    case DataType::kBlob: {
      EASIA_ASSIGN_OR_RETURN(std::string s, dec->GetLengthPrefixed());
      return Value::Blob(std::move(s));
    }
    case DataType::kClob: {
      EASIA_ASSIGN_OR_RETURN(std::string s, dec->GetLengthPrefixed());
      return Value::Clob(std::move(s));
    }
    case DataType::kDatalink: {
      EASIA_ASSIGN_OR_RETURN(std::string s, dec->GetLengthPrefixed());
      return Value::Datalink(std::move(s));
    }
  }
  return Status::Corruption("bad value type tag");
}

void EncodeRow(std::string* dst, const Row& row) {
  PutU32(dst, static_cast<uint32_t>(row.size()));
  for (const Value& v : row) EncodeValue(dst, v);
}

Result<Row> DecodeRow(Decoder* dec) {
  EASIA_ASSIGN_OR_RETURN(uint32_t n, dec->GetU32());
  Row row;
  row.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    EASIA_ASSIGN_OR_RETURN(Value v, DecodeValue(dec));
    row.push_back(std::move(v));
  }
  return row;
}

Table::Table(TableDef def) : def_(std::move(def)) {
  stats_.Reset(def_.columns.size());
  if (def_.columnar) {
    column_store_ = std::make_unique<store::ColumnStore>(def_);
    // Columnar tables carry a radix prefix index per VARCHAR column,
    // powering LIKE-prefix pushdown and /typeahead name lookups.
    for (size_t i = 0; i < def_.columns.size(); ++i) {
      if (def_.columns[i].type == DataType::kVarchar) {
        radix_indexes_.try_emplace(i);
      }
    }
  }
  auto add_index = [&](const std::vector<std::string>& columns,
                       bool primary) {
    UniqueIndex index;
    index.is_primary = primary;
    for (const std::string& c : columns) {
      Result<size_t> idx = def_.ColumnIndex(c);
      if (idx.ok()) index.column_indexes.push_back(*idx);
    }
    if (!index.column_indexes.empty()) indexes_.push_back(std::move(index));
  };
  if (!def_.primary_key.empty()) add_index(def_.primary_key, true);
  for (const auto& unique : def_.unique_constraints) add_index(unique, false);
  // One non-unique secondary index per foreign key, so FK-browse queries
  // (`WHERE fk_col = v`) need not scan. Skip FKs already covered exactly
  // by a unique index.
  for (const ForeignKeyDef& fk : def_.foreign_keys) {
    SecondaryIndex index;
    for (const std::string& c : fk.columns) {
      Result<size_t> idx = def_.ColumnIndex(c);
      if (idx.ok()) index.column_indexes.push_back(*idx);
    }
    if (index.column_indexes.size() != fk.columns.size()) continue;
    bool covered = false;
    for (const UniqueIndex& u : indexes_) {
      if (u.column_indexes == index.column_indexes) covered = true;
    }
    for (const SecondaryIndex& s : secondary_indexes_) {
      if (s.column_indexes == index.column_indexes) covered = true;
    }
    if (!covered) secondary_indexes_.push_back(std::move(index));
  }
}

std::string Table::MakeKey(const Row& row,
                           const std::vector<size_t>& column_indexes) {
  std::string key;
  for (size_t idx : column_indexes) {
    PutLengthPrefixed(&key, row[idx].ToKeyString());
  }
  return key;
}

bool Table::AllNonNull(const Row& row, const std::vector<size_t>& cols) {
  for (size_t idx : cols) {
    if (row[idx].is_null()) return false;
  }
  return true;
}

Status Table::CheckUnique(const Row& row, RowId exclude_id) const {
  for (const UniqueIndex& index : indexes_) {
    if (!AllNonNull(row, index.column_indexes)) continue;
    std::string key = MakeKey(row, index.column_indexes);
    auto it = index.entries.find(key);
    if (it != index.entries.end() && it->second != exclude_id) {
      return Status::ConstraintViolation(
          (index.is_primary ? "duplicate primary key in table "
                            : "unique constraint violated in table ") +
          def_.name);
    }
  }
  return Status::OK();
}

void Table::IndexInsert(RowId id, const Row& row) {
  for (UniqueIndex& index : indexes_) {
    if (!AllNonNull(row, index.column_indexes)) continue;
    index.entries[MakeKey(row, index.column_indexes)] = id;
  }
  NonUniqueIndexInsert(id, row);
}

Status Table::ReserveUniqueEntries(RowId id, const Row& row) {
  for (size_t n = 0; n < indexes_.size(); ++n) {
    UniqueIndex& index = indexes_[n];
    if (!AllNonNull(row, index.column_indexes)) continue;
    auto [it, inserted] =
        index.entries.try_emplace(MakeKey(row, index.column_indexes), id);
    if (inserted) continue;
    // Unwind the entries the earlier indexes reserved for this row.
    for (size_t m = 0; m < n; ++m) {
      UniqueIndex& prev = indexes_[m];
      if (!AllNonNull(row, prev.column_indexes)) continue;
      auto pit = prev.entries.find(MakeKey(row, prev.column_indexes));
      if (pit != prev.entries.end() && pit->second == id) {
        prev.entries.erase(pit);
      }
    }
    return Status::ConstraintViolation(
        (index.is_primary ? "duplicate primary key in table "
                          : "unique constraint violated in table ") +
        def_.name);
  }
  return Status::OK();
}

void Table::NonUniqueIndexInsert(RowId id, const Row& row) {
  for (SecondaryIndex& index : secondary_indexes_) {
    if (!AllNonNull(row, index.column_indexes)) continue;
    index.entries.emplace(MakeKey(row, index.column_indexes), id);
  }
  for (auto& [col, radix] : radix_indexes_) {
    if (!row[col].is_null()) radix.Insert(row[col].AsString(), id);
  }
}

void Table::IndexRemove(RowId id, const Row& row) {
  for (UniqueIndex& index : indexes_) {
    if (!AllNonNull(row, index.column_indexes)) continue;
    auto it = index.entries.find(MakeKey(row, index.column_indexes));
    if (it != index.entries.end() && it->second == id) {
      index.entries.erase(it);
    }
  }
  for (SecondaryIndex& index : secondary_indexes_) {
    if (!AllNonNull(row, index.column_indexes)) continue;
    auto range = index.entries.equal_range(MakeKey(row, index.column_indexes));
    for (auto it = range.first; it != range.second; ++it) {
      if (it->second == id) {
        index.entries.erase(it);
        break;
      }
    }
  }
  for (auto& [col, radix] : radix_indexes_) {
    if (!row[col].is_null()) radix.Remove(row[col].AsString(), id);
  }
}

Result<RowId> Table::Insert(const Row& row) {
  if (row.size() != def_.columns.size()) {
    return Status::Internal("row arity mismatch in table " + def_.name);
  }
  RowId id = next_row_id_;
  EASIA_RETURN_IF_ERROR(ReserveUniqueEntries(id, row));
  ++next_row_id_;
  if (column_store_) {
    Status appended = column_store_->Append(id, row);
    if (!appended.ok()) {
      IndexRemove(id, row);  // release the reserved unique entries
      return appended;
    }
  } else {
    rows_.emplace(id, row);
  }
  NonUniqueIndexInsert(id, row);
  stats_.AddRow(row);
  return id;
}

Result<RowId> Table::Insert(Row&& row) {
  // Columnar tables never store the row itself, so the const-ref path is
  // already copy-free there.
  if (column_store_) return Insert(row);
  if (row.size() != def_.columns.size()) {
    return Status::Internal("row arity mismatch in table " + def_.name);
  }
  RowId id = next_row_id_;
  EASIA_RETURN_IF_ERROR(ReserveUniqueEntries(id, row));
  ++next_row_id_;
  NonUniqueIndexInsert(id, row);
  stats_.AddRow(row);
  rows_.emplace(id, std::move(row));
  return id;
}

Status Table::InsertWithId(RowId id, Row row) {
  if (row.size() != def_.columns.size()) {
    return Status::Internal("row arity mismatch in table " + def_.name);
  }
  bool present =
      column_store_ ? column_store_->Contains(id) : rows_.count(id) != 0;
  if (present) {
    return Status::AlreadyExists(StrPrintf("rowid %llu already present",
                                           static_cast<unsigned long long>(id)));
  }
  EASIA_RETURN_IF_ERROR(CheckUnique(row, 0));
  if (column_store_) {
    EASIA_RETURN_IF_ERROR(column_store_->Append(id, row));
  }
  IndexInsert(id, row);
  stats_.AddRow(row);
  if (!column_store_) rows_.emplace(id, std::move(row));
  if (id >= next_row_id_) next_row_id_ = id + 1;
  return Status::OK();
}

Status Table::Update(RowId id, Row new_row) {
  if (new_row.size() != def_.columns.size()) {
    return Status::Internal("row arity mismatch in table " + def_.name);
  }
  if (column_store_) {
    Result<Row> old_row = column_store_->Get(id);
    if (!old_row.ok()) {
      return Status::NotFound("update: no such row in " + def_.name);
    }
    EASIA_RETURN_IF_ERROR(CheckUnique(new_row, id));
    EASIA_RETURN_IF_ERROR(column_store_->Update(id, new_row));
    IndexRemove(id, *old_row);
    IndexInsert(id, new_row);
    stats_.RemoveRow(*old_row);
    stats_.AddRow(new_row);
    return Status::OK();
  }
  auto it = rows_.find(id);
  if (it == rows_.end()) {
    return Status::NotFound("update: no such row in " + def_.name);
  }
  EASIA_RETURN_IF_ERROR(CheckUnique(new_row, id));
  IndexRemove(id, it->second);
  IndexInsert(id, new_row);
  stats_.RemoveRow(it->second);
  stats_.AddRow(new_row);
  it->second = std::move(new_row);
  return Status::OK();
}

Status Table::Delete(RowId id) {
  if (column_store_) {
    Result<Row> old_row = column_store_->Get(id);
    if (!old_row.ok()) {
      return Status::NotFound("delete: no such row in " + def_.name);
    }
    EASIA_RETURN_IF_ERROR(column_store_->Delete(id));
    IndexRemove(id, *old_row);
    stats_.RemoveRow(*old_row);
    return Status::OK();
  }
  auto it = rows_.find(id);
  if (it == rows_.end()) {
    return Status::NotFound("delete: no such row in " + def_.name);
  }
  IndexRemove(id, it->second);
  stats_.RemoveRow(it->second);
  rows_.erase(it);
  return Status::OK();
}

Result<Row> Table::Get(RowId id) const {
  if (column_store_) {
    Result<Row> row = column_store_->Get(id);
    if (!row.ok()) return Status::NotFound("no such row in " + def_.name);
    return row;
  }
  auto it = rows_.find(id);
  if (it == rows_.end()) {
    return Status::NotFound("no such row in " + def_.name);
  }
  return it->second;
}

void Table::ForEachRow(
    const std::function<void(RowId, const Row&)>& fn) const {
  if (column_store_) {
    column_store_->ForEachRow(fn);
    return;
  }
  for (const auto& [id, row] : rows_) fn(id, row);
}

std::vector<RowId> Table::FilterScan(
    const std::vector<store::ColPredicate>& predicates) const {
  if (column_store_) return column_store_->FilterScan(predicates);
  std::vector<RowId> out;
  for (const auto& [id, row] : rows_) {
    if (std::all_of(predicates.begin(), predicates.end(),
                    [&row](const store::ColPredicate& p) {
                      return store::CellMatches(p, row[p.column]);
                    })) {
      out.push_back(id);
    }
  }
  return out;
}

Result<RowId> Table::FindUnique(const std::vector<std::string>& columns,
                                const std::vector<Value>& key_values) const {
  if (columns.size() != key_values.size()) {
    return Status::InvalidArgument("FindUnique: arity mismatch");
  }
  std::vector<size_t> col_indexes;
  for (const std::string& c : columns) {
    EASIA_ASSIGN_OR_RETURN(size_t idx, def_.ColumnIndex(c));
    col_indexes.push_back(idx);
  }
  // Try an exact-match unique index (same column set, same order).
  for (const UniqueIndex& index : indexes_) {
    if (index.column_indexes == col_indexes) {
      std::string key;
      for (const Value& v : key_values) {
        PutLengthPrefixed(&key, v.ToKeyString());
      }
      auto it = index.entries.find(key);
      if (it == index.entries.end()) {
        return Status::NotFound("no row with given key in " + def_.name);
      }
      return it->second;
    }
  }
  // Fall back to a scan (first match in RowId order).
  RowId found = 0;
  bool has_found = false;
  ForEachRow([&](RowId id, const Row& row) {
    if (has_found) return;
    for (size_t i = 0; i < col_indexes.size(); ++i) {
      if (!row[col_indexes[i]].Equals(key_values[i])) return;
    }
    found = id;
    has_found = true;
  });
  if (has_found) return found;
  return Status::NotFound("no row with given key in " + def_.name);
}

std::vector<std::vector<std::string>> Table::UniqueIndexColumns() const {
  std::vector<std::vector<std::string>> out;
  for (const UniqueIndex& index : indexes_) {
    std::vector<std::string> columns;
    for (size_t idx : index.column_indexes) {
      columns.push_back(def_.columns[idx].name);
    }
    out.push_back(std::move(columns));
  }
  return out;
}

std::vector<std::vector<std::string>> Table::SecondaryIndexColumns() const {
  std::vector<std::vector<std::string>> out;
  for (const SecondaryIndex& index : secondary_indexes_) {
    std::vector<std::string> columns;
    for (size_t idx : index.column_indexes) {
      columns.push_back(def_.columns[idx].name);
    }
    out.push_back(std::move(columns));
  }
  return out;
}

Result<std::vector<RowId>> Table::FindByIndex(
    const std::vector<std::string>& columns,
    const std::vector<Value>& key_values) const {
  if (columns.size() != key_values.size()) {
    return Status::InvalidArgument("FindByIndex: arity mismatch");
  }
  // SQL equality: a NULL key matches no row.
  for (const Value& v : key_values) {
    if (v.is_null()) return std::vector<RowId>{};
  }
  std::vector<size_t> col_indexes;
  for (const std::string& c : columns) {
    EASIA_ASSIGN_OR_RETURN(size_t idx, def_.ColumnIndex(c));
    col_indexes.push_back(idx);
  }
  std::string key;
  for (const Value& v : key_values) {
    PutLengthPrefixed(&key, v.ToKeyString());
  }
  for (const UniqueIndex& index : indexes_) {
    if (index.column_indexes != col_indexes) continue;
    auto it = index.entries.find(key);
    if (it == index.entries.end()) return std::vector<RowId>{};
    return std::vector<RowId>{it->second};
  }
  for (const SecondaryIndex& index : secondary_indexes_) {
    if (index.column_indexes != col_indexes) continue;
    auto range = index.entries.equal_range(key);
    std::vector<RowId> ids;
    for (auto it = range.first; it != range.second; ++it) {
      ids.push_back(it->second);
    }
    std::sort(ids.begin(), ids.end());
    return ids;
  }
  // No covering index: scan in RowId order.
  std::vector<RowId> ids;
  ForEachRow([&](RowId id, const Row& row) {
    for (size_t i = 0; i < col_indexes.size(); ++i) {
      if (row[col_indexes[i]].is_null() ||
          !row[col_indexes[i]].Equals(key_values[i])) {
        return;
      }
    }
    ids.push_back(id);
  });
  return ids;
}

bool Table::AnyRowWithValue(
    size_t column_index, const Value& value,
    const std::function<bool(const Row&)>& accept) const {
  if (value.is_null()) return false;  // SQL equality never matches NULL
  auto matches = [&](const Row& row) {
    return !row[column_index].is_null() && row[column_index].Equals(value) &&
           (accept == nullptr || accept(row));
  };
  // Index hits are re-checked on the row: distinct int64 values past 2^53
  // can share a key.
  auto hit = [&](RowId id) {
    Result<Row> row = Get(id);
    return row.ok() && matches(*row);
  };
  // Within one comparison family equal values share an index key once the
  // probe has the column's type; across families Value::Compare falls back
  // to display form, which the key encoding does not model.
  DataType type = def_.columns[column_index].type;
  Result<Value> probe = value.CoerceTo(type);
  if (probe.ok() && value.IsNumericKind() == IsNumericType(type)) {
    const std::vector<size_t> cols = {column_index};
    std::string key;
    PutLengthPrefixed(&key, probe->ToKeyString());
    for (const UniqueIndex& index : indexes_) {
      if (index.column_indexes != cols) continue;
      auto it = index.entries.find(key);
      return it != index.entries.end() && hit(it->second);
    }
    for (const SecondaryIndex& index : secondary_indexes_) {
      if (index.column_indexes != cols) continue;
      auto range = index.entries.equal_range(key);
      for (auto it = range.first; it != range.second; ++it) {
        if (hit(it->second)) return true;
      }
      return false;
    }
  }
  if (column_store_ == nullptr) {
    for (const auto& [id, row] : rows_) {
      if (matches(row)) return true;
    }
    return false;
  }
  store::ColPredicate not_null;
  not_null.column = column_index;
  not_null.op = store::ColPredicate::Op::kIsNotNull;
  for (RowId id : column_store_->FilterScan({not_null})) {
    if (hit(id)) return true;
  }
  return false;
}

const store::RadixIndex* Table::FindRadix(std::string_view column) const {
  Result<size_t> idx = def_.ColumnIndex(column);
  if (!idx.ok()) return nullptr;
  auto it = radix_indexes_.find(*idx);
  return it == radix_indexes_.end() ? nullptr : &it->second;
}

bool Table::HasRadixIndex(std::string_view column) const {
  return FindRadix(column) != nullptr;
}

std::vector<RowId> Table::RadixPrefixRowIds(std::string_view column,
                                            std::string_view prefix) const {
  const store::RadixIndex* radix = FindRadix(column);
  if (radix == nullptr) return {};
  return radix->PrefixRowIds(prefix);
}

std::vector<std::string> Table::RadixPrefixValues(std::string_view column,
                                                  std::string_view prefix,
                                                  size_t limit) const {
  const store::RadixIndex* radix = FindRadix(column);
  if (radix == nullptr) return {};
  return radix->PrefixValues(prefix, limit);
}

Status Table::CreateSecondaryIndex(const std::vector<std::string>& columns) {
  SecondaryIndex index;
  for (const std::string& c : columns) {
    EASIA_ASSIGN_OR_RETURN(size_t idx, def_.ColumnIndex(c));
    index.column_indexes.push_back(idx);
  }
  if (index.column_indexes.empty()) {
    return Status::InvalidArgument("secondary index needs columns");
  }
  for (const UniqueIndex& u : indexes_) {
    if (u.column_indexes == index.column_indexes) return Status::OK();
  }
  for (const SecondaryIndex& s : secondary_indexes_) {
    if (s.column_indexes == index.column_indexes) return Status::OK();
  }
  ForEachRow([&](RowId id, const Row& row) {
    if (!AllNonNull(row, index.column_indexes)) return;
    index.entries.emplace(MakeKey(row, index.column_indexes), id);
  });
  secondary_indexes_.push_back(std::move(index));
  return Status::OK();
}

Table::StorageStats Table::GetStorageStats() const {
  StorageStats stats;
  stats.columnar = column_store_ != nullptr;
  stats.rows = RowCount();
  if (column_store_) stats.columnar_bytes = column_store_->ApproxBytes();
  for (const auto& [col, radix] : radix_indexes_) {
    store::RadixIndex::Stats rs = radix.GetStats();
    stats.radix_nodes += rs.nodes;
    stats.radix_bytes += rs.bytes;
  }
  return stats;
}

}  // namespace easia::db
