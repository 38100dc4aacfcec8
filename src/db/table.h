#ifndef EASIA_DB_TABLE_H_
#define EASIA_DB_TABLE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/result.h"
#include "db/schema.h"
#include "db/stats/table_stats.h"
#include "db/store/column_page.h"
#include "db/store/radix_index.h"
#include "db/value.h"

namespace easia::db {

using Row = std::vector<Value>;
using RowId = uint64_t;

/// Encodes row/value payloads for the WAL and snapshots.
void EncodeRow(std::string* dst, const Row& row);
Result<Row> DecodeRow(Decoder* dec);
void EncodeValue(std::string* dst, const Value& value);
Result<Value> DecodeValue(Decoder* dec);

/// Physical storage for one table: live rows in a columnar page store
/// (store::ColumnStore) plus maintained unique indexes (primary key +
/// UNIQUE constraints), one secondary index per foreign key, and one
/// store::RadixIndex per VARCHAR column for `LIKE 'abc%'` pushdown and
/// /typeahead. This layer performs no constraint *policy* (that belongs
/// to Database); it only keeps indexes consistent and detects duplicate
/// keys.
class Table {
 public:
  explicit Table(TableDef def);

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;
  Table(Table&&) = default;
  Table& operator=(Table&&) = default;

  const TableDef& def() const { return def_; }

  /// Inserts a row (already validated/coerced) and returns its RowId.
  /// Fails with kConstraintViolation on a duplicate PK/UNIQUE key. The
  /// row is decomposed into column pages, never kept, so the caller still
  /// owns it (the bulk-ingest path needs it for the WAL record).
  Result<RowId> Insert(const Row& row);

  /// Inserts with a caller-chosen RowId (WAL replay, snapshot load, and
  /// the undo of a DELETE).
  Status InsertWithId(RowId id, const Row& row);

  /// Replaces a row. Only the index entries whose cells changed move.
  Status Update(RowId id, const Row& new_row);
  Status Delete(RowId id);
  Result<Row> Get(RowId id) const;

  size_t RowCount() const { return store_.LiveRows(); }

  /// Visits every live row in ascending RowId order (the canonical scan
  /// order).
  void ForEachRow(const std::function<void(RowId, const Row&)>& fn) const;

  /// The scan filter kernel: RowIds of live rows satisfying every
  /// predicate, ascending, tested on the column arrays. No row is copied.
  std::vector<RowId> FilterScan(
      const std::vector<store::ColPredicate>& predicates) const;

  /// The columnar page store. The executor runs the aggregate kernel on it.
  const store::ColumnStore& column_store() const { return store_; }

  /// Compacts the page store when InsertWithId re-inserted rows below the
  /// newest RowId (the undo of a DELETE), so scans walk the arrays in
  /// RowId order again. No-op on an ordered store.
  void RestoreScanOrder();

  /// Looks up the RowId whose values in `columns` equal `key_values`,
  /// using a unique index when one covers the columns, else scanning.
  /// Returns kNotFound when no row matches.
  Result<RowId> FindUnique(const std::vector<std::string>& columns,
                           const std::vector<Value>& key_values) const;

  /// True if some row holds a value equal to `value` in column
  /// `column_index` (and passes `accept`, when given) — the RESTRICT probe.
  /// Answers from a unique or secondary index over exactly that column,
  /// probing with `value` coerced to the column's type. A value of the
  /// other comparison family (numeric vs string), or a column no index
  /// covers, is scanned instead, stopping at the first hit.
  bool AnyRowWithValue(
      size_t column_index, const Value& value,
      const std::function<bool(const Row&)>& accept = nullptr) const;

  /// Column-name lists of the unique indexes (primary key first) and the
  /// non-unique secondary indexes, for planner access-path selection.
  std::vector<std::vector<std::string>> UniqueIndexColumns() const;
  std::vector<std::vector<std::string>> SecondaryIndexColumns() const;

  /// RowIds whose values in `columns` equal `key_values`, in ascending
  /// RowId order (matching scan order). Uses a unique or secondary index
  /// when one covers exactly these columns, else scans. NULL key values
  /// match nothing (SQL equality).
  Result<std::vector<RowId>> FindByIndex(
      const std::vector<std::string>& columns,
      const std::vector<Value>& key_values) const;

  /// True when `column` carries a radix prefix index (every VARCHAR
  /// column does).
  bool HasRadixIndex(std::string_view column) const;

  /// RowIds whose `column` value starts with `prefix`, ascending. Empty
  /// when the column has no radix index.
  std::vector<RowId> RadixPrefixRowIds(std::string_view column,
                                       std::string_view prefix) const;

  /// Distinct values of `column` starting with `prefix`, lexicographic,
  /// at most `limit` (0 = unlimited).
  std::vector<std::string> RadixPrefixValues(std::string_view column,
                                             std::string_view prefix,
                                             size_t limit) const;

  /// Key string over the given column indexes of a row.
  static std::string MakeKey(const Row& row,
                             const std::vector<size_t>& column_indexes);

  RowId next_row_id() const { return next_row_id_; }

  /// Incrementally maintained column statistics (row counts, NDV, min/max,
  /// value sample) fed from every mutation path, so WAL replay, snapshot
  /// loading and rollback all keep them current. The mutable accessor
  /// exists for snapshot loading, which overwrites the rebuilt sketches
  /// with the persisted ones (those carry widen-only history a rebuild
  /// from live rows cannot reproduce).
  const stats::TableStats& table_stats() const { return stats_; }
  stats::TableStats* mutable_table_stats() { return &stats_; }

  /// Creates a non-unique secondary index over `columns` and backfills it
  /// from the existing rows (index-advisor auto-creation). No-op when an
  /// index with exactly these columns already exists.
  Status CreateSecondaryIndex(const std::vector<std::string>& columns);

  /// Storage-level gauges for the obs registry.
  struct StorageStats {
    size_t rows = 0;
    size_t columnar_bytes = 0;
    size_t radix_nodes = 0;
    size_t radix_bytes = 0;
  };
  StorageStats GetStorageStats() const;

 private:
  struct UniqueIndex {
    std::vector<size_t> column_indexes;
    /// Ordered map on purpose: bulk ingest feeds ascending keys, and the
    /// tree's rightmost insert path stays cache-resident — measured ~2.5x
    /// faster than hashing each string key into a scattered bucket table.
    std::map<std::string, RowId> entries;
    bool is_primary = false;
  };

  /// Non-unique index (one per foreign key): many rows may share a key.
  struct SecondaryIndex {
    std::vector<size_t> column_indexes;
    std::multimap<std::string, RowId> entries;
  };

  /// Checks that inserting/updating to `row` (excluding `exclude_id`) does
  /// not collide with a unique index; returns the violated index name.
  Status CheckUnique(const Row& row, RowId exclude_id) const;
  /// The one index-maintenance path: moves `id`'s entries from the keys of
  /// `old_row` to those of `new_row` (null: the row is being inserted or
  /// removed), touching only indexes whose cells differ bit for bit. The
  /// unique indexes are skipped when `unique` is false (Insert reserved
  /// them already).
  void Reindex(RowId id, const Row* old_row, const Row* new_row,
               bool unique);
  /// Single-pass duplicate check + unique-index insert for the hot Insert
  /// path (one key build and one probe per index, versus CheckUnique
  /// followed by Reindex doing both twice). On conflict, entries reserved
  /// by earlier indexes are unwound and the same kConstraintViolation
  /// CheckUnique would return is reported.
  Status ReserveUniqueEntries(RowId id, const Row& row);
  /// True when every indexed column of `row` is non-NULL (SQL allows NULLs
  /// to escape UNIQUE enforcement).
  static bool AllNonNull(const Row& row, const std::vector<size_t>& cols);

  const store::RadixIndex* FindRadix(std::string_view column) const;

  TableDef def_;
  store::ColumnStore store_;
  /// Prefix indexes over the VARCHAR columns, keyed by column index.
  std::map<size_t, store::RadixIndex> radix_indexes_;
  std::vector<UniqueIndex> indexes_;
  std::vector<SecondaryIndex> secondary_indexes_;
  stats::TableStats stats_;
  RowId next_row_id_ = 1;
};

}  // namespace easia::db

#endif  // EASIA_DB_TABLE_H_
