#ifndef EASIA_DB_STORE_COLUMN_PAGE_H_
#define EASIA_DB_STORE_COLUMN_PAGE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "db/schema.h"
#include "db/value.h"

namespace easia::db {

// Shared row aliases (identical to the declarations in db/table.h; store
// headers cannot include table.h because Table embeds store types).
using Row = std::vector<Value>;
using RowId = uint64_t;

namespace store {

/// One pushed predicate in kernel form: `column <op> literal`, IS [NOT]
/// NULL, or LIKE. Literals are pre-checked by the planner to match the
/// column's storage family, so kernels never hit mixed-kind comparisons.
struct ColPredicate {
  enum class Op {
    kEq,
    kNe,
    kLt,
    kLe,
    kGt,
    kGe,
    kIsNull,
    kIsNotNull,
    kLike,
    kNotLike,
  };
  size_t column = 0;
  Op op = Op::kEq;
  Value literal;  // unused for IS [NOT] NULL
};

/// Tests `p` on one stored cell with the executor's own calls
/// (Value::Compare, LikeMatch), NULL and unknown both rejecting as in
/// IsTruthy. The row-store scan kernel runs this on cells in place.
bool CellMatches(const ColPredicate& p, const Value& cell);

/// One aggregate function in kernel form.
struct AggSpec {
  enum class Fn { kCountStar, kCount, kSum, kMin, kMax, kAvg };
  Fn fn = Fn::kCountStar;
  size_t column = 0;  // unused for kCountStar
};

/// One output group of AggregateScan, in first-seen row order.
struct AggGroup {
  /// The group's first member fully materialised (the executor evaluates
  /// non-aggregate select items against it, matching row-path semantics).
  /// All-NULL for the zero-row global group.
  Row first_row;
  std::vector<Value> aggregates;  // one per AggSpec, in order
};

/// Columnar table storage: one typed array per column (fixed-width int64
/// and double vectors, arena-backed text with offset/length pairs) plus a
/// null bitmap and a liveness bitmap, in the spirit of the scan-oriented
/// catalogue stores behind SDSS-scale archives. Slots are append-only;
/// UPDATE overwrites fixed-width cells in place and appends text bytes,
/// DELETE tombstones the slot. The arena is not compacted — acceptable for
/// an ingest-mostly scientific catalogue.
///
/// Scan kernels (FilterScan / AggregateScan) run over the raw arrays
/// without materialising Values, which is where the columnar layout pays:
/// the row path pays a Row materialisation plus expression-tree walk per
/// row, the kernels pay a branch and a comparison per cell. Kernel
/// comparisons follow Value::Compare: two integer-backed values compare
/// as int64, anything else numeric as double.
class ColumnStore {
 public:
  explicit ColumnStore(const TableDef& def);

  /// Appends a row under `id`. The row must be fully coerced to the table's
  /// column types (Table validates before calling).
  Status Append(RowId id, const Row& row);
  Status Update(RowId id, const Row& row);
  Status Delete(RowId id);

  bool Contains(RowId id) const { return slot_of_.count(id) > 0; }
  Result<Row> Get(RowId id) const;
  size_t LiveRows() const { return slot_of_.size(); }

  /// Visits live rows in ascending RowId order (the row-store scan order).
  void ForEachRow(const std::function<void(RowId, const Row&)>& fn) const;

  /// RowIds of live rows satisfying every predicate, ascending. With no
  /// predicates this is a full scan of live rows.
  std::vector<RowId> FilterScan(
      const std::vector<ColPredicate>& predicates) const;

  /// Grouped aggregation over rows satisfying every predicate, groups in
  /// first-seen order (ascending RowId of first member). With an empty
  /// `group_by`, returns exactly one global group even when no row
  /// matches (zero-row aggregate semantics: COUNT = 0, SUM/AVG/MIN/MAX =
  /// NULL), mirroring the executor's row-path behaviour.
  Result<std::vector<AggGroup>> AggregateScan(
      const std::vector<ColPredicate>& predicates,
      const std::vector<size_t>& group_by,
      const std::vector<AggSpec>& aggs) const;

  /// Approximate heap footprint of the column arrays + bitmaps + arena.
  size_t ApproxBytes() const;

 private:
  /// One column's storage. Exactly one payload vector is populated,
  /// chosen by the storage family of `type`.
  struct Column {
    DataType type = DataType::kVarchar;
    std::vector<int64_t> ints;        // kInteger / kTimestamp
    std::vector<double> doubles;      // kDouble
    std::vector<uint32_t> text_off;   // string kinds: arena offset
    std::vector<uint32_t> text_len;   // string kinds: byte length
    std::string arena;                // string kinds: payload bytes
    std::vector<uint64_t> null_bits;  // bit set = NULL
  };

  static bool IsFixedInt(DataType t) {
    return t == DataType::kInteger || t == DataType::kTimestamp;
  }
  static bool IsText(DataType t) {
    return !(IsFixedInt(t) || t == DataType::kDouble);
  }

  static bool GetBit(const std::vector<uint64_t>& words, size_t i);
  static void SetBit(std::vector<uint64_t>* words, size_t i, bool value);

  std::string_view TextAt(const Column& c, size_t slot) const {
    return std::string_view(c.arena).substr(c.text_off[slot],
                                            c.text_len[slot]);
  }
  Value MaterialiseCell(const Column& c, size_t slot) const;
  void MaterialiseRow(size_t slot, Row* row) const;
  Status WriteCell(Column* c, size_t slot, const Value& v, bool append);

  bool SlotLive(size_t slot) const { return GetBit(live_bits_, slot); }
  /// Evaluates one kernel predicate at `slot` with SQL three-valued logic
  /// collapsed to accept/reject (NULL comparisons reject, as in the
  /// executor's IsTruthy gate).
  bool EvalPredicate(const ColPredicate& p, size_t slot) const;
  bool PassesAll(const std::vector<ColPredicate>& preds, size_t slot) const;

  /// Visits live slots in ascending RowId order.
  template <typename Fn>
  void ForEachLiveSlot(Fn&& fn) const;

  std::vector<Column> columns_;
  std::vector<RowId> slot_ids_;       // slot -> RowId
  std::vector<uint64_t> live_bits_;   // bit set = live
  /// Live rows only. Point lookups dominate (Append/Update/Delete/Get);
  /// the one ordered traversal (ForEachLiveSlot's non-monotonic fallback)
  /// sorts a scratch copy instead of paying a tree walk per insert.
  std::unordered_map<RowId, uint32_t> slot_of_;
  /// True while slots were appended in ascending RowId order, letting the
  /// kernels scan arrays linearly instead of chasing the map.
  bool slots_monotonic_ = true;
};

}  // namespace store
}  // namespace easia::db

#endif  // EASIA_DB_STORE_COLUMN_PAGE_H_
