#include "db/store/column_page.h"

#include <algorithm>
#include <cstring>

#include "common/string_util.h"
#include "db/executor.h"

namespace easia::db::store {
namespace {

/// Appends a group-key fragment for one cell. The encoding only needs to
/// partition rows exactly like Value::ToKeyString: a class tag plus the
/// raw double bits (numeric) or length-prefixed bytes (text). Double bits
/// are equal exactly when the %.17g rendering is, -0.0 included.
void AppendKeyFragment(bool is_null, bool numeric, double num,
                       std::string_view text, std::string* key) {
  if (is_null) {
    key->push_back('\x00');
    return;
  }
  if (numeric) {
    key->push_back('\x01');
    char bits[sizeof(double)];
    std::memcpy(bits, &num, sizeof(double));
    key->append(bits, sizeof(double));
    return;
  }
  key->push_back('\x02');
  uint32_t len = static_cast<uint32_t>(text.size());
  key->append(reinterpret_cast<const char*>(&len), sizeof(len));
  key->append(text.data(), text.size());
}

/// Per-aggregate running state. SUM/AVG over integer columns accumulate
/// twice: exactly in 128-bit integer arithmetic and approximately in
/// double. The wide total is authoritative while every input was
/// integer-kind (narrowing back to INTEGER when it fits int64, DOUBLE
/// otherwise) — the same order-independent rule as the row-path
/// EvalAggregate (FinishSum/FinishAvg in db/executor.h), so the two
/// executors stay bit-identical and shard partials merge exactly.
struct AggAcc {
  size_t non_null = 0;
  double sum = 0;
  __int128 isum = 0;
  bool all_int = true;
  bool has_extreme = false;
  bool extreme_numeric = false;
  double extreme_num = 0;
  int64_t extreme_int = 0;  // exact track for fixed-int columns
  std::string extreme_text;
  size_t extreme_slot = 0;  // slot holding the current MIN/MAX value
};

struct GroupState {
  size_t first_slot = 0;
  size_t count = 0;
  std::vector<AggAcc> accs;
};

/// -1, 0 or 1, with Value::Compare's NaN rule (unordered reads as equal).
template <typename T>
int ThreeWay(T lhs, T rhs) {
  return lhs < rhs ? -1 : (lhs > rhs ? 1 : 0);
}

/// Whether a three-way comparison result satisfies a comparison operator.
bool ComparisonPasses(ColPredicate::Op op, int cmp) {
  switch (op) {
    case ColPredicate::Op::kEq:
      return cmp == 0;
    case ColPredicate::Op::kNe:
      return cmp != 0;
    case ColPredicate::Op::kLt:
      return cmp < 0;
    case ColPredicate::Op::kLe:
      return cmp <= 0;
    case ColPredicate::Op::kGt:
      return cmp > 0;
    case ColPredicate::Op::kGe:
      return cmp >= 0;
    default:
      return false;
  }
}

}  // namespace

ColumnStore::ColumnStore(const TableDef& def) {
  columns_.reserve(def.columns.size());
  for (const ColumnDef& col : def.columns) {
    Column c;
    c.type = col.type;
    columns_.push_back(std::move(c));
  }
}

bool ColumnStore::GetBit(const std::vector<uint64_t>& words, size_t i) {
  size_t word = i / 64;
  if (word >= words.size()) return false;
  return (words[word] >> (i % 64)) & 1;
}

void ColumnStore::SetBit(std::vector<uint64_t>* words, size_t i, bool value) {
  size_t word = i / 64;
  if (word >= words->size()) words->resize(word + 1, 0);
  if (value) {
    (*words)[word] |= (uint64_t{1} << (i % 64));
  } else {
    (*words)[word] &= ~(uint64_t{1} << (i % 64));
  }
}

Status ColumnStore::CheckRow(const Row& row) const {
  if (row.size() != columns_.size()) {
    return Status::Internal("columnar store: row width mismatch");
  }
  for (size_t i = 0; i < row.size(); ++i) {
    const Value& v = row[i];
    DataType type = columns_[i].type;
    if (v.is_null() || (IsText(type) ? v.IsStringKind() : v.IsNumericKind())) {
      continue;
    }
    return Status::Internal(
        IsText(type) ? std::string("columnar store: non-string value in "
                                   "text column")
                     : "columnar store: non-numeric value in " +
                           std::string(DataTypeName(type)) + " column");
  }
  return Status::OK();
}

void ColumnStore::WriteCell(Column* c, size_t slot, const Value& v,
                            bool append) {
  const bool was_null = !append && GetBit(c->null_bits, slot);
  if (IsFixedInt(c->type)) {
    int64_t x = v.is_null() ? 0 : v.AsInt();
    if (append) {
      c->ints.push_back(x);
    } else {
      c->ints[slot] = x;
    }
  } else if (c->type == DataType::kDouble) {
    double x = v.is_null() ? 0 : v.AsDouble();
    if (append) {
      c->doubles.push_back(x);
    } else {
      c->doubles[slot] = x;
    }
  } else if (append) {
    std::string_view text = v.is_null() ? std::string_view() : v.AsString();
    c->text_off.push_back(c->arena.size());
    c->text_len.push_back(text.size());
    c->arena += text;
    c->live_text += text.size();
  } else if (v.is_null()) {
    if (!was_null) c->live_text -= c->text_len[slot];
  } else if (was_null || TextAt(*c, slot) != v.AsString()) {
    // Changed bytes go to the arena's end; the old span becomes garbage
    // for MaybeCompact to weigh. Unchanged bytes stay where they are.
    if (!was_null) c->live_text -= c->text_len[slot];
    c->text_off[slot] = c->arena.size();
    c->text_len[slot] = v.AsString().size();
    c->arena += v.AsString();
    c->live_text += v.AsString().size();
  }
  SetBit(&c->null_bits, slot, v.is_null());
}

Status ColumnStore::Append(RowId id, const Row& row) {
  EASIA_RETURN_IF_ERROR(CheckRow(row));
  size_t slot = slot_ids_.size();
  // One hash probe doubles as the duplicate check and the insert.
  auto [it, inserted] = slot_of_.try_emplace(id, static_cast<uint32_t>(slot));
  if (!inserted) {
    return Status::Internal("columnar store: duplicate row id");
  }
  if (!slot_ids_.empty() && id < slot_ids_.back()) ordered_ = false;
  for (size_t i = 0; i < columns_.size(); ++i) {
    WriteCell(&columns_[i], slot, row[i], /*append=*/true);
  }
  slot_ids_.push_back(id);
  SetBit(&live_bits_, slot, true);
  MaybeCompact();
  return Status::OK();
}

Status ColumnStore::Update(RowId id, const Row& row) {
  auto it = slot_of_.find(id);
  if (it == slot_of_.end()) {
    return Status::NotFound("columnar store: row not found");
  }
  EASIA_RETURN_IF_ERROR(CheckRow(row));
  for (size_t i = 0; i < columns_.size(); ++i) {
    WriteCell(&columns_[i], it->second, row[i], /*append=*/false);
  }
  MaybeCompact();
  return Status::OK();
}

Status ColumnStore::Delete(RowId id) {
  auto it = slot_of_.find(id);
  if (it == slot_of_.end()) {
    return Status::NotFound("columnar store: row not found");
  }
  const size_t slot = it->second;
  for (Column& c : columns_) {
    if (IsText(c.type) && !GetBit(c.null_bits, slot)) {
      c.live_text -= c.text_len[slot];
    }
  }
  SetBit(&live_bits_, slot, false);
  slot_of_.erase(it);
  MaybeCompact();
  return Status::OK();
}

void ColumnStore::MaybeCompact() {
  const size_t dead = Slots() - LiveRows();
  bool compact = dead > 0 && dead >= LiveRows();
  for (const Column& c : columns_) {
    if (!IsText(c.type)) continue;
    const size_t live = c.live_text + Slots() * 2 * sizeof(uint64_t);
    compact = compact || c.arena.capacity() > 2 * live;
  }
  if (compact) Compact();
}

void ColumnStore::Compact() {
  std::vector<uint32_t> order;  // live slots, ascending RowId
  order.reserve(LiveRows());
  ForEachLiveSlot([&](RowId, size_t slot) {
    order.push_back(static_cast<uint32_t>(slot));
  });
  const size_t n = order.size();
  for (Column& c : columns_) {
    Column fresh;
    fresh.type = c.type;
    fresh.null_bits.assign((n + 63) / 64, 0);
    if (IsFixedInt(c.type)) {
      fresh.ints.reserve(n);
      for (uint32_t slot : order) fresh.ints.push_back(c.ints[slot]);
    } else if (c.type == DataType::kDouble) {
      fresh.doubles.reserve(n);
      for (uint32_t slot : order) fresh.doubles.push_back(c.doubles[slot]);
    } else {
      fresh.text_off.reserve(n);
      fresh.text_len.reserve(n);
      fresh.arena.reserve(c.live_text);
      for (uint32_t slot : order) {
        std::string_view text =
            GetBit(c.null_bits, slot) ? std::string_view() : TextAt(c, slot);
        fresh.text_off.push_back(fresh.arena.size());
        fresh.text_len.push_back(text.size());
        fresh.arena += text;
      }
      fresh.live_text = fresh.arena.size();
    }
    for (size_t i = 0; i < n; ++i) {
      if (GetBit(c.null_bits, order[i])) SetBit(&fresh.null_bits, i, true);
    }
    c = std::move(fresh);
  }
  std::vector<RowId> ids;
  ids.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    ids.push_back(slot_ids_[order[i]]);
    slot_of_[ids.back()] = static_cast<uint32_t>(i);
  }
  slot_ids_ = std::move(ids);
  live_bits_.assign((n + 63) / 64, 0);
  for (size_t i = 0; i < n; ++i) SetBit(&live_bits_, i, true);
  ordered_ = true;
}

Value ColumnStore::MaterialiseCell(const Column& c, size_t slot) const {
  if (GetBit(c.null_bits, slot)) return Value::Null();
  switch (c.type) {
    case DataType::kInteger:
      return Value::Integer(c.ints[slot]);
    case DataType::kTimestamp:
      return Value::Timestamp(c.ints[slot]);
    case DataType::kDouble:
      return Value::Double(c.doubles[slot]);
    case DataType::kVarchar:
      return Value::Varchar(std::string(TextAt(c, slot)));
    case DataType::kBlob:
      return Value::Blob(std::string(TextAt(c, slot)));
    case DataType::kClob:
      return Value::Clob(std::string(TextAt(c, slot)));
    case DataType::kDatalink:
      return Value::Datalink(std::string(TextAt(c, slot)));
  }
  return Value::Null();
}

void ColumnStore::MaterialiseRow(size_t slot, Row* row) const {
  row->clear();
  row->reserve(columns_.size());
  for (const Column& c : columns_) {
    row->push_back(MaterialiseCell(c, slot));
  }
}

Result<Row> ColumnStore::Get(RowId id) const {
  auto it = slot_of_.find(id);
  if (it == slot_of_.end()) {
    return Status::NotFound("columnar store: row not found");
  }
  Row row;
  MaterialiseRow(it->second, &row);
  return row;
}

template <typename Fn>
void ColumnStore::ForEachLiveSlot(Fn&& fn) const {
  if (ordered_) {
    for (size_t slot = 0; slot < slot_ids_.size(); ++slot) {
      if (SlotLive(slot)) fn(slot_ids_[slot], slot);
    }
  } else {
    // The hash map has no iteration order; rebuild the ascending-RowId
    // order the scan contract promises. Only reached between an
    // out-of-order Append and the Compact() that follows it.
    std::vector<std::pair<RowId, uint32_t>> sorted(slot_of_.begin(),
                                                   slot_of_.end());
    std::sort(sorted.begin(), sorted.end());
    for (const auto& [id, slot] : sorted) fn(id, slot);
  }
}

void ColumnStore::ForEachRow(
    const std::function<void(RowId, const Row&)>& fn) const {
  Row scratch;
  ForEachLiveSlot([&](RowId id, size_t slot) {
    MaterialiseRow(slot, &scratch);
    fn(id, scratch);
  });
}

void ColumnStore::ForEachValue(
    size_t column, const std::function<bool(const Value&)>& fn) const {
  bool more = true;
  ForEachLiveSlot([&](RowId, size_t slot) {
    more = more && fn(MaterialiseCell(columns_[column], slot));
  });
}

bool ColumnStore::EvalPredicate(const ColPredicate& p, size_t slot) const {
  const Column& c = columns_[p.column];
  bool is_null = GetBit(c.null_bits, slot);
  switch (p.op) {
    case ColPredicate::Op::kIsNull:
      return is_null;
    case ColPredicate::Op::kIsNotNull:
      return !is_null;
    default:
      break;
  }
  // Any comparison against NULL is NULL, which the executor rejects.
  if (is_null || p.literal.is_null()) return false;
  if (p.op == ColPredicate::Op::kLike || p.op == ColPredicate::Op::kNotLike) {
    bool match = LikeMatch(TextAt(c, slot), p.literal.AsString());
    return p.op == ColPredicate::Op::kLike ? match : !match;
  }
  int cmp;
  if (IsText(c.type)) {
    cmp = std::string_view(TextAt(c, slot)).compare(p.literal.AsString());
  } else if (IsFixedInt(c.type) && p.literal.type() != DataType::kDouble) {
    // Two integer-backed values compare exactly, as in Value::Compare:
    // through double, distinct values past 2^53 would tie.
    cmp = ThreeWay(c.ints[slot], p.literal.AsInt());
  } else {
    double lhs = IsFixedInt(c.type) ? static_cast<double>(c.ints[slot])
                                    : c.doubles[slot];
    cmp = ThreeWay(lhs, p.literal.AsDouble());
  }
  return ComparisonPasses(p.op, cmp);
}

bool ColumnStore::PassesAll(const std::vector<ColPredicate>& preds,
                            size_t slot) const {
  for (const ColPredicate& p : preds) {
    if (!EvalPredicate(p, slot)) return false;
  }
  return true;
}

std::vector<RowId> ColumnStore::FilterScan(
    const std::vector<ColPredicate>& predicates) const {
  std::vector<RowId> out;
  ForEachLiveSlot([&](RowId id, size_t slot) {
    if (PassesAll(predicates, slot)) out.push_back(id);
  });
  return out;
}

Result<std::vector<AggGroup>> ColumnStore::AggregateScan(
    const std::vector<ColPredicate>& predicates,
    const std::vector<size_t>& group_by,
    const std::vector<AggSpec>& aggs) const {
  for (const AggSpec& a : aggs) {
    if (a.fn == AggSpec::Fn::kCountStar) continue;
    if (a.column >= columns_.size()) {
      return Status::Internal("columnar aggregate: bad column index");
    }
    if ((a.fn == AggSpec::Fn::kSum || a.fn == AggSpec::Fn::kAvg) &&
        IsText(columns_[a.column].type)) {
      return Status::InvalidArgument("SUM/AVG over non-numeric column");
    }
  }

  std::map<std::string, size_t> group_index;
  std::vector<GroupState> groups;
  std::string key;
  ForEachLiveSlot([&](RowId /*id*/, size_t slot) {
    if (!PassesAll(predicates, slot)) return;
    key.clear();
    for (size_t col : group_by) {
      const Column& c = columns_[col];
      bool cell_null = GetBit(c.null_bits, slot);
      if (IsText(c.type)) {
        AppendKeyFragment(cell_null, /*numeric=*/false, 0,
                          cell_null ? std::string_view() : TextAt(c, slot),
                          &key);
      } else {
        double num = cell_null ? 0
                     : IsFixedInt(c.type)
                         ? static_cast<double>(c.ints[slot])
                         : c.doubles[slot];
        AppendKeyFragment(cell_null, /*numeric=*/true, num, {}, &key);
      }
    }
    auto [it, inserted] = group_index.try_emplace(key, groups.size());
    if (inserted) {
      GroupState state;
      state.first_slot = slot;
      state.accs.resize(aggs.size());
      groups.push_back(std::move(state));
    }
    GroupState& g = groups[it->second];
    ++g.count;
    for (size_t i = 0; i < aggs.size(); ++i) {
      const AggSpec& a = aggs[i];
      if (a.fn == AggSpec::Fn::kCountStar) continue;
      const Column& c = columns_[a.column];
      if (GetBit(c.null_bits, slot)) continue;  // aggregates skip NULLs
      AggAcc& acc = g.accs[i];
      ++acc.non_null;
      switch (a.fn) {
        case AggSpec::Fn::kCount:
          break;
        case AggSpec::Fn::kSum:
        case AggSpec::Fn::kAvg: {
          if (c.type == DataType::kDouble) {
            acc.all_int = false;
            acc.sum += c.doubles[slot];
          } else {
            acc.sum += static_cast<double>(c.ints[slot]);
            acc.isum += c.ints[slot];
          }
          break;
        }
        case AggSpec::Fn::kMin:
        case AggSpec::Fn::kMax: {
          bool better;
          if (IsText(c.type)) {
            std::string_view text = TextAt(c, slot);
            if (!acc.has_extreme) {
              better = true;
            } else {
              int cmp = text.compare(acc.extreme_text);
              better = a.fn == AggSpec::Fn::kMin ? cmp < 0 : cmp > 0;
            }
            if (better) {
              acc.extreme_text.assign(text);
              acc.extreme_slot = slot;
            }
          } else if (IsFixedInt(c.type)) {
            // Integer columns compare exactly — a double track would tie
            // distinct values past 2^53 (see Value::Compare).
            int64_t num = c.ints[slot];
            if (!acc.has_extreme) {
              better = true;
            } else {
              better = a.fn == AggSpec::Fn::kMin ? num < acc.extreme_int
                                                 : num > acc.extreme_int;
            }
            if (better) {
              acc.extreme_int = num;
              acc.extreme_numeric = true;
              acc.extreme_slot = slot;
            }
          } else {
            double num = c.doubles[slot];
            if (!acc.has_extreme) {
              better = true;
            } else {
              better = a.fn == AggSpec::Fn::kMin ? num < acc.extreme_num
                                                 : num > acc.extreme_num;
            }
            if (better) {
              acc.extreme_num = num;
              acc.extreme_numeric = true;
              acc.extreme_slot = slot;
            }
          }
          acc.has_extreme = true;
          break;
        }
        default:
          break;
      }
    }
  });

  // Zero matching rows without GROUP BY still aggregates once.
  if (group_by.empty() && groups.empty()) {
    GroupState state;
    state.accs.resize(aggs.size());
    state.first_slot = SIZE_MAX;
    groups.push_back(std::move(state));
  }

  std::vector<AggGroup> out;
  out.reserve(groups.size());
  for (const GroupState& g : groups) {
    AggGroup group;
    if (g.count == 0) {
      group.first_row.assign(columns_.size(), Value::Null());
    } else {
      MaterialiseRow(g.first_slot, &group.first_row);
    }
    group.aggregates.reserve(aggs.size());
    for (size_t i = 0; i < aggs.size(); ++i) {
      const AggSpec& a = aggs[i];
      const AggAcc& acc = g.accs[i];
      switch (a.fn) {
        case AggSpec::Fn::kCountStar:
          group.aggregates.push_back(
              Value::Integer(static_cast<int64_t>(g.count)));
          break;
        case AggSpec::Fn::kCount:
          group.aggregates.push_back(
              Value::Integer(static_cast<int64_t>(acc.non_null)));
          break;
        case AggSpec::Fn::kSum:
          if (acc.non_null == 0) {
            group.aggregates.push_back(Value::Null());
          } else {
            group.aggregates.push_back(
                FinishSum(acc.all_int, acc.isum, acc.sum));
          }
          break;
        case AggSpec::Fn::kAvg:
          if (acc.non_null == 0) {
            group.aggregates.push_back(Value::Null());
          } else {
            group.aggregates.push_back(
                FinishAvg(acc.all_int, acc.isum, acc.sum,
                          static_cast<int64_t>(acc.non_null)));
          }
          break;
        case AggSpec::Fn::kMin:
        case AggSpec::Fn::kMax:
          if (!acc.has_extreme) {
            group.aggregates.push_back(Value::Null());
          } else {
            group.aggregates.push_back(
                MaterialiseCell(columns_[a.column], acc.extreme_slot));
          }
          break;
      }
    }
    out.push_back(std::move(group));
  }
  return out;
}

size_t ColumnStore::ApproxBytes() const {
  size_t bytes = 0;
  for (const Column& c : columns_) {
    bytes += c.ints.capacity() * sizeof(int64_t) +
             c.doubles.capacity() * sizeof(double) +
             c.text_off.capacity() * sizeof(uint64_t) +
             c.text_len.capacity() * sizeof(uint64_t) + c.arena.capacity() +
             c.null_bits.capacity() * sizeof(uint64_t);
  }
  bytes += slot_ids_.capacity() * sizeof(RowId) +
           live_bits_.capacity() * sizeof(uint64_t) +
           slot_of_.size() * (sizeof(RowId) + sizeof(uint32_t) + 48);
  return bytes;
}

}  // namespace easia::db::store
