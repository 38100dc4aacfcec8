#include "db/planner.h"

#include <algorithm>
#include <limits>
#include <map>
#include <optional>
#include <set>

#include "common/string_util.h"

namespace easia::db {

namespace {

/// Flattens the top-level AND tree of `expr` into conjuncts. Splitting is
/// sound under SQL three-valued logic: AND(a, b) is truthy iff both a and b
/// are truthy, so filtering by each conjunct in turn rejects exactly the
/// same rows as filtering by the conjunction.
void SplitConjuncts(const Expr& expr, std::vector<const Expr*>* out) {
  if (expr.kind == Expr::Kind::kBinary && expr.op == Expr::Op::kAnd) {
    SplitConjuncts(*expr.left, out);
    SplitConjuncts(*expr.right, out);
    return;
  }
  out->push_back(&expr);
}

/// Column namespace of the FROM list used to decide which tables a
/// predicate touches.
struct AliasSchema {
  std::string alias;
  const Table* table;
};

/// Resolves one column reference to the FROM entry that owns it. Returns
/// nullopt when the reference is unknown or ambiguous — the caller then
/// refuses to move the enclosing conjunct, so the executor surfaces the
/// same error the unplanned path would.
std::optional<size_t> ResolveAlias(const std::vector<AliasSchema>& aliases,
                                   const std::string& table,
                                   const std::string& column) {
  std::optional<size_t> found;
  for (size_t i = 0; i < aliases.size(); ++i) {
    if (!table.empty() && !EqualsIgnoreCase(aliases[i].alias, table)) {
      continue;
    }
    if (aliases[i].table->def().FindColumn(column) == nullptr) continue;
    if (found.has_value()) return std::nullopt;  // ambiguous
    found = i;
  }
  return found;
}

/// Collects the set of FROM entries referenced by `expr` into `out`.
/// Returns false when any reference fails to resolve uniquely.
bool CollectAliases(const Expr& expr, const std::vector<AliasSchema>& aliases,
                    std::set<size_t>* out) {
  if (expr.kind == Expr::Kind::kColumn) {
    std::optional<size_t> idx = ResolveAlias(aliases, expr.table, expr.column);
    if (!idx.has_value()) return false;
    out->insert(*idx);
    return true;
  }
  if (expr.left != nullptr && !CollectAliases(*expr.left, aliases, out)) {
    return false;
  }
  if (expr.right != nullptr && !CollectAliases(*expr.right, aliases, out)) {
    return false;
  }
  for (const auto& a : expr.args) {
    if (!CollectAliases(*a, aliases, out)) return false;
  }
  return true;
}

/// A conjunct awaiting placement, with the FROM entries it references.
/// ON conjuncts are treated like WHERE conjuncts here: every join the
/// engine executes is an inner join, where pushing a condition earlier
/// than its syntactic position skips exactly the rows the unplanned ON
/// evaluation also skips.
struct Conjunct {
  const Expr* expr;
  std::set<size_t> aliases;
  bool placed = false;
};

/// True when `expr` is `column = literal` (either side order) over the
/// given FROM entry; fills the column name and literal.
bool MatchColumnEqualsLiteral(const Expr& expr,
                              const std::vector<AliasSchema>& aliases,
                              size_t alias_index, std::string* column,
                              Value* literal) {
  if (expr.kind != Expr::Kind::kBinary || expr.op != Expr::Op::kEq) {
    return false;
  }
  const Expr* col = nullptr;
  const Expr* lit = nullptr;
  for (const Expr* side : {expr.left.get(), expr.right.get()}) {
    if (side->kind == Expr::Kind::kColumn) col = side;
    if (side->kind == Expr::Kind::kLiteral) lit = side;
  }
  if (col == nullptr || lit == nullptr || lit->literal.is_null()) {
    return false;
  }
  std::optional<size_t> owner = ResolveAlias(aliases, col->table, col->column);
  if (!owner.has_value() || *owner != alias_index) return false;
  *column = col->column;
  *literal = lit->literal;
  return true;
}

/// Hash-join keys must agree with the executor's equality semantics:
/// Value::Compare treats numeric kinds as one family and string kinds as
/// another, and Value::ToKeyString (the hash key) mirrors exactly that
/// split. Mixed numeric/string comparisons fall back to display-form
/// equality, which ToKeyString does not model — such pairs stay in the
/// nested-loop/residual path.
bool HashComparable(DataType a, DataType b) {
  return IsNumericType(a) == IsNumericType(b);
}

/// Translates one pushed conjunct into a ColumnStore kernel predicate.
/// Only shapes whose kernel evaluation provably agrees with EvalExpr
/// convert: plain-column IS [NOT] NULL, and column-vs-literal comparisons
/// where the literal sits in the column's comparison family (mixed
/// families fall back to display-form equality, which the kernel does not
/// model). Returns false to leave the conjunct on the row-at-a-time path.
bool ConvertToColPredicate(const Expr& expr,
                           const std::vector<AliasSchema>& aliases,
                           size_t alias_index, store::ColPredicate* out) {
  const TableDef& def = aliases[alias_index].table->def();
  auto own_column = [&](const Expr* e, size_t* index) {
    if (e->kind != Expr::Kind::kColumn) return false;
    std::optional<size_t> owner = ResolveAlias(aliases, e->table, e->column);
    if (!owner.has_value() || *owner != alias_index) return false;
    Result<size_t> idx = def.ColumnIndex(e->column);
    if (!idx.ok()) return false;
    *index = *idx;
    return true;
  };
  if (expr.kind == Expr::Kind::kIsNull) {
    if (!own_column(expr.left.get(), &out->column)) return false;
    out->op = expr.negated ? store::ColPredicate::Op::kIsNotNull
                           : store::ColPredicate::Op::kIsNull;
    return true;
  }
  if (expr.kind != Expr::Kind::kBinary) return false;
  using Op = store::ColPredicate::Op;
  if (expr.op == Expr::Op::kLike || expr.op == Expr::Op::kNotLike) {
    // LIKE is not symmetric: only `column LIKE literal` converts.
    if (!own_column(expr.left.get(), &out->column)) return false;
    if (expr.right->kind != Expr::Kind::kLiteral ||
        !expr.right->literal.IsStringKind()) {
      return false;
    }
    if (IsNumericType(def.columns[out->column].type)) return false;
    out->op = expr.op == Expr::Op::kLike ? Op::kLike : Op::kNotLike;
    out->literal = expr.right->literal;
    return true;
  }
  Op op;
  Op flipped;
  switch (expr.op) {
    case Expr::Op::kEq: op = Op::kEq; flipped = Op::kEq; break;
    case Expr::Op::kNe: op = Op::kNe; flipped = Op::kNe; break;
    case Expr::Op::kLt: op = Op::kLt; flipped = Op::kGt; break;
    case Expr::Op::kLe: op = Op::kLe; flipped = Op::kGe; break;
    case Expr::Op::kGt: op = Op::kGt; flipped = Op::kLt; break;
    case Expr::Op::kGe: op = Op::kGe; flipped = Op::kLe; break;
    default:
      return false;
  }
  const Expr* lit = nullptr;
  if (own_column(expr.left.get(), &out->column) &&
      expr.right->kind == Expr::Kind::kLiteral) {
    lit = expr.right.get();
    out->op = op;
  } else if (own_column(expr.right.get(), &out->column) &&
             expr.left->kind == Expr::Kind::kLiteral) {
    lit = expr.left.get();
    out->op = flipped;
  } else {
    return false;
  }
  if (lit->literal.is_null()) return false;
  bool column_numeric = IsNumericType(def.columns[out->column].type);
  if (column_numeric != lit->literal.IsNumericKind()) return false;
  out->literal = lit->literal;
  return true;
}

/// Picks the access path for one scan from its pushed-down equality
/// predicates: a unique index whose columns are all pinned beats a
/// secondary (FK) index beats a radix prefix scan beats a sequential scan.
void ChooseAccessPath(ScanPlan* scan,
                      const std::vector<AliasSchema>& aliases,
                      size_t alias_index) {
  // Equality predicates available on this table, by upper-cased column.
  std::map<std::string, Value> equalities;
  for (const Expr* e : scan->pushed) {
    std::string column;
    Value literal;
    if (MatchColumnEqualsLiteral(*e, aliases, alias_index, &column,
                                 &literal)) {
      equalities.emplace(ToUpper(column), std::move(literal));
    }
  }
  const TableDef& def = scan->table->def();
  auto try_index = [&](const std::vector<std::string>& columns,
                       ScanPlan::Access access) {
    std::vector<Value> key;
    for (const std::string& col : columns) {
      auto it = equalities.find(ToUpper(col));
      if (it == equalities.end()) return false;
      const ColumnDef* cdef = def.FindColumn(col);
      if (cdef == nullptr) return false;
      // Coerce the literal so index keys agree with stored values. A
      // literal that cannot coerce (e.g. 'abc' against INTEGER) can still
      // be display-equal to nothing, so a plain scan handles it.
      Result<Value> coerced = it->second.CoerceTo(cdef->type);
      if (!coerced.ok()) return false;
      key.push_back(std::move(*coerced));
    }
    scan->access = access;
    scan->index_columns = columns;
    scan->key_values = std::move(key);
    return true;
  };
  if (!equalities.empty()) {
    for (const std::vector<std::string>& columns :
         scan->table->UniqueIndexColumns()) {
      if (try_index(columns, ScanPlan::Access::kUniqueLookup)) return;
    }
    for (const std::vector<std::string>& columns :
         scan->table->SecondaryIndexColumns()) {
      if (try_index(columns, ScanPlan::Access::kIndexScan)) return;
    }
  }
  // Radix prefix scan: a pushed `col LIKE 'prefix...'` conjunct over a
  // radix-indexed TEXT column narrows the scan to rows starting with the
  // pattern's literal prefix. The conjunct stays in `pushed` and is still
  // re-evaluated per fetched row, so the wildcard tail (and any other
  // conjunct) filters exactly as before.
  for (const Expr* e : scan->pushed) {
    if (e->kind != Expr::Kind::kBinary || e->op != Expr::Op::kLike) continue;
    if (e->left->kind != Expr::Kind::kColumn ||
        e->right->kind != Expr::Kind::kLiteral ||
        !e->right->literal.IsStringKind()) {
      continue;
    }
    std::optional<size_t> owner =
        ResolveAlias(aliases, e->left->table, e->left->column);
    if (!owner.has_value() || *owner != alias_index) continue;
    Result<size_t> col = def.ColumnIndex(e->left->column);
    if (!col.ok() || !scan->table->HasRadixIndex(def.columns[*col].name)) {
      continue;
    }
    std::string prefix = LikePatternPrefix(e->right->literal.AsString());
    if (prefix.empty()) continue;  // leading wildcard: nothing to narrow
    scan->access = ScanPlan::Access::kPrefixScan;
    scan->prefix = std::move(prefix);
    scan->index_columns = {def.columns[*col].name};
    return;
  }
}

/// A seq scan whose pushed conjuncts all convert runs the filter kernel
/// (Table::FilterScan) instead of copying every row.
/// All-or-nothing: partial conversion could change which conjunct errors
/// first.
void ChooseKernelFilter(ScanPlan* scan,
                        const std::vector<AliasSchema>& aliases,
                        size_t alias_index) {
  if (scan->access != ScanPlan::Access::kSeqScan || scan->pushed.empty()) {
    return;
  }
  std::vector<store::ColPredicate> preds;
  for (const Expr* e : scan->pushed) {
    store::ColPredicate p;
    if (!ConvertToColPredicate(*e, aliases, alias_index, &p)) return;
    preds.push_back(std::move(p));
  }
  scan->kernel_filter = true;
  scan->kernel_predicates = std::move(preds);
}

/// Decides whether the whole aggregate query maps onto one columnar
/// AggregateScan kernel call, and fills the kernel spec when it does. Every
/// bail-out leaves the query on the row path, which handles the general
/// case; the fast path only claims shapes it evaluates identically.
void PlanAggregateFastPath(const SelectStmt& stmt,
                           const std::vector<AliasSchema>& aliases,
                           SelectPlan* plan) {
  if (plan->scans.size() != 1) return;
  ScanPlan& scan = plan->scans[0];
  if (scan.access != ScanPlan::Access::kSeqScan) return;
  if (!scan.pushed.empty() && !scan.kernel_filter) return;
  if (!plan->residual_where.empty()) return;
  if (stmt.having != nullptr || !stmt.order_by.empty() || stmt.distinct ||
      stmt.limit >= 0 || stmt.offset > 0) {
    return;
  }
  const TableDef& def = scan.table->def();
  auto plain_column = [&](const Expr& e, size_t* index) {
    if (e.kind != Expr::Kind::kColumn) return false;
    std::optional<size_t> owner = ResolveAlias(aliases, e.table, e.column);
    if (!owner.has_value() || *owner != 0) return false;
    Result<size_t> idx = def.ColumnIndex(e.column);
    if (!idx.ok()) return false;
    *index = *idx;
    return true;
  };
  std::vector<size_t> group_cols;
  for (const auto& g : stmt.group_by) {
    size_t idx;
    if (!plain_column(*g, &idx)) return;
    group_cols.push_back(idx);
  }
  std::vector<store::AggSpec> aggs;
  std::vector<AggregatePlan::Item> items;
  for (const SelectItem& item : stmt.items) {
    if (item.star || item.expr == nullptr) return;
    const Expr& e = *item.expr;
    size_t idx = 0;
    if (plain_column(e, &idx)) {
      // The DATALINK presentation rewrite applies to direct column
      // outputs, which the kernel result path does not run.
      if (def.columns[idx].type == DataType::kDatalink) return;
      items.push_back({false, idx});
      continue;
    }
    if (e.kind != Expr::Kind::kCall || !IsAggregateFunction(e.func)) return;
    store::AggSpec spec;
    if (e.func == "COUNT" && e.star) {
      spec.fn = store::AggSpec::Fn::kCountStar;
    } else {
      if (e.args.size() != 1 || !plain_column(*e.args[0], &spec.column)) {
        return;
      }
      bool numeric = IsNumericType(def.columns[spec.column].type);
      if (e.func == "COUNT") {
        spec.fn = store::AggSpec::Fn::kCount;
      } else if (e.func == "SUM" || e.func == "AVG") {
        // The row path only errors on SUM/AVG when a non-null non-numeric
        // value is actually aggregated (all-NULL groups pass); a static
        // kernel check cannot reproduce that, so text columns stay there.
        if (!numeric) return;
        spec.fn = e.func == "SUM" ? store::AggSpec::Fn::kSum
                                  : store::AggSpec::Fn::kAvg;
      } else if (e.func == "MIN") {
        spec.fn = store::AggSpec::Fn::kMin;
      } else if (e.func == "MAX") {
        spec.fn = store::AggSpec::Fn::kMax;
      } else {
        return;
      }
    }
    items.push_back({true, aggs.size()});
    aggs.push_back(spec);
  }
  plan->aggregate.fast_path = true;
  plan->aggregate.group_by_cols = std::move(group_cols);
  plan->aggregate.aggs = std::move(aggs);
  plan->aggregate.items = std::move(items);
}

std::string DescribeExprList(const std::vector<const Expr*>& exprs) {
  std::vector<std::string> parts;
  for (const Expr* e : exprs) parts.push_back(e->ToString());
  return Join(parts, " AND ");
}

// ---------------------------------------------------------------------------
// Cost model. Quantities are rough "rows touched" counts; the only consumer
// is a relative comparison between alternative shapes of the same query, so
// the units merely need to be consistent.
// ---------------------------------------------------------------------------

constexpr double kDefaultSelectivity = 0.33;
/// Deviating from the FROM-order/hash-join shape must beat it by BOTH a
/// ratio and an absolute margin. A reordered plan pays an extra
/// order-restoring sort of its result, and on small catalogues plan
/// stability (deterministic EXPLAIN shapes) is worth more than a few dozen
/// rows of estimated savings.
constexpr double kReorderRatio = 0.9;
constexpr double kMinCostGain = 1000.0;

/// Statistics sketch behind a bare own-column reference, else null.
const stats::ColumnSketch* SketchFor(const Expr* e,
                                     const std::vector<AliasSchema>& aliases,
                                     size_t alias_index) {
  if (e == nullptr || e->kind != Expr::Kind::kColumn) return nullptr;
  std::optional<size_t> owner = ResolveAlias(aliases, e->table, e->column);
  if (!owner.has_value() || *owner != alias_index) return nullptr;
  const Table* table = aliases[alias_index].table;
  Result<size_t> idx = table->def().ColumnIndex(e->column);
  const stats::TableStats& ts = table->table_stats();
  if (!idx.ok() || *idx >= ts.column_count()) return nullptr;
  return &ts.column(*idx);
}

/// Estimated fraction of the table's rows satisfying one pushed conjunct.
double PushedSelectivity(const Expr& e,
                         const std::vector<AliasSchema>& aliases,
                         size_t alias_index) {
  if (e.kind == Expr::Kind::kIsNull) {
    const stats::ColumnSketch* s =
        SketchFor(e.left.get(), aliases, alias_index);
    if (s == nullptr) return kDefaultSelectivity;
    return e.negated ? 1.0 - s->NullFraction() : s->NullFraction();
  }
  if (e.kind != Expr::Kind::kBinary) return kDefaultSelectivity;
  if (e.op == Expr::Op::kLike || e.op == Expr::Op::kNotLike) {
    const stats::ColumnSketch* s =
        SketchFor(e.left.get(), aliases, alias_index);
    if (s == nullptr || e.right == nullptr ||
        e.right->kind != Expr::Kind::kLiteral ||
        !e.right->literal.IsStringKind()) {
      return kDefaultSelectivity;
    }
    std::string prefix = LikePatternPrefix(e.right->literal.AsString());
    double sel =
        prefix.empty()
            ? kDefaultSelectivity
            : s->SelectivityOf(
                  [&prefix](const Value& v) {
                    return v.IsStringKind() &&
                           v.AsString().compare(0, prefix.size(), prefix) ==
                               0;
                  },
                  /*fallback=*/0.1);
    return e.op == Expr::Op::kLike ? sel : std::max(0.0, 1.0 - sel);
  }
  const Expr* col = nullptr;
  const Expr* lit = nullptr;
  bool flipped = false;
  if (e.left != nullptr && e.right != nullptr) {
    if (e.left->kind == Expr::Kind::kColumn &&
        e.right->kind == Expr::Kind::kLiteral) {
      col = e.left.get();
      lit = e.right.get();
    } else if (e.right->kind == Expr::Kind::kColumn &&
               e.left->kind == Expr::Kind::kLiteral) {
      col = e.right.get();
      lit = e.left.get();
      flipped = true;
    }
  }
  if (col == nullptr || lit->literal.is_null()) return kDefaultSelectivity;
  const stats::ColumnSketch* s = SketchFor(col, aliases, alias_index);
  if (s == nullptr) return kDefaultSelectivity;
  Expr::Op op = e.op;
  if (flipped) {
    switch (op) {
      case Expr::Op::kLt: op = Expr::Op::kGt; break;
      case Expr::Op::kLe: op = Expr::Op::kGe; break;
      case Expr::Op::kGt: op = Expr::Op::kLt; break;
      case Expr::Op::kGe: op = Expr::Op::kLe; break;
      default: break;
    }
  }
  const Value& v = lit->literal;
  switch (op) {
    case Expr::Op::kEq:
      return s->EqualitySelectivity(v);
    case Expr::Op::kNe:
      return std::max(0.0,
                      1.0 - s->NullFraction() - s->EqualitySelectivity(v));
    case Expr::Op::kLt:
      return s->SelectivityOf(
          [&v](const Value& x) { return x.Compare(v) < 0; },
          kDefaultSelectivity);
    case Expr::Op::kLe:
      return s->SelectivityOf(
          [&v](const Value& x) { return x.Compare(v) <= 0; },
          kDefaultSelectivity);
    case Expr::Op::kGt:
      return s->SelectivityOf(
          [&v](const Value& x) { return x.Compare(v) > 0; },
          kDefaultSelectivity);
    case Expr::Op::kGe:
      return s->SelectivityOf(
          [&v](const Value& x) { return x.Compare(v) >= 0; },
          kDefaultSelectivity);
    default:
      return kDefaultSelectivity;
  }
}

struct AccessEstimate {
  double est_rows = 0;   // rows surviving the pushed filters
  double scan_cost = 0;  // cost of materialising this scan's base rows
};

AccessEstimate EstimateScan(const ScanPlan& scan,
                            const std::vector<AliasSchema>& aliases,
                            size_t alias_index) {
  double n = static_cast<double>(scan.table->RowCount());
  double sel = 1.0;
  for (const Expr* e : scan.pushed) {
    sel *= PushedSelectivity(*e, aliases, alias_index);
  }
  AccessEstimate out;
  out.est_rows = n * sel;
  switch (scan.access) {
    case ScanPlan::Access::kSeqScan:
      out.scan_cost = n;
      break;
    case ScanPlan::Access::kUniqueLookup:
      out.est_rows = std::min(out.est_rows, 1.0);
      out.scan_cost = 1.0;
      break;
    case ScanPlan::Access::kIndexScan:
    case ScanPlan::Access::kPrefixScan:
      out.scan_cost = std::max(out.est_rows, 1.0);
      break;
  }
  return out;
}

/// A conjunct of the canonical two-table equi-join shape `A.x = B.y`
/// (bare hash-comparable columns of two distinct FROM entries).
struct EquiPair {
  const Expr* expr = nullptr;
  const Expr* side_a = nullptr;  // column expr owned by FROM entry fa
  const Expr* side_b = nullptr;
  size_t fa = 0, fb = 0;
  size_t col_a = 0, col_b = 0;  // column indexes within their tables
};

bool MatchEquiPair(const Expr& expr, const std::vector<AliasSchema>& aliases,
                   EquiPair* out) {
  if (expr.kind != Expr::Kind::kBinary || expr.op != Expr::Op::kEq) {
    return false;
  }
  if (expr.left->kind != Expr::Kind::kColumn ||
      expr.right->kind != Expr::Kind::kColumn) {
    return false;
  }
  std::optional<size_t> a =
      ResolveAlias(aliases, expr.left->table, expr.left->column);
  std::optional<size_t> b =
      ResolveAlias(aliases, expr.right->table, expr.right->column);
  if (!a.has_value() || !b.has_value() || *a == *b) return false;
  const TableDef& def_a = aliases[*a].table->def();
  const TableDef& def_b = aliases[*b].table->def();
  const ColumnDef* ca = def_a.FindColumn(expr.left->column);
  const ColumnDef* cb = def_b.FindColumn(expr.right->column);
  if (ca == nullptr || cb == nullptr || !HashComparable(ca->type, cb->type)) {
    return false;
  }
  Result<size_t> ia = def_a.ColumnIndex(expr.left->column);
  Result<size_t> ib = def_b.ColumnIndex(expr.right->column);
  if (!ia.ok() || !ib.ok()) return false;
  out->expr = &expr;
  out->side_a = expr.left.get();
  out->side_b = expr.right.get();
  out->fa = *a;
  out->fb = *b;
  out->col_a = *ia;
  out->col_b = *ib;
  return true;
}

/// Distinct-value estimate for a join key column, clamped by how many rows
/// of that table survive its pushed filters.
double NdvOf(const Table* table, size_t col_index, double est_rows) {
  const stats::TableStats& ts = table->table_stats();
  double ndv = col_index < ts.column_count()
                   ? ts.column(col_index).DistinctEstimate()
                   : 1.0;
  return std::min(std::max(ndv, 1.0), std::max(est_rows, 1.0));
}

/// The unique/secondary index of `table` covering exactly the given key
/// columns (as an unordered set), returned in the index's own column
/// order. Nullopt when none matches.
std::optional<std::vector<std::string>> FindExactIndex(
    const Table* table, const std::vector<std::string>& key_cols_upper) {
  auto matches = [&](const std::vector<std::string>& cols) {
    if (cols.size() != key_cols_upper.size()) return false;
    for (const std::string& c : cols) {
      bool found = false;
      for (const std::string& k : key_cols_upper) {
        if (ToUpper(c) == k) found = true;
      }
      if (!found) return false;
    }
    return true;
  };
  for (const auto& cols : table->UniqueIndexColumns()) {
    if (matches(cols)) return cols;
  }
  for (const auto& cols : table->SecondaryIndexColumns()) {
    if (matches(cols)) return cols;
  }
  return std::nullopt;
}

/// One join position of a walked permutation.
struct JoinStep {
  double left_rows = 0;  // estimated rows accumulated before this join
  double out_rows = 0;   // estimated rows surviving it
  bool has_equi = false;
  double hash_cost = 0;
  double index_loop_cost = 0;  // infinity when no covering index exists
  std::vector<std::string> index_columns;  // covering index, if any
};

/// Estimated total cost of executing the scans in `perm` order (perm maps
/// exec position -> FROM index). Fills `steps` (indexed by exec position
/// minus one) when non-null.
double WalkPermutation(const std::vector<size_t>& perm,
                       const std::vector<ScanPlan>& prepared,
                       const std::vector<AccessEstimate>& est,
                       const std::vector<EquiPair>& equis,
                       const std::vector<const Conjunct*>& multi_residual,
                       const std::vector<AliasSchema>& aliases,
                       std::vector<JoinStep>* steps) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<size_t> pos(perm.size());
  for (size_t p = 0; p < perm.size(); ++p) pos[perm[p]] = p;
  double rows = est[perm[0]].est_rows;
  double cost = est[perm[0]].scan_cost;
  for (size_t p = 1; p < perm.size(); ++p) {
    size_t f = perm[p];
    double b_rows = est[f].est_rows;
    double out = rows * b_rows;
    JoinStep step;
    step.left_rows = rows;
    std::vector<std::string> right_cols_upper;
    for (const EquiPair& eq : equis) {
      size_t last = std::max(pos[eq.fa], pos[eq.fb]);
      if (last != p) continue;
      step.has_equi = true;
      bool right_is_a = pos[eq.fa] == p;
      size_t right_f = right_is_a ? eq.fa : eq.fb;
      size_t left_f = right_is_a ? eq.fb : eq.fa;
      size_t right_col = right_is_a ? eq.col_a : eq.col_b;
      size_t left_col = right_is_a ? eq.col_b : eq.col_a;
      // Classic equi-join cardinality: divide by the larger key domain.
      out /= std::max(
          {NdvOf(aliases[right_f].table, right_col, est[right_f].est_rows),
           NdvOf(aliases[left_f].table, left_col, est[left_f].est_rows),
           1.0});
      right_cols_upper.push_back(
          ToUpper(aliases[right_f].table->def().columns[right_col].name));
    }
    for (const Conjunct* c : multi_residual) {
      size_t last = 0;
      for (size_t a : c->aliases) last = std::max(last, pos[a]);
      if (last == p) out *= kDefaultSelectivity;
    }
    double step_cost;
    if (step.has_equi) {
      // Hash join: materialise + hash the right side (2x build factor for
      // construction and memory), probe once per accumulated row.
      step.hash_cost = est[f].scan_cost + 2.0 * b_rows + rows + out;
      step.index_loop_cost = kInf;
      if (prepared[f].access == ScanPlan::Access::kSeqScan) {
        std::optional<std::vector<std::string>> idx =
            FindExactIndex(prepared[f].table, right_cols_upper);
        if (idx.has_value()) {
          // Index loop: no right-side materialisation at all; one probe
          // (charged 2x a hash probe for the tree descent) per
          // accumulated row.
          step.index_loop_cost = 2.0 * rows + out;
          step.index_columns = std::move(*idx);
        }
      }
      step_cost = std::min(step.hash_cost, step.index_loop_cost);
    } else {
      // Nested loop: cross product, residual filtering per combined row.
      step_cost = est[f].scan_cost + rows * b_rows;
    }
    cost += step_cost;
    rows = std::max(out, 0.0);
    step.out_rows = rows;
    if (steps != nullptr) (*steps)[p - 1] = std::move(step);
  }
  return cost;
}

}  // namespace

Result<SelectPlan> PlanSelect(const SelectStmt& stmt,
                              const TableLookup& lookup,
                              const PlannerOptions& options) {
  if (stmt.from.empty()) {
    return Status::InvalidArgument("SELECT requires a FROM clause");
  }
  SelectPlan plan;
  plan.stmt = &stmt;
  std::vector<AliasSchema> aliases;
  std::vector<ScanPlan> prepared;  // in FROM order until assembly
  for (size_t i = 0; i < stmt.from.size(); ++i) {
    const TableRef& ref = stmt.from[i];
    EASIA_ASSIGN_OR_RETURN(const Table* table, lookup(ref.table));
    aliases.push_back({ref.alias, table});
    ScanPlan scan;
    scan.table = table;
    scan.alias = ref.alias;
    scan.from_index = i;
    prepared.push_back(std::move(scan));
  }
  size_t n = prepared.size();

  // --- Gather conjuncts from WHERE and every ON condition ---
  std::vector<Conjunct> conjuncts;
  std::vector<const Expr*> unresolved_where;
  // ON conditions kept whole at their syntactic join (any part failed to
  // resolve, or referenced a table joined later). These pin the plan to
  // FROM order: the unplanned executor evaluates them over exactly the
  // tables joined so far, and moving tables around would change that set.
  std::vector<std::pair<size_t, const Expr*>> forced_on;
  if (stmt.where != nullptr) {
    std::vector<const Expr*> parts;
    SplitConjuncts(*stmt.where, &parts);
    for (const Expr* e : parts) {
      Conjunct c;
      c.expr = e;
      if (!CollectAliases(*e, aliases, &c.aliases)) {
        // Unknown/ambiguous reference: leave the conjunct in the final
        // residual so evaluation reports the same error as before.
        unresolved_where.push_back(e);
        continue;
      }
      conjuncts.push_back(std::move(c));
    }
  }
  for (size_t i = 1; i < stmt.from.size(); ++i) {
    const Expr* cond = stmt.from[i].join_condition.get();
    if (cond == nullptr) continue;
    std::vector<const Expr*> parts;
    SplitConjuncts(*cond, &parts);
    bool splittable = true;
    std::vector<Conjunct> local;
    for (const Expr* e : parts) {
      Conjunct c;
      c.expr = e;
      if (!CollectAliases(*e, aliases, &c.aliases) ||
          (!c.aliases.empty() && *c.aliases.rbegin() > i)) {
        splittable = false;
        break;
      }
      local.push_back(std::move(c));
    }
    if (!splittable) {
      forced_on.emplace_back(i, cond);
      continue;
    }
    for (Conjunct& c : local) conjuncts.push_back(std::move(c));
  }

  // --- Scan pushdown ---
  // Single-table conjuncts (from WHERE or an ON) are always safe to push
  // for inner joins: filtering the table early skips exactly the rows the
  // unplanned conjunct evaluation also skips.
  for (Conjunct& c : conjuncts) {
    if (c.aliases.size() == 1) {
      prepared[*c.aliases.begin()].pushed.push_back(c.expr);
      c.placed = true;
    }
  }

  // --- Access paths ---
  for (size_t i = 0; i < n; ++i) {
    ChooseAccessPath(&prepared[i], aliases, i);
  }

  // --- Scan filter kernels ---
  for (size_t i = 0; i < n; ++i) {
    ChooseKernelFilter(&prepared[i], aliases, i);
  }

  // --- Cardinality estimates (always computed: EXPLAIN ANALYZE shows
  // them even when cost-based choices are disabled) ---
  std::vector<AccessEstimate> est(n);
  for (size_t i = 0; i < n; ++i) {
    est[i] = EstimateScan(prepared[i], aliases, i);
    prepared[i].est_rows = est[i].est_rows;
  }

  // --- Classify the remaining conjuncts ---
  std::vector<EquiPair> equis;
  std::map<const Expr*, size_t> equi_index;
  std::vector<const Conjunct*> multi_residual;
  for (const Conjunct& c : conjuncts) {
    if (c.placed || c.aliases.empty()) continue;
    EquiPair eq;
    if (MatchEquiPair(*c.expr, aliases, &eq)) {
      equi_index[c.expr] = equis.size();
      equis.push_back(eq);
    } else {
      multi_residual.push_back(&c);
    }
  }

  // --- Aggregation / cutoff flags (needed before the order choice) ---
  bool aggregate_query = !stmt.group_by.empty() || stmt.having != nullptr;
  for (const SelectItem& item : stmt.items) {
    if (item.expr != nullptr && item.expr->ContainsAggregate()) {
      aggregate_query = true;
    }
  }
  bool cutoff_applies = stmt.limit >= 0 && stmt.order_by.empty() &&
                        !aggregate_query && !stmt.distinct;

  // --- Join order choice ---
  std::vector<size_t> identity(n);
  for (size_t i = 0; i < n; ++i) identity[i] = i;
  std::vector<size_t> chosen = identity;
  // Reordering is off the table when: cost-based planning is disabled; a
  // forced ON condition pins tables to their syntactic positions; LIMIT
  // short-circuits row production (the cutoff must see rows in original
  // order, which a reordered plan only restores after producing them all);
  // or the FROM list is too long to enumerate (n! permutations).
  if (options.cost_based && n >= 2 && n <= 6 && forced_on.empty() &&
      !cutoff_applies) {
    double identity_cost = WalkPermutation(identity, prepared, est, equis,
                                           multi_residual, aliases, nullptr);
    std::vector<size_t> perm = identity;
    double best_cost = identity_cost;
    std::vector<size_t> best = identity;
    while (std::next_permutation(perm.begin(), perm.end())) {
      double cost = WalkPermutation(perm, prepared, est, equis,
                                    multi_residual, aliases, nullptr);
      if (cost < best_cost) {
        best_cost = cost;
        best = perm;
      }
    }
    if (best_cost < kReorderRatio * identity_cost &&
        identity_cost - best_cost > kMinCostGain) {
      chosen = best;
    }
  }
  std::vector<JoinStep> steps(n > 0 ? n - 1 : 0);
  if (n >= 2) {
    WalkPermutation(chosen, prepared, est, equis, multi_residual, aliases,
                    &steps);
  }

  // --- Assemble the plan in execution order ---
  plan.reordered = chosen != identity;
  std::vector<size_t> pos(n);  // FROM index -> exec position
  for (size_t p = 0; p < n; ++p) pos[chosen[p]] = p;
  for (size_t p = 0; p < n; ++p) {
    plan.scans.push_back(std::move(prepared[chosen[p]]));
  }
  plan.joins.resize(n > 0 ? n - 1 : 0);
  for (const auto& [from_idx, cond] : forced_on) {
    // forced_on pins identity order, so FROM index == exec position.
    plan.joins[from_idx - 1].residual.push_back(cond);
  }
  plan.residual_where = std::move(unresolved_where);
  for (const Conjunct& c : conjuncts) {
    if (c.placed) continue;
    if (c.aliases.empty()) {
      // Constant conjunct (no column refs): final residual.
      plan.residual_where.push_back(c.expr);
      continue;
    }
    size_t last = 0;  // latest exec position this conjunct touches
    for (size_t a : c.aliases) last = std::max(last, pos[a]);
    if (last == 0) {
      plan.residual_where.push_back(c.expr);
      continue;
    }
    auto eq_it = equi_index.find(c.expr);
    if (eq_it != equi_index.end()) {
      const EquiPair& eq = equis[eq_it->second];
      JoinPlan& join = plan.joins[last - 1];
      join.strategy = JoinPlan::Strategy::kHashJoin;
      bool right_is_a = pos[eq.fa] == last;
      join.left_keys.push_back(right_is_a ? eq.side_b : eq.side_a);
      join.right_keys.push_back(right_is_a ? eq.side_a : eq.side_b);
    } else {
      plan.joins[last - 1].residual.push_back(c.expr);
    }
  }

  // --- Join strategies: hash vs. index loop ---
  for (size_t p = 1; p < n; ++p) {
    JoinPlan& join = plan.joins[p - 1];
    const JoinStep& step = steps[p - 1];
    join.est_rows = step.out_rows;
    if (join.strategy != JoinPlan::Strategy::kHashJoin ||
        !options.cost_based || step.index_columns.empty() ||
        step.hash_cost - step.index_loop_cost <= kMinCostGain) {
      continue;
    }
    // Reorder the key pairs into the index's own column order; bail (keep
    // the hash join) unless the index columns cover the keys one-to-one.
    std::vector<const Expr*> lk, rk;
    std::vector<bool> used(join.right_keys.size(), false);
    for (const std::string& col : step.index_columns) {
      bool found = false;
      for (size_t k = 0; k < join.right_keys.size(); ++k) {
        if (!used[k] &&
            EqualsIgnoreCase(join.right_keys[k]->column, col)) {
          lk.push_back(join.left_keys[k]);
          rk.push_back(join.right_keys[k]);
          used[k] = true;
          found = true;
          break;
        }
      }
      if (!found) break;
    }
    if (lk.size() != step.index_columns.size() ||
        lk.size() != join.left_keys.size()) {
      continue;
    }
    join.strategy = JoinPlan::Strategy::kIndexLoop;
    join.index_columns = step.index_columns;
    join.left_keys = std::move(lk);
    join.right_keys = std::move(rk);
  }

  // --- Aggregation ---
  plan.aggregate.present = aggregate_query;
  if (aggregate_query) PlanAggregateFastPath(stmt, aliases, &plan);

  // --- LIMIT short-circuit ---
  if (cutoff_applies) {
    plan.row_cutoff = stmt.limit + std::max<int64_t>(stmt.offset, 0);
  }
  return plan;
}

Result<std::vector<RowId>> CandidateRowIds(const ScanPlan& scan) {
  switch (scan.access) {
    case ScanPlan::Access::kSeqScan:
      if (!scan.kernel_filter) {
        return Status::Internal("CandidateRowIds: plain sequential scan");
      }
      return scan.table->FilterScan(scan.kernel_predicates);
    case ScanPlan::Access::kPrefixScan:
      // A superset of the LIKE matches: the pattern's wildcard tail still
      // applies through the pushed LIKE conjunct.
      return scan.table->RadixPrefixRowIds(scan.index_columns[0],
                                           scan.prefix);
    case ScanPlan::Access::kUniqueLookup:
    case ScanPlan::Access::kIndexScan:
      return scan.table->FindByIndex(scan.index_columns, scan.key_values);
  }
  return Status::Internal("CandidateRowIds: bad access path");
}

Result<DmlTargets> SelectDmlTargets(const Table& table, const Expr* where) {
  const TableDef& def = table.def();
  DmlTargets out;
  out.scan.table = &table;
  out.scan.alias = def.name;
  if (where != nullptr) {
    std::vector<AliasSchema> aliases = {{def.name, &table}};
    std::vector<const Expr*> parts;
    SplitConjuncts(*where, &parts);
    bool resolved = true;
    for (const Expr* e : parts) {
      std::set<size_t> refs;
      resolved = resolved && CollectAliases(*e, aliases, &refs);
    }
    if (resolved) {
      out.scan.pushed = std::move(parts);
      ChooseAccessPath(&out.scan, aliases, 0);
      ChooseKernelFilter(&out.scan, aliases, 0);
    }
  }
  std::vector<ColumnBinding> schema = TableSchema(def, def.name);
  auto qualifies = [&](const Row& row) -> Result<bool> {
    if (where == nullptr) return true;
    EvalEnv env{&schema, &row};
    EASIA_ASSIGN_OR_RETURN(Value cond, EvalExpr(*where, env));
    return IsTruthy(cond);
  };
  if (out.scan.access == ScanPlan::Access::kSeqScan &&
      !out.scan.kernel_filter) {
    Status status = Status::OK();
    table.ForEachRow([&](RowId id, const Row& row) {
      if (!status.ok()) return;
      Result<bool> keep = qualifies(row);
      if (!keep.ok()) {
        status = keep.status();
      } else if (*keep) {
        out.row_ids.push_back(id);
      }
    });
    EASIA_RETURN_IF_ERROR(status);
    return out;
  }
  EASIA_ASSIGN_OR_RETURN(std::vector<RowId> candidates,
                         CandidateRowIds(out.scan));
  for (RowId id : candidates) {
    EASIA_ASSIGN_OR_RETURN(Row row, table.Get(id));
    EASIA_ASSIGN_OR_RETURN(bool keep, qualifies(row));
    if (keep) out.row_ids.push_back(id);
  }
  return out;
}

std::vector<std::string> SelectPlan::Describe() const {
  std::vector<std::string> lines;
  for (size_t i = 0; i < scans.size(); ++i) {
    const ScanPlan& scan = scans[i];
    std::string line =
        "scan " + scan.table->def().name + " AS " + scan.alias + ": ";
    switch (scan.access) {
      case ScanPlan::Access::kSeqScan:
        line += "seq scan";
        break;
      case ScanPlan::Access::kUniqueLookup:
        line += "unique lookup via (" + Join(scan.index_columns, ", ") + ")";
        break;
      case ScanPlan::Access::kIndexScan:
        line += "index scan via (" + Join(scan.index_columns, ", ") + ")";
        break;
      case ScanPlan::Access::kPrefixScan:
        line += "prefix scan via (" + Join(scan.index_columns, ", ") +
                "), prefix '" + scan.prefix + "'";
        break;
    }
    if (!scan.pushed.empty()) {
      line += ", pushed: " + DescribeExprList(scan.pushed);
      if (scan.kernel_filter) line += " [filter kernel]";
    }
    lines.push_back(std::move(line));
  }
  for (size_t i = 0; i < joins.size(); ++i) {
    const JoinPlan& join = joins[i];
    std::string line = "join " + scans[i + 1].alias + ": ";
    if (join.strategy == JoinPlan::Strategy::kHashJoin) {
      std::vector<std::string> keys;
      for (size_t k = 0; k < join.left_keys.size(); ++k) {
        keys.push_back(join.left_keys[k]->ToString() + " = " +
                       join.right_keys[k]->ToString());
      }
      line += "hash join on (" + Join(keys, ", ") + ")";
    } else if (join.strategy == JoinPlan::Strategy::kIndexLoop) {
      std::vector<std::string> keys;
      for (size_t k = 0; k < join.left_keys.size(); ++k) {
        keys.push_back(join.left_keys[k]->ToString() + " = " +
                       join.right_keys[k]->ToString());
      }
      line += "index loop join via (" + Join(join.index_columns, ", ") +
              ") on (" + Join(keys, ", ") + ")";
    } else {
      line += "nested loop";
    }
    if (!join.residual.empty()) {
      line += ", residual: " + DescribeExprList(join.residual);
    }
    lines.push_back(std::move(line));
  }
  if (!residual_where.empty()) {
    lines.push_back("where residual: " + DescribeExprList(residual_where));
  }
  if (aggregate.present && stmt != nullptr) {
    std::vector<std::string> parts;
    for (const SelectItem& item : stmt->items) {
      parts.push_back(item.star ? "*" : item.expr->ToString());
    }
    std::string line = "aggregate: " + Join(parts, ", ");
    if (!stmt->group_by.empty()) {
      std::vector<std::string> keys;
      for (const auto& g : stmt->group_by) keys.push_back(g->ToString());
      line += " group by (" + Join(keys, ", ") + ")";
    }
    line += aggregate.fast_path ? " [columnar fast path]" : " [row path]";
    lines.push_back(std::move(line));
  }
  if (row_cutoff >= 0) {
    lines.push_back(StrPrintf("limit short-circuit: %lld",
                              static_cast<long long>(row_cutoff)));
  }
  return lines;
}

}  // namespace easia::db
