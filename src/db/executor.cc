#include "db/executor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <map>
#include <set>

#include "common/string_util.h"
#include "db/database.h"
#include "db/planner.h"
#include "db/store/column_page.h"
#include "obs/trace.h"

namespace easia::db {

namespace {

/// Resolves a column reference against a schema; reports ambiguity.
Result<size_t> ResolveColumn(const std::vector<ColumnBinding>& schema,
                             const std::string& table,
                             const std::string& column) {
  size_t found = schema.size();
  for (size_t i = 0; i < schema.size(); ++i) {
    const ColumnBinding& b = schema[i];
    if (!table.empty() && !EqualsIgnoreCase(b.table_alias, table)) continue;
    if (!EqualsIgnoreCase(b.column, column)) continue;
    if (found != schema.size()) {
      return Status::InvalidArgument("ambiguous column reference: " + column);
    }
    found = i;
  }
  if (found == schema.size()) {
    return Status::NotFound(
        "unknown column: " + (table.empty() ? column : table + "." + column));
  }
  return found;
}

Result<Value> EvalBinary(Expr::Op op, const Value& lhs, const Value& rhs) {
  // Logical connectives use SQL-ish semantics with NULL as unknown.
  if (op == Expr::Op::kAnd) {
    if (!lhs.is_null() && !IsTruthy(lhs)) return Value::Integer(0);
    if (!rhs.is_null() && !IsTruthy(rhs)) return Value::Integer(0);
    if (lhs.is_null() || rhs.is_null()) return Value::Null();
    return Value::Integer(1);
  }
  if (op == Expr::Op::kOr) {
    if (!lhs.is_null() && IsTruthy(lhs)) return Value::Integer(1);
    if (!rhs.is_null() && IsTruthy(rhs)) return Value::Integer(1);
    if (lhs.is_null() || rhs.is_null()) return Value::Null();
    return Value::Integer(0);
  }
  if (lhs.is_null() || rhs.is_null()) return Value::Null();
  switch (op) {
    case Expr::Op::kEq:
      return Value::Integer(lhs.Compare(rhs) == 0 ? 1 : 0);
    case Expr::Op::kNe:
      return Value::Integer(lhs.Compare(rhs) != 0 ? 1 : 0);
    case Expr::Op::kLt:
      return Value::Integer(lhs.Compare(rhs) < 0 ? 1 : 0);
    case Expr::Op::kLe:
      return Value::Integer(lhs.Compare(rhs) <= 0 ? 1 : 0);
    case Expr::Op::kGt:
      return Value::Integer(lhs.Compare(rhs) > 0 ? 1 : 0);
    case Expr::Op::kGe:
      return Value::Integer(lhs.Compare(rhs) >= 0 ? 1 : 0);
    case Expr::Op::kLike:
    case Expr::Op::kNotLike: {
      if (!lhs.IsStringKind() || !rhs.IsStringKind()) {
        return Status::InvalidArgument("LIKE requires string operands");
      }
      bool m = LikeMatch(lhs.AsString(), rhs.AsString());
      if (op == Expr::Op::kNotLike) m = !m;
      return Value::Integer(m ? 1 : 0);
    }
    case Expr::Op::kAdd:
    case Expr::Op::kSub:
    case Expr::Op::kMul:
    case Expr::Op::kDiv: {
      if (!lhs.IsNumericKind() || !rhs.IsNumericKind()) {
        return Status::InvalidArgument("arithmetic requires numeric operands");
      }
      bool integral = lhs.type() != DataType::kDouble &&
                      rhs.type() != DataType::kDouble;
      double a = lhs.AsDouble();
      double b = rhs.AsDouble();
      double r = 0;
      switch (op) {
        case Expr::Op::kAdd: r = a + b; break;
        case Expr::Op::kSub: r = a - b; break;
        case Expr::Op::kMul: r = a * b; break;
        case Expr::Op::kDiv:
          if (b == 0) return Status::InvalidArgument("division by zero");
          if (integral) {
            return Value::Integer(lhs.AsInt() / rhs.AsInt());
          }
          r = a / b;
          break;
        default:
          break;
      }
      if (integral && op != Expr::Op::kDiv) {
        return Value::Integer(static_cast<int64_t>(r));
      }
      return Value::Double(r);
    }
    default:
      return Status::Internal("bad binary operator");
  }
}

Result<Value> EvalCall(const Expr& expr, const EvalEnv& env) {
  if (IsAggregateFunction(expr.func)) {
    return Status::InvalidArgument("aggregate function " + expr.func +
                                   " not allowed here");
  }
  std::vector<Value> args;
  for (const auto& a : expr.args) {
    EASIA_ASSIGN_OR_RETURN(Value v, EvalExpr(*a, env));
    args.push_back(std::move(v));
  }
  auto need = [&](size_t lo, size_t hi) -> Status {
    if (args.size() < lo || args.size() > hi) {
      return Status::InvalidArgument(expr.func + ": wrong argument count");
    }
    return Status::OK();
  };
  if (expr.func == "UPPER" || expr.func == "LOWER") {
    EASIA_RETURN_IF_ERROR(need(1, 1));
    if (args[0].is_null()) return Value::Null();
    std::string s = args[0].AsString();
    return Value::Varchar(expr.func == "UPPER" ? ToUpper(s) : ToLower(s));
  }
  if (expr.func == "LENGTH") {
    EASIA_RETURN_IF_ERROR(need(1, 1));
    if (args[0].is_null()) return Value::Null();
    if (args[0].IsStringKind()) {
      return Value::Integer(static_cast<int64_t>(args[0].AsString().size()));
    }
    return Value::Integer(
        static_cast<int64_t>(args[0].ToDisplayString().size()));
  }
  if (expr.func == "ABS") {
    EASIA_RETURN_IF_ERROR(need(1, 1));
    if (args[0].is_null()) return Value::Null();
    if (args[0].type() == DataType::kDouble) {
      return Value::Double(std::fabs(args[0].AsDouble()));
    }
    return Value::Integer(std::llabs(args[0].AsInt()));
  }
  if (expr.func == "SUBSTR" || expr.func == "SUBSTRING") {
    EASIA_RETURN_IF_ERROR(need(2, 3));
    if (args[0].is_null()) return Value::Null();
    const std::string& s = args[0].AsString();
    int64_t start = args[1].AsInt();  // 1-based per SQL
    if (start < 1) start = 1;
    size_t from = static_cast<size_t>(start - 1);
    if (from >= s.size()) return Value::Varchar("");
    size_t len = s.size() - from;
    if (args.size() == 3 && !args[2].is_null()) {
      int64_t l = args[2].AsInt();
      if (l < 0) l = 0;
      len = std::min<size_t>(len, static_cast<size_t>(l));
    }
    return Value::Varchar(s.substr(from, len));
  }
  if (expr.func == "COALESCE") {
    for (const Value& v : args) {
      if (!v.is_null()) return v;
    }
    return Value::Null();
  }
  return Status::Unimplemented("unknown function " + expr.func);
}

/// Collects top-level AND-ed `column = literal` conjuncts of `expr` into
/// `out` (column name -> literal). Other conjuncts are ignored (they are
/// still applied by the generic WHERE filter).
void CollectEqualityConjuncts(const Expr& expr, const std::string& alias,
                              std::map<std::string, Value>* out) {
  if (expr.kind == Expr::Kind::kBinary && expr.op == Expr::Op::kAnd) {
    CollectEqualityConjuncts(*expr.left, alias, out);
    CollectEqualityConjuncts(*expr.right, alias, out);
    return;
  }
  if (expr.kind != Expr::Kind::kBinary || expr.op != Expr::Op::kEq) return;
  const Expr* column = nullptr;
  const Expr* literal = nullptr;
  for (const Expr* side : {expr.left.get(), expr.right.get()}) {
    if (side->kind == Expr::Kind::kColumn) column = side;
    if (side->kind == Expr::Kind::kLiteral) literal = side;
  }
  if (column == nullptr || literal == nullptr) return;
  if (!column->table.empty() && !EqualsIgnoreCase(column->table, alias)) {
    return;
  }
  out->emplace(ToUpper(column->column), literal->literal);
}

/// Point-lookup fast path: for a single-table query whose WHERE pins every
/// primary-key column with `=` literals, fetch the row through the unique
/// index instead of scanning. This is the shape every hyperlink-browse and
/// /object click produces. Returns true when it applied.
bool TryUniqueLookup(const SelectStmt& stmt, const Table& table,
                     std::vector<Row>* rows) {
  if (stmt.from.size() != 1 || stmt.where == nullptr) return false;
  const TableDef& def = table.def();
  if (def.primary_key.empty()) return false;
  std::map<std::string, Value> equalities;
  CollectEqualityConjuncts(*stmt.where, stmt.from[0].alias, &equalities);
  std::vector<Value> key_values;
  for (const std::string& pk : def.primary_key) {
    auto it = equalities.find(ToUpper(pk));
    if (it == equalities.end() || it->second.is_null()) return false;
    // Coerce the literal to the column type so index keys agree.
    const ColumnDef* col = def.FindColumn(pk);
    Result<Value> coerced = it->second.CoerceTo(col->type);
    if (!coerced.ok()) return false;
    key_values.push_back(std::move(*coerced));
  }
  Result<RowId> id = table.FindUnique(def.primary_key, key_values);
  if (id.ok()) {
    Result<Row> row = table.Get(*id);
    if (row.ok()) rows->push_back(std::move(*row));
  }
  return true;  // applied (possibly zero rows)
}

}  // namespace

std::vector<ColumnBinding> TableSchema(const TableDef& def,
                                       const std::string& alias) {
  std::vector<ColumnBinding> schema;
  schema.reserve(def.columns.size());
  for (const ColumnDef& col : def.columns) {
    schema.push_back({alias, col.name, col.type, &col});
  }
  return schema;
}

bool IsTruthy(const Value& value) {
  if (value.is_null()) return false;
  if (value.IsNumericKind()) return value.AsDouble() != 0;
  return !value.AsString().empty();
}

Result<Value> EvalExpr(const Expr& expr, const EvalEnv& env) {
  switch (expr.kind) {
    case Expr::Kind::kLiteral:
      return expr.literal;
    case Expr::Kind::kColumn: {
      if (env.schema == nullptr || env.row == nullptr) {
        return Status::InvalidArgument("column reference '" + expr.column +
                                       "' outside row context");
      }
      EASIA_ASSIGN_OR_RETURN(
          size_t idx, ResolveColumn(*env.schema, expr.table, expr.column));
      return (*env.row)[idx];
    }
    case Expr::Kind::kUnary: {
      EASIA_ASSIGN_OR_RETURN(Value v, EvalExpr(*expr.left, env));
      if (expr.op == Expr::Op::kNot) {
        if (v.is_null()) return Value::Null();
        return Value::Integer(IsTruthy(v) ? 0 : 1);
      }
      if (expr.op == Expr::Op::kNeg) {
        if (v.is_null()) return Value::Null();
        if (v.type() == DataType::kDouble) return Value::Double(-v.AsDouble());
        if (v.IsNumericKind()) return Value::Integer(-v.AsInt());
        return Status::InvalidArgument("unary minus on non-numeric value");
      }
      return Status::Internal("bad unary operator");
    }
    case Expr::Kind::kBinary: {
      EASIA_ASSIGN_OR_RETURN(Value lhs, EvalExpr(*expr.left, env));
      EASIA_ASSIGN_OR_RETURN(Value rhs, EvalExpr(*expr.right, env));
      return EvalBinary(expr.op, lhs, rhs);
    }
    case Expr::Kind::kIsNull: {
      EASIA_ASSIGN_OR_RETURN(Value v, EvalExpr(*expr.left, env));
      bool null = v.is_null();
      return Value::Integer((expr.negated ? !null : null) ? 1 : 0);
    }
    case Expr::Kind::kInList: {
      EASIA_ASSIGN_OR_RETURN(Value needle, EvalExpr(*expr.left, env));
      if (needle.is_null()) return Value::Null();
      for (const auto& item : expr.args) {
        EASIA_ASSIGN_OR_RETURN(Value v, EvalExpr(*item, env));
        if (!v.is_null() && needle.Compare(v) == 0) {
          return Value::Integer(expr.negated ? 0 : 1);
        }
      }
      return Value::Integer(expr.negated ? 1 : 0);
    }
    case Expr::Kind::kCall:
      return EvalCall(expr, env);
  }
  return Status::Internal("bad expression kind");
}

namespace {

/// Evaluates an expression that may contain aggregate calls over a group of
/// rows. Non-aggregate subtrees evaluate on the group's first row.
Result<Value> EvalAggregate(const Expr& expr,
                            const std::vector<ColumnBinding>& schema,
                            const std::vector<const Row*>& group) {
  if (expr.kind == Expr::Kind::kCall && IsAggregateFunction(expr.func)) {
    if (expr.func == "COUNT" && expr.star) {
      return Value::Integer(static_cast<int64_t>(group.size()));
    }
    if (expr.args.size() != 1) {
      return Status::InvalidArgument(expr.func + " takes one argument");
    }
    int64_t count = 0;
    // SUM/AVG accumulate twice: exactly in 128-bit integer arithmetic and
    // approximately in double. The wide total is authoritative while every
    // value was integer-kind, and narrows back to INTEGER when it fits
    // int64 (degrading to DOUBLE past the rails); mixed-kind input
    // degrades to the double total. The rule is order-independent, so
    // per-shard partial sums merge exactly (src/db/shard). Identical rule
    // to the columnar AggregateScan kernel — the differential-fuzz suite
    // holds the two to bit-equality.
    double sum = 0;
    __int128 isum = 0;
    bool all_int = true;
    Value min_v = Value::Null();
    Value max_v = Value::Null();
    for (const Row* row : group) {
      EvalEnv env{&schema, row};
      EASIA_ASSIGN_OR_RETURN(Value v, EvalExpr(*expr.args[0], env));
      if (v.is_null()) continue;
      ++count;
      if (v.IsNumericKind()) {
        sum += v.AsDouble();
        if (v.type() == DataType::kDouble) {
          all_int = false;
        } else {
          isum += v.AsInt();
        }
      } else if (expr.func == "SUM" || expr.func == "AVG") {
        return Status::InvalidArgument(expr.func + " over non-numeric column");
      }
      if (min_v.is_null() || v.Compare(min_v) < 0) min_v = v;
      if (max_v.is_null() || v.Compare(max_v) > 0) max_v = v;
    }
    if (expr.func == "COUNT") return Value::Integer(count);
    if (count == 0) return Value::Null();
    if (expr.func == "SUM") return FinishSum(all_int, isum, sum);
    if (expr.func == "AVG") return FinishAvg(all_int, isum, sum, count);
    if (expr.func == "MIN") return min_v;
    if (expr.func == "MAX") return max_v;
  }
  // Recurse; leaves evaluate against the first row.
  switch (expr.kind) {
    case Expr::Kind::kBinary: {
      EASIA_ASSIGN_OR_RETURN(Value l, EvalAggregate(*expr.left, schema, group));
      EASIA_ASSIGN_OR_RETURN(Value r,
                             EvalAggregate(*expr.right, schema, group));
      return EvalBinary(expr.op, l, r);
    }
    case Expr::Kind::kUnary:
    case Expr::Kind::kIsNull:
    case Expr::Kind::kInList:
    case Expr::Kind::kCall:
    case Expr::Kind::kColumn:
    case Expr::Kind::kLiteral: {
      if (group.empty()) return Value::Null();
      EvalEnv env{&schema, group[0]};
      return EvalExpr(expr, env);
    }
  }
  return Status::Internal("bad aggregate expression");
}

}  // namespace

std::string DefaultItemName(const SelectItem& item, size_t index) {
  if (!item.alias.empty()) return item.alias;
  if (item.expr != nullptr && item.expr->kind == Expr::Kind::kColumn) {
    return item.expr->column;
  }
  if (item.expr != nullptr) return item.expr->ToString();
  return StrPrintf("col%zu", index + 1);
}

DataType GuessItemType(const Expr& expr,
                       const std::vector<ColumnBinding>& schema) {
  if (expr.kind == Expr::Kind::kColumn) {
    for (const ColumnBinding& b : schema) {
      if ((expr.table.empty() || EqualsIgnoreCase(b.table_alias, expr.table)) &&
          EqualsIgnoreCase(b.column, expr.column)) {
        return b.type;
      }
    }
  }
  if (expr.kind == Expr::Kind::kLiteral) return expr.literal.type();
  if (expr.kind == Expr::Kind::kCall) {
    if (expr.func == "COUNT" || expr.func == "LENGTH") {
      return DataType::kInteger;
    }
    if (expr.func == "AVG") return DataType::kDouble;
  }
  return DataType::kVarchar;
}

namespace {

const ColumnDef* SourceColumnDef(const Expr& expr,
                                 const std::vector<ColumnBinding>& schema) {
  if (expr.kind != Expr::Kind::kColumn) return nullptr;
  for (const ColumnBinding& b : schema) {
    if ((expr.table.empty() || EqualsIgnoreCase(b.table_alias, expr.table)) &&
        EqualsIgnoreCase(b.column, expr.column)) {
      return b.def;
    }
  }
  return nullptr;
}

/// Legacy row production: materialised nested-loop joins left to right,
/// then the whole WHERE as one filter. Kept as the reference
/// implementation for planner equivalence tests and benchmarks.
Status BuildRowsNaive(const SelectStmt& stmt, const TableLookup& lookup,
                      std::vector<ColumnBinding>* schema_out,
                      std::vector<Row>* rows_out) {
  std::vector<ColumnBinding> schema;
  std::vector<Row> rows;
  bool first = true;
  for (const TableRef& ref : stmt.from) {
    EASIA_ASSIGN_OR_RETURN(const Table* table, lookup(ref.table));
    std::vector<ColumnBinding> add;
    for (const ColumnDef& col : table->def().columns) {
      add.push_back({ref.alias, col.name, col.type, &col});
    }
    std::vector<ColumnBinding> new_schema = schema;
    new_schema.insert(new_schema.end(), add.begin(), add.end());
    std::vector<Row> new_rows;
    if (first) {
      if (!TryUniqueLookup(stmt, *table, &new_rows)) {
        table->ForEachRow(
            [&new_rows](RowId, const Row& row) { new_rows.push_back(row); });
      }
    } else {
      std::vector<Row> right_rows;
      table->ForEachRow([&right_rows](RowId, const Row& row) {
        right_rows.push_back(row);
      });
      for (const Row& left : rows) {
        for (const Row& right : right_rows) {
          Row combined = left;
          combined.insert(combined.end(), right.begin(), right.end());
          if (ref.join_condition != nullptr) {
            EvalEnv env{&new_schema, &combined};
            EASIA_ASSIGN_OR_RETURN(Value cond,
                                   EvalExpr(*ref.join_condition, env));
            if (!IsTruthy(cond)) continue;
          }
          new_rows.push_back(std::move(combined));
        }
      }
    }
    schema = std::move(new_schema);
    rows = std::move(new_rows);
    first = false;
  }
  if (stmt.where != nullptr) {
    std::vector<Row> filtered;
    for (Row& row : rows) {
      EvalEnv env{&schema, &row};
      EASIA_ASSIGN_OR_RETURN(Value cond, EvalExpr(*stmt.where, env));
      if (IsTruthy(cond)) filtered.push_back(std::move(row));
    }
    rows = std::move(filtered);
  }
  *schema_out = std::move(schema);
  *rows_out = std::move(rows);
  return Status::OK();
}

/// Accumulates wall time into `*slot` for the guard's lifetime (null slot:
/// inert). Used for per-operator profile timings.
struct TimeGuard {
  explicit TimeGuard(double* s) : slot(s) {
    if (slot != nullptr) t0 = std::chrono::steady_clock::now();
  }
  ~TimeGuard() {
    if (slot != nullptr) {
      *slot += std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
    }
  }
  double* slot;
  std::chrono::steady_clock::time_point t0;
};

/// Planned row production: per-scan access paths with pushed predicates,
/// hash, index-loop or nested-loop joins, residual WHERE, and optional
/// early cutoff once LIMIT(+OFFSET) rows survive every filter.
///
/// Output order matches BuildRowsNaive exactly. For FROM-order plans the
/// production is naturally left-major, RowId-minor: index fetches return
/// RowIds ascending, and hash buckets preserve insertion order for equal
/// keys. When the cost-based planner reordered the joins, each produced
/// row is remapped back to the original FROM column order and the result
/// sorted by its tuple of per-table RowIds (FROM order, lexicographic) —
/// which is precisely the order the nested loops over RowId-ascending
/// streams would have produced.
Status BuildRowsPlanned(const SelectPlan& plan,
                        std::vector<ColumnBinding>* schema_out,
                        std::vector<Row>* rows_out, PlanProfile* profile,
                        obs::Tracer* tracer) {
  const size_t n = plan.scans.size();
  // cum_schemas[d] covers scans[0..d-1]; cum_schemas[n] is the full schema.
  std::vector<std::vector<ColumnBinding>> scan_schemas(n);
  std::vector<std::vector<ColumnBinding>> cum_schemas(n + 1);
  for (size_t i = 0; i < n; ++i) {
    scan_schemas[i] =
        TableSchema(plan.scans[i].table->def(), plan.scans[i].alias);
    cum_schemas[i + 1] = cum_schemas[i];
    cum_schemas[i + 1].insert(cum_schemas[i + 1].end(),
                              scan_schemas[i].begin(), scan_schemas[i].end());
  }

  // Scans attached by an index-loop join are never materialised up front:
  // their rows are fetched per accumulated left row inside the join.
  std::vector<bool> via_index_loop(n, false);
  for (size_t j = 0; j + 1 < n; ++j) {
    if (plan.joins[j].strategy == JoinPlan::Strategy::kIndexLoop) {
      via_index_loop[j + 1] = true;
    }
  }

  // Materialise each remaining scan through its access path, keeping the
  // source RowId of every surviving row (order restoration needs them).
  // Pushed predicates are evaluated on every visited row — including index
  // hits and kernel survivors — so the access path can only narrow the
  // candidate set, never change which rows qualify. A row is copied only
  // once it passes.
  std::vector<std::vector<Row>> base(n);
  std::vector<std::vector<RowId>> base_ids(n);
  for (size_t i = 0; i < n; ++i) {
    if (via_index_loop[i]) continue;
    const ScanPlan& scan = plan.scans[i];
    obs::Tracer::Scope span(tracer, "exec:scan:" + scan.alias);
    TimeGuard tg(profile != nullptr ? &profile->scans[i].seconds : nullptr);
    auto passes = [&](const Row& row) -> Result<bool> {
      EvalEnv env{&scan_schemas[i], &row};
      for (const Expr* e : scan.pushed) {
        EASIA_ASSIGN_OR_RETURN(Value v, EvalExpr(*e, env));
        if (!IsTruthy(v)) return false;
      }
      return true;
    };
    if (scan.access == ScanPlan::Access::kSeqScan && !scan.kernel_filter) {
      // ForEachRow cannot stop early: rows after the first error (in
      // RowId order, the one reported) are skipped.
      Status status = Status::OK();
      scan.table->ForEachRow([&](RowId id, const Row& row) {
        if (!status.ok()) return;
        Result<bool> keep = passes(row);
        if (!keep.ok()) {
          status = keep.status();
        } else if (*keep) {
          base[i].push_back(row);
          base_ids[i].push_back(id);
        }
      });
      EASIA_RETURN_IF_ERROR(status);
    } else {
      EASIA_ASSIGN_OR_RETURN(std::vector<RowId> ids, CandidateRowIds(scan));
      for (RowId id : ids) {
        EASIA_ASSIGN_OR_RETURN(Row row, scan.table->Get(id));
        EASIA_ASSIGN_OR_RETURN(bool keep, passes(row));
        if (keep) {
          base[i].push_back(std::move(row));
          base_ids[i].push_back(id);
        }
      }
    }
    if (profile != nullptr) {
      profile->scans[i].actual_rows = static_cast<int64_t>(base[i].size());
    }
  }

  // Hash tables for hash joins: right-side base row indexes keyed by their
  // join keys. Rows with a NULL key can never match and are left out.
  std::vector<std::multimap<std::string, size_t>> hashes(n);
  for (size_t j = 0; j + 1 < n; ++j) {
    const JoinPlan& join = plan.joins[j];
    if (join.strategy != JoinPlan::Strategy::kHashJoin) continue;
    TimeGuard tg(profile != nullptr ? &profile->joins[j].seconds : nullptr);
    for (size_t r = 0; r < base[j + 1].size(); ++r) {
      EvalEnv env{&scan_schemas[j + 1], &base[j + 1][r]};
      std::string key;
      bool null_key = false;
      for (const Expr* e : join.right_keys) {
        EASIA_ASSIGN_OR_RETURN(Value v, EvalExpr(*e, env));
        if (v.is_null()) {
          null_key = true;
          break;
        }
        PutLengthPrefixed(&key, v.ToKeyString());
      }
      if (!null_key) hashes[j + 1].emplace(std::move(key), r);
    }
  }

  // Order-restoration bookkeeping for reordered plans: per-exec-position
  // column offsets, exec position of each FROM entry, and the RowId chosen
  // at each depth of the current DFS path.
  const bool restore = plan.reordered;
  std::vector<size_t> offset(n + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    offset[i + 1] = offset[i] + scan_schemas[i].size();
  }
  std::vector<size_t> pos_of_from(n, 0);
  for (size_t p = 0; p < n; ++p) pos_of_from[plan.scans[p].from_index] = p;
  std::vector<RowId> rid_stack(n, 0);
  struct KeyedRow {
    std::vector<RowId> key;  // RowIds in FROM order
    Row row;                 // columns in FROM order
  };
  std::vector<KeyedRow> keyed;

  // Depth-first pipelined production; `extend` returns true to stop early
  // once the LIMIT cutoff is satisfied (the planner never reorders a
  // cutoff plan, so restoration and early exit never mix).
  std::vector<Row> out;
  int64_t produced = 0;
  std::vector<double> incl(n + 2, 0.0);  // inclusive DFS time per depth
  std::vector<int64_t> join_out(n, 0);   // rows surviving joins[depth-1]
  std::vector<int64_t> loop_scan_rows(n, 0);  // index-loop fetched+filtered
  const int64_t cutoff = plan.row_cutoff;
  std::function<Result<bool>(Row&, size_t)> extend =
      [&](Row& so_far, size_t depth) -> Result<bool> {
    TimeGuard tg(profile != nullptr ? &incl[depth] : nullptr);
    if (depth == n) {
      EvalEnv env{&cum_schemas[n], &so_far};
      for (const Expr* e : plan.residual_where) {
        EASIA_ASSIGN_OR_RETURN(Value v, EvalExpr(*e, env));
        if (!IsTruthy(v)) return false;
      }
      if (restore) {
        KeyedRow kr;
        kr.key.reserve(n);
        kr.row.reserve(so_far.size());
        for (size_t f = 0; f < n; ++f) {
          size_t p = pos_of_from[f];
          kr.key.push_back(rid_stack[p]);
          for (size_t c = offset[p]; c < offset[p + 1]; ++c) {
            kr.row.push_back(so_far[c]);
          }
        }
        keyed.push_back(std::move(kr));
      } else if (n == 1) {
        out.push_back(std::move(so_far));  // the caller drops it next
      } else {
        out.push_back(so_far);  // the join loop still extends it
      }
      ++produced;
      return cutoff >= 0 && produced >= cutoff;
    }
    const JoinPlan& join = plan.joins[depth - 1];
    auto try_right = [&](const Row& right, RowId rid) -> Result<bool> {
      size_t old_size = so_far.size();
      so_far.insert(so_far.end(), right.begin(), right.end());
      rid_stack[depth] = rid;
      bool keep = true;
      EvalEnv env{&cum_schemas[depth + 1], &so_far};
      for (const Expr* e : join.residual) {
        EASIA_ASSIGN_OR_RETURN(Value v, EvalExpr(*e, env));
        if (!IsTruthy(v)) {
          keep = false;
          break;
        }
      }
      bool stop = false;
      if (keep) {
        ++join_out[depth - 1];
        EASIA_ASSIGN_OR_RETURN(stop, extend(so_far, depth + 1));
      }
      so_far.resize(old_size);
      return stop;
    };
    if (join.strategy == JoinPlan::Strategy::kHashJoin) {
      EvalEnv env{&cum_schemas[depth], &so_far};
      std::string key;
      for (const Expr* e : join.left_keys) {
        EASIA_ASSIGN_OR_RETURN(Value v, EvalExpr(*e, env));
        if (v.is_null()) return false;  // NULL never equi-joins
        PutLengthPrefixed(&key, v.ToKeyString());
      }
      auto range = hashes[depth].equal_range(key);
      for (auto it = range.first; it != range.second; ++it) {
        EASIA_ASSIGN_OR_RETURN(
            bool stop,
            try_right(base[depth][it->second], base_ids[depth][it->second]));
        if (stop) return true;
      }
      return false;
    }
    if (join.strategy == JoinPlan::Strategy::kIndexLoop) {
      // Per left row: evaluate the key, fetch matching right rows through
      // the index (RowIds ascending, so per-key order matches the hash
      // path), apply the scan's pushed predicates per fetched row.
      const ScanPlan& scan = plan.scans[depth];
      EvalEnv env{&cum_schemas[depth], &so_far};
      std::vector<Value> key_values;
      for (const Expr* e : join.left_keys) {
        EASIA_ASSIGN_OR_RETURN(Value v, EvalExpr(*e, env));
        if (v.is_null()) return false;  // NULL never equi-joins
        key_values.push_back(std::move(v));
      }
      EASIA_ASSIGN_OR_RETURN(
          std::vector<RowId> ids,
          scan.table->FindByIndex(join.index_columns, key_values));
      for (RowId id : ids) {
        EASIA_ASSIGN_OR_RETURN(Row row, scan.table->Get(id));
        EvalEnv renv{&scan_schemas[depth], &row};
        bool keep = true;
        for (const Expr* e : scan.pushed) {
          EASIA_ASSIGN_OR_RETURN(Value v, EvalExpr(*e, renv));
          if (!IsTruthy(v)) {
            keep = false;
            break;
          }
        }
        if (!keep) continue;
        ++loop_scan_rows[depth];
        EASIA_ASSIGN_OR_RETURN(bool stop, try_right(row, id));
        if (stop) return true;
      }
      return false;
    }
    for (size_t r = 0; r < base[depth].size(); ++r) {
      EASIA_ASSIGN_OR_RETURN(bool stop,
                             try_right(base[depth][r], base_ids[depth][r]));
      if (stop) return true;
    }
    return false;
  };
  {
    obs::Tracer::Scope span(tracer, n > 1 ? "exec:join-pipeline"
                                          : "exec:scan-output");
    for (size_t r = 0; r < base[0].size(); ++r) {
      Row so_far = std::move(base[0][r]);  // base[0] is never a join input
      rid_stack[0] = base_ids[0][r];
      EASIA_ASSIGN_OR_RETURN(bool stop, extend(so_far, 1));
      if (stop) break;
    }
  }
  if (restore) {
    std::sort(keyed.begin(), keyed.end(),
              [](const KeyedRow& a, const KeyedRow& b) {
                return a.key < b.key;
              });
    out.reserve(keyed.size());
    for (KeyedRow& kr : keyed) out.push_back(std::move(kr.row));
    std::vector<ColumnBinding> schema;
    for (size_t f = 0; f < n; ++f) {
      const std::vector<ColumnBinding>& s = scan_schemas[pos_of_from[f]];
      schema.insert(schema.end(), s.begin(), s.end());
    }
    *schema_out = std::move(schema);
  } else {
    *schema_out = std::move(cum_schemas[n]);
  }
  *rows_out = std::move(out);
  if (profile != nullptr) {
    for (size_t j = 0; j + 1 < n; ++j) {
      profile->joins[j].actual_rows = join_out[j];
      // Exclusive DFS time at the depth this join runs (join j executes in
      // extend() calls at depth j + 1; deeper time belongs to later ops).
      profile->joins[j].seconds +=
          std::max(0.0, incl[j + 1] - incl[j + 2]);
    }
    for (size_t i = 0; i < n; ++i) {
      if (via_index_loop[i]) {
        profile->scans[i].actual_rows = loop_scan_rows[i];
      }
    }
  }
  return Status::OK();
}

/// Everything downstream of row production: projection, aggregates,
/// DISTINCT, ORDER BY, OFFSET/LIMIT, DATALINK rewrite. `rows` must already
/// be WHERE-filtered.
Result<QueryResult> FinishSelect(const SelectStmt& stmt,
                                 const std::vector<ColumnBinding>& schema,
                                 std::vector<Row> rows,
                                 const DatalinkRewriter& rewriter) {
  // --- Expand projection items ---
  struct OutputItem {
    std::string name;
    DataType type;
    const ColumnDef* source_def;
    const Expr* expr;  // null only for expanded stars (uses column index)
    size_t direct_index;  // when expr == nullptr
  };
  std::vector<std::unique_ptr<Expr>> synthesized;
  std::vector<OutputItem> outputs;
  for (size_t i = 0; i < stmt.items.size(); ++i) {
    const SelectItem& item = stmt.items[i];
    if (item.star) {
      for (size_t c = 0; c < schema.size(); ++c) {
        if (!item.star_table.empty() &&
            !EqualsIgnoreCase(schema[c].table_alias, item.star_table)) {
          continue;
        }
        outputs.push_back({schema[c].column, schema[c].type, schema[c].def,
                           nullptr, c});
      }
      if (!item.star_table.empty() && outputs.empty()) {
        return Status::NotFound("unknown table in select list: " +
                                item.star_table);
      }
      continue;
    }
    outputs.push_back({DefaultItemName(item, i),
                       GuessItemType(*item.expr, schema),
                       SourceColumnDef(*item.expr, schema), item.expr.get(),
                       0});
  }
  if (outputs.empty()) {
    return Status::InvalidArgument("empty select list");
  }

  QueryResult result;
  result.is_query = true;
  for (const OutputItem& o : outputs) {
    result.column_names.push_back(o.name);
    result.column_types.push_back(o.type);
  }

  bool aggregate_query = !stmt.group_by.empty() || stmt.having != nullptr;
  for (const SelectItem& item : stmt.items) {
    if (item.expr != nullptr && item.expr->ContainsAggregate()) {
      aggregate_query = true;
    }
  }

  // Pair each output row with sort keys computed in the input environment
  // (or group environment for aggregates).
  struct ProjectedRow {
    Row values;
    Row sort_keys;
  };
  std::vector<ProjectedRow> projected;

  auto compute_sort_keys = [&](const EvalEnv& env, const Row& out_values)
      -> Result<Row> {
    Row keys;
    for (const OrderItem& item : stmt.order_by) {
      // ORDER BY may reference an output alias or 1-based output position.
      if (item.expr->kind == Expr::Kind::kColumn && item.expr->table.empty()) {
        bool matched = false;
        for (size_t i = 0; i < outputs.size(); ++i) {
          if (EqualsIgnoreCase(outputs[i].name, item.expr->column)) {
            keys.push_back(out_values[i]);
            matched = true;
            break;
          }
        }
        if (matched) continue;
      }
      if (item.expr->kind == Expr::Kind::kLiteral &&
          item.expr->literal.type() == DataType::kInteger) {
        int64_t pos = item.expr->literal.AsInt();
        if (pos >= 1 && static_cast<size_t>(pos) <= out_values.size()) {
          keys.push_back(out_values[static_cast<size_t>(pos) - 1]);
          continue;
        }
      }
      EASIA_ASSIGN_OR_RETURN(Value v, EvalExpr(*item.expr, env));
      keys.push_back(std::move(v));
    }
    return keys;
  };

  if (aggregate_query) {
    // Group rows by GROUP BY key (single group when absent).
    std::map<std::string, std::vector<const Row*>> groups;
    std::vector<std::string> group_order;
    for (const Row& row : rows) {
      EvalEnv env{&schema, &row};
      std::string key;
      for (const auto& g : stmt.group_by) {
        EASIA_ASSIGN_OR_RETURN(Value v, EvalExpr(*g, env));
        PutLengthPrefixed(&key, v.ToKeyString());
      }
      auto [it, inserted] = groups.emplace(key, std::vector<const Row*>());
      if (inserted) group_order.push_back(key);
      it->second.push_back(&row);
    }
    if (groups.empty() && stmt.group_by.empty()) {
      groups.emplace("", std::vector<const Row*>());
      group_order.push_back("");
    }
    for (const std::string& key : group_order) {
      const std::vector<const Row*>& group = groups[key];
      if (stmt.having != nullptr) {
        EASIA_ASSIGN_OR_RETURN(Value h,
                               EvalAggregate(*stmt.having, schema, group));
        if (!IsTruthy(h)) continue;
      }
      ProjectedRow out;
      for (const OutputItem& o : outputs) {
        if (o.expr == nullptr) {
          // Star expansion in aggregate context: take from first row.
          out.values.push_back(group.empty() ? Value::Null()
                                             : (*group[0])[o.direct_index]);
          continue;
        }
        EASIA_ASSIGN_OR_RETURN(Value v, EvalAggregate(*o.expr, schema, group));
        out.values.push_back(std::move(v));
      }
      // Sort keys for aggregate rows: aggregate-aware evaluation.
      for (const OrderItem& item : stmt.order_by) {
        bool matched = false;
        if (item.expr->kind == Expr::Kind::kColumn &&
            item.expr->table.empty()) {
          for (size_t i = 0; i < outputs.size(); ++i) {
            if (EqualsIgnoreCase(outputs[i].name, item.expr->column)) {
              out.sort_keys.push_back(out.values[i]);
              matched = true;
              break;
            }
          }
        }
        if (!matched) {
          EASIA_ASSIGN_OR_RETURN(Value v,
                                 EvalAggregate(*item.expr, schema, group));
          out.sort_keys.push_back(std::move(v));
        }
      }
      projected.push_back(std::move(out));
    }
  } else {
    for (const Row& row : rows) {
      EvalEnv env{&schema, &row};
      ProjectedRow out;
      for (const OutputItem& o : outputs) {
        if (o.expr == nullptr) {
          out.values.push_back(row[o.direct_index]);
        } else {
          EASIA_ASSIGN_OR_RETURN(Value v, EvalExpr(*o.expr, env));
          out.values.push_back(std::move(v));
        }
      }
      EASIA_ASSIGN_OR_RETURN(out.sort_keys, compute_sort_keys(env, out.values));
      projected.push_back(std::move(out));
    }
  }

  // --- DISTINCT ---
  if (stmt.distinct) {
    std::set<std::string> seen;
    std::vector<ProjectedRow> unique_rows;
    for (ProjectedRow& pr : projected) {
      std::string key;
      for (const Value& v : pr.values) {
        PutLengthPrefixed(&key, v.ToKeyString());
      }
      if (seen.insert(key).second) unique_rows.push_back(std::move(pr));
    }
    projected = std::move(unique_rows);
  }

  // --- ORDER BY (stable) ---
  if (!stmt.order_by.empty()) {
    std::stable_sort(projected.begin(), projected.end(),
                     [&](const ProjectedRow& a, const ProjectedRow& b) {
                       for (size_t i = 0; i < stmt.order_by.size(); ++i) {
                         int c = a.sort_keys[i].Compare(b.sort_keys[i]);
                         if (c != 0) {
                           return stmt.order_by[i].descending ? c > 0 : c < 0;
                         }
                       }
                       return false;
                     });
  }

  // --- OFFSET / LIMIT ---
  size_t begin = std::min<size_t>(static_cast<size_t>(std::max<int64_t>(
                                      stmt.offset, 0)),
                                  projected.size());
  size_t end = projected.size();
  if (stmt.limit >= 0) {
    end = std::min(end, begin + static_cast<size_t>(stmt.limit));
  }

  // --- DATALINK presentation rewrite ---
  for (size_t r = begin; r < end; ++r) {
    Row& values = projected[r].values;
    if (rewriter != nullptr) {
      for (size_t c = 0; c < outputs.size(); ++c) {
        const ColumnDef* def = outputs[c].source_def;
        if (def != nullptr && def->type == DataType::kDatalink &&
            !values[c].is_null()) {
          EASIA_ASSIGN_OR_RETURN(std::string rewritten,
                                 rewriter(*def, values[c].AsString()));
          values[c] = Value::Datalink(std::move(rewritten));
        }
      }
    }
    result.rows.push_back(std::move(values));
  }
  return result;
}

/// Whole-query columnar aggregation: one AggregateScan kernel call replaces
/// row materialisation, grouping and per-group expression walking. Only
/// reached when the planner proved the query maps exactly onto the kernel
/// (plan.aggregate.fast_path), so names, types and values agree with the
/// FinishSelect row path.
Result<QueryResult> ExecuteAggregateFast(const SelectStmt& stmt,
                                         const SelectPlan& plan) {
  const ScanPlan& scan = plan.scans[0];
  const store::ColumnStore* cs = scan.table->column_store();
  EASIA_ASSIGN_OR_RETURN(
      std::vector<store::AggGroup> groups,
      cs->AggregateScan(scan.kernel_predicates, plan.aggregate.group_by_cols,
                        plan.aggregate.aggs));

  std::vector<ColumnBinding> schema =
      TableSchema(scan.table->def(), scan.alias);
  QueryResult result;
  result.is_query = true;
  for (size_t i = 0; i < stmt.items.size(); ++i) {
    result.column_names.push_back(DefaultItemName(stmt.items[i], i));
    result.column_types.push_back(GuessItemType(*stmt.items[i].expr, schema));
  }
  for (store::AggGroup& g : groups) {
    Row out;
    for (const AggregatePlan::Item& item : plan.aggregate.items) {
      if (item.is_aggregate) {
        out.push_back(std::move(g.aggregates[item.index]));
      } else {
        // Copied, not moved: a source column may appear in several items.
        out.push_back(g.first_row[item.index]);
      }
    }
    result.rows.push_back(std::move(out));
  }
  return result;
}

}  // namespace

Result<QueryResult> ExecuteSelect(const SelectStmt& stmt,
                                  const TableLookup& lookup,
                                  const DatalinkRewriter& rewriter,
                                  const ExecuteOptions& options) {
  if (stmt.from.empty()) {
    return Status::InvalidArgument("SELECT requires a FROM clause");
  }
  PlanProfile* profile = options.profile;
  const auto t0 = std::chrono::steady_clock::now();
  auto run = [&]() -> Result<QueryResult> {
    std::vector<ColumnBinding> schema;
    std::vector<Row> rows;
    if (!options.use_planner) {
      EASIA_RETURN_IF_ERROR(BuildRowsNaive(stmt, lookup, &schema, &rows));
      return FinishSelect(stmt, schema, std::move(rows), rewriter);
    }
    PlannerOptions planner_options;
    planner_options.cost_based = options.cost_based;
    EASIA_ASSIGN_OR_RETURN(SelectPlan plan,
                           PlanSelect(stmt, lookup, planner_options));
    if (options.plan_observer != nullptr) options.plan_observer(plan);
    if (profile != nullptr) {
      profile->scans.assign(plan.scans.size(), PlanProfile::Op{});
      profile->joins.assign(plan.joins.size(), PlanProfile::Op{});
      for (size_t i = 0; i < plan.scans.size(); ++i) {
        profile->scans[i].est_rows = plan.scans[i].est_rows;
      }
      for (size_t j = 0; j < plan.joins.size(); ++j) {
        profile->joins[j].est_rows = plan.joins[j].est_rows;
      }
    }
    if (plan.aggregate.fast_path) {
      obs::Tracer::Scope span(options.tracer, "exec:aggregate-kernel");
      TimeGuard tg(profile != nullptr && !profile->scans.empty()
                       ? &profile->scans[0].seconds
                       : nullptr);
      return ExecuteAggregateFast(stmt, plan);
    }
    EASIA_RETURN_IF_ERROR(
        BuildRowsPlanned(plan, &schema, &rows, profile, options.tracer));
    obs::Tracer::Scope span(options.tracer, "exec:finish");
    return FinishSelect(stmt, schema, std::move(rows), rewriter);
  };
  Result<QueryResult> result = run();
  if (profile != nullptr) {
    profile->total_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (result.ok()) {
      profile->result_rows = static_cast<int64_t>(result->rows.size());
    }
  }
  return result;
}

}  // namespace easia::db
