#ifndef EASIA_DB_EXECUTOR_H_
#define EASIA_DB_EXECUTOR_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/result.h"
#include "db/ast.h"
#include "db/table.h"

namespace easia::obs {
class Tracer;
}  // namespace easia::obs

namespace easia::db {

struct QueryResult;  // database.h
struct SelectPlan;   // planner.h

/// One column of an intermediate (joined) row.
struct ColumnBinding {
  std::string table_alias;  // FROM-clause alias
  std::string column;       // column name
  DataType type = DataType::kVarchar;
  const ColumnDef* def = nullptr;  // source column definition (may be null)
};

/// The bindings of every column of `def` under `alias`, in table order.
std::vector<ColumnBinding> TableSchema(const TableDef& def,
                                       const std::string& alias);

/// Expression evaluation environment: a schema plus (optionally) a current
/// row. INSERT value lists evaluate with `row == nullptr`.
struct EvalEnv {
  const std::vector<ColumnBinding>* schema = nullptr;
  const Row* row = nullptr;
};

/// Evaluates a scalar expression. SQL three-valued logic is approximated:
/// comparisons with NULL yield NULL (represented as a NULL value), and
/// WHERE treats non-TRUE as reject. Supported scalar functions: UPPER,
/// LOWER, LENGTH, ABS, SUBSTR(s, start[, len]), COALESCE.
Result<Value> EvalExpr(const Expr& expr, const EvalEnv& env);

/// Truthiness of a predicate result (NULL and false both reject).
bool IsTruthy(const Value& value);

/// SUM/AVG finalization rule shared by the row executor, the columnar
/// AggregateScan kernel and the shard coordinator's partial-aggregate
/// merge (src/db/shard). `isum` is the exact 128-bit total of the
/// integer-kind inputs, `dsum` the running double total of all numeric
/// inputs, `all_int` whether every non-NULL input was integer-kind. The
/// rule is order-independent, so partial accumulators merged across
/// shards finalize identically to a single-node pass.
inline Value FinishSum(bool all_int, __int128 isum, double dsum) {
  if (!all_int) return Value::Double(dsum);
  constexpr __int128 kInt64Min = std::numeric_limits<int64_t>::min();
  constexpr __int128 kInt64Max = std::numeric_limits<int64_t>::max();
  if (isum >= kInt64Min && isum <= kInt64Max) {
    return Value::Integer(static_cast<int64_t>(isum));
  }
  return Value::Double(static_cast<double>(isum));
}

inline Value FinishAvg(bool all_int, __int128 isum, double dsum,
                       int64_t count) {
  if (all_int) {
    return Value::Double(static_cast<double>(isum) /
                         static_cast<double>(count));
  }
  return Value::Double(dsum / static_cast<double>(count));
}

/// Output-column naming and typing rules for SELECT items. Shared with
/// the shard coordinator's scatter/gather merge (src/db/shard) so merged
/// results carry byte-identical column names and types.
std::string DefaultItemName(const SelectItem& item, size_t index);
DataType GuessItemType(const Expr& expr,
                       const std::vector<ColumnBinding>& schema);

/// Resolves tables by name for the executor.
using TableLookup =
    std::function<Result<const Table*>(const std::string& name)>;

/// Rewrites a DATALINK value for presentation (token form); nullable.
using DatalinkRewriter = std::function<Result<std::string>(
    const ColumnDef& def, const std::string& url)>;

/// Per-operator execution profile, filled when ExecuteOptions::profile is
/// set. Operators are indexed like SelectPlan::Describe() lines: `scans`
/// and `joins` follow the plan's execution order. EXPLAIN ANALYZE renders
/// estimated vs. actual rows and per-operator wall time from this.
struct PlanProfile {
  struct Op {
    double est_rows = -1;     // planner estimate (-1: not estimated)
    int64_t actual_rows = -1;  // rows the operator produced (-1: unknown)
    double seconds = 0;        // wall time attributed to the operator
  };
  std::vector<Op> scans;
  std::vector<Op> joins;
  int64_t result_rows = -1;
  double total_seconds = 0;
};

/// Execution knobs. `use_planner = false` selects the legacy path
/// (materialised nested-loop joins, whole-WHERE filter) — kept for plan
/// correctness tests and before/after benchmarks.
struct ExecuteOptions {
  bool use_planner = true;
  /// Forwarded to PlannerOptions::cost_based: statistics-driven join
  /// order / strategy / build-side choices. False pins the static
  /// FROM-order plan shape.
  bool cost_based = true;
  /// When set, filled with per-operator estimates, actual row counts and
  /// timings (EXPLAIN ANALYZE).
  PlanProfile* profile = nullptr;
  /// When set, row production opens per-operator spans under the caller's
  /// current span.
  obs::Tracer* tracer = nullptr;
  /// Called with the final plan before execution (index advisor hook).
  std::function<void(const SelectPlan&)> plan_observer;
};

/// Executes a SELECT: planned scans and joins (predicate pushdown, index
/// access, hash joins, LIMIT short-circuit — see db/planner.h), then WHERE
/// residual, GROUP BY / aggregates (COUNT/SUM/AVG/MIN/MAX), HAVING,
/// ORDER BY, DISTINCT, LIMIT/OFFSET and projection. `rewriter`, when set,
/// is applied to projected DATALINK columns (SQL/MED READ PERMISSION DB
/// token insertion).
Result<QueryResult> ExecuteSelect(const SelectStmt& stmt,
                                  const TableLookup& lookup,
                                  const DatalinkRewriter& rewriter,
                                  const ExecuteOptions& options = {});

}  // namespace easia::db

#endif  // EASIA_DB_EXECUTOR_H_
