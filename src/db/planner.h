#ifndef EASIA_DB_PLANNER_H_
#define EASIA_DB_PLANNER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "db/ast.h"
#include "db/executor.h"
#include "db/table.h"

namespace easia::db {

/// How one FROM-clause table is read.
struct ScanPlan {
  enum class Access {
    kSeqScan,       // full table scan
    kUniqueLookup,  // point fetch through a unique index (PK or UNIQUE)
    kIndexScan,     // non-unique secondary index (FK columns)
    kPrefixScan,    // radix prefix index over a LIKE 'prefix%' conjunct
  };

  const Table* table = nullptr;
  std::string alias;
  /// Position of this table in the statement's FROM list. Differs from the
  /// scan's index in SelectPlan::scans when the cost-based planner reorders
  /// joins; the executor uses it to assemble output rows (and row order)
  /// as if the original FROM order had run.
  size_t from_index = 0;
  /// Planner cardinality estimate after pushed filters (rows this scan is
  /// expected to produce); -1 when never estimated.
  double est_rows = -1;
  Access access = Access::kSeqScan;
  /// Columns of the chosen index (empty for seq scans).
  std::vector<std::string> index_columns;
  /// Literal key values, coerced to the index column types.
  std::vector<Value> key_values;
  /// kPrefixScan: the literal prefix every match must start with
  /// (LikePatternPrefix of the pushed pattern); the radix-indexed column
  /// is index_columns[0].
  std::string prefix;
  /// Single-table WHERE/ON conjuncts pushed below the join (for a DML
  /// target scan: the whole WHERE). These are re-evaluated on every fetched
  /// row (including index hits), so an index choice can never change which
  /// rows qualify.
  std::vector<const Expr*> pushed;
  /// Seq scans: every pushed conjunct translated into a kernel predicate,
  /// so the executor runs Table::FilterScan and copies only the rows that
  /// pass instead of every row. Set only when ALL pushed conjuncts convert
  /// (partial conversion could reorder which predicate errors first).
  bool kernel_filter = false;
  std::vector<store::ColPredicate> kernel_predicates;
};

/// How scans[i] (i >= 1) is attached to the rows accumulated so far.
struct JoinPlan {
  /// kIndexLoop fetches matching right-table rows through an index per
  /// accumulated left row instead of materialising and hashing the right
  /// table — the cost-based choice when the right side is large and an
  /// index covers exactly the join key columns.
  enum class Strategy { kNestedLoop, kHashJoin, kIndexLoop };

  Strategy strategy = Strategy::kNestedLoop;
  /// Join key pairs: left_keys[k] evaluates over the accumulated (left)
  /// schema, right_keys[k] over the new table's single-table schema. For
  /// kIndexLoop the pairs are ordered to match `index_columns`.
  std::vector<const Expr*> left_keys;
  std::vector<const Expr*> right_keys;
  /// kIndexLoop: the right-table index driving the lookups, in the
  /// index's own column order (Table::FindByIndex requires it).
  std::vector<std::string> index_columns;
  /// Planner estimate of rows surviving this join; -1 when never
  /// estimated.
  double est_rows = -1;
  /// Conjuncts applied to each combined row at this join (the non-equi
  /// remainder of the ON condition plus WHERE conjuncts that span exactly
  /// the tables joined so far).
  std::vector<const Expr*> residual;
};

/// Aggregation step of a planned SELECT. `present` marks any aggregate /
/// GROUP BY query; `fast_path` additionally means the whole query maps
/// onto one columnar AggregateScan kernel call: a single seq scan,
/// every pushed predicate kernel-convertible, plain-column GROUP BY, and a
/// select list of plain columns and plain aggregate calls — no HAVING,
/// ORDER BY, DISTINCT, LIMIT/OFFSET, joins or residual predicates.
struct AggregatePlan {
  bool present = false;
  bool fast_path = false;
  /// kernel inputs (fast_path only)
  std::vector<size_t> group_by_cols;
  std::vector<store::AggSpec> aggs;
  /// Output mapping per select item: an aggregate slot (index into `aggs`)
  /// or a table column fetched from the group's first row.
  struct Item {
    bool is_aggregate = false;
    size_t index = 0;
  };
  std::vector<Item> items;
};

/// A planned SELECT: per-table access paths, join strategies, the residual
/// WHERE that survives pushdown, and an optional row-production cutoff.
struct SelectPlan {
  const SelectStmt* stmt = nullptr;
  /// Scans in EXECUTION order. When `reordered`, this differs from the
  /// statement's FROM order; each scan's `from_index` maps it back.
  std::vector<ScanPlan> scans;
  /// True when the cost-based planner chose a join order other than the
  /// FROM order. The executor then restores the original row order (and
  /// column order) before handing rows downstream, so every reordered
  /// plan remains result-identical to the unplanned path.
  bool reordered = false;
  AggregatePlan aggregate;
  /// joins[i] attaches scans[i + 1]; empty for single-table queries.
  std::vector<JoinPlan> joins;
  /// WHERE conjuncts not pushed to a scan or consumed by a join.
  std::vector<const Expr*> residual_where;
  /// When >= 0, row production may stop after this many joined+filtered
  /// rows (LIMIT+OFFSET with no ORDER BY / GROUP BY / DISTINCT /
  /// aggregates).
  int64_t row_cutoff = -1;

  /// Human/test-readable plan description, one line per plan node — the
  /// EXPLAIN output.
  std::vector<std::string> Describe() const;

  /// Exprs synthesized while planning (conjunct clones); plan nodes point
  /// into these and into the statement, so the plan must not outlive
  /// either.
  std::vector<std::unique_ptr<Expr>> owned;
};

struct PlannerOptions {
  /// When true (the default), the planner consults the tables' maintained
  /// column statistics to pick join order, join strategy (hash vs. index
  /// loop) and hash build side by estimated cost. Reordering only happens
  /// past a stability margin (both a ratio and an absolute cost gain), so
  /// near-tie plans keep the deterministic FROM-order shape. When false,
  /// the static PR 2-era planner runs: FROM order, hash joins for every
  /// equi-join.
  bool cost_based = true;
};

/// Builds an execution plan for `stmt`: splits the WHERE conjunction,
/// pushes single-table predicates down to the scans, picks index access
/// paths (unique point lookups on any table, FK secondary-index scans),
/// turns equi-join conditions into hash or index-loop joins, picks a
/// cost-based join order, and decides whether LIMIT may short-circuit row
/// production.
Result<SelectPlan> PlanSelect(const SelectStmt& stmt,
                              const TableLookup& lookup,
                              const PlannerOptions& options = {});

/// RowIds an index-driven scan fetches, ascending: the unique or secondary
/// index hits, the radix prefix candidates, or the filter kernel's
/// survivors. Candidates only — the caller still evaluates the pushed
/// predicates on each. Not for a plain sequential scan (kSeqScan without
/// kernel_filter), which visits rows through Table::ForEachRow.
Result<std::vector<RowId>> CandidateRowIds(const ScanPlan& scan);

/// The rows a single-table UPDATE or DELETE acts on, and how they were
/// found.
struct DmlTargets {
  /// The chosen access path; kSeqScan without kernel_filter is a full scan.
  ScanPlan scan;
  /// Rows on which the WHERE is truthy, in ascending RowId order (the order
  /// a full scan visits them in).
  std::vector<RowId> row_ids;
};

/// Selects the target rows of UPDATE/DELETE on `table`: the rows on which
/// `where` (null: every row) is truthy. The WHERE takes the same
/// single-table access paths as a planned SELECT scan — unique lookup,
/// secondary (FK) index, radix prefix, filter kernel — and the
/// whole WHERE is re-evaluated on every candidate, so an index narrows the
/// rows visited but never changes which qualify. A conjunct with an
/// unknown or ambiguous column keeps the full scan, which then reports the
/// evaluation error exactly as the unplanned scan does.
Result<DmlTargets> SelectDmlTargets(const Table& table, const Expr* where);

}  // namespace easia::db

#endif  // EASIA_DB_PLANNER_H_
