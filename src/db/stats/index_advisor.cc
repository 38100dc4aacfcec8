#include "db/stats/index_advisor.h"

#include <algorithm>

#include "common/string_util.h"
#include "db/planner.h"

namespace easia::db::stats {

namespace {

/// True when some unique or secondary index of `table` leads with
/// `column`, so an equality on it already has an index access path.
bool ColumnCovered(const Table& table, const std::string& column) {
  for (const auto& cols : table.UniqueIndexColumns()) {
    if (!cols.empty() && EqualsIgnoreCase(cols[0], column)) return true;
  }
  for (const auto& cols : table.SecondaryIndexColumns()) {
    if (!cols.empty() && EqualsIgnoreCase(cols[0], column)) return true;
  }
  return false;
}

/// The column name of a bare own-table reference, empty otherwise. A
/// qualified reference must name the scan's alias; the column must exist
/// in the table.
std::string OwnColumn(const Expr* e, const ScanPlan& scan) {
  if (e == nullptr || e->kind != Expr::Kind::kColumn) return "";
  if (!e->table.empty() && !EqualsIgnoreCase(e->table, scan.alias)) return "";
  const ColumnDef* def = scan.table->def().FindColumn(e->column);
  return def != nullptr ? def->name : "";
}

}  // namespace

void IndexAdvisor::ObservePlan(const SelectPlan& plan) {
  for (const ScanPlan& scan : plan.scans) {
    if (scan.access != ScanPlan::Access::kSeqScan || scan.table == nullptr) {
      continue;
    }
    for (const Expr* e : scan.pushed) {
      if (e == nullptr || e->kind != Expr::Kind::kBinary ||
          e->op != Expr::Op::kEq) {
        continue;
      }
      // column = literal, either side order.
      std::string col;
      if (e->right != nullptr && e->right->kind == Expr::Kind::kLiteral &&
          !e->right->literal.is_null()) {
        col = OwnColumn(e->left.get(), scan);
      }
      if (col.empty() && e->left != nullptr &&
          e->left->kind == Expr::Kind::kLiteral &&
          !e->left->literal.is_null()) {
        col = OwnColumn(e->right.get(), scan);
      }
      if (col.empty() || ColumnCovered(*scan.table, col)) continue;
      Record(scan.table->def().name, col);
    }
  }
}

void IndexAdvisor::Record(const std::string& table,
                          const std::string& column) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++hits_[{table, column}];
  }
  if (metrics_ != nullptr) {
    metrics_
        ->GetCounter(
            "easia_db_index_advisor_hits_total",
            "Seq-scan predicates that an index on (table, column) would "
            "have served, by predicate kind.",
            {{"column", column}, {"kind", "equality"}, {"table", table}})
        ->Increment();
  }
}

std::vector<IndexRecommendation> IndexAdvisor::Recommendations(
    uint64_t min_hits) const {
  std::vector<IndexRecommendation> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [key, count] : hits_) {
      if (count < min_hits) continue;
      IndexRecommendation rec;
      rec.table = key.first;
      rec.column = key.second;
      rec.hits = count;
      out.push_back(std::move(rec));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const IndexRecommendation& a, const IndexRecommendation& b) {
              if (a.hits != b.hits) return a.hits > b.hits;
              if (a.table != b.table) return a.table < b.table;
              return a.column < b.column;
            });
  return out;
}

uint64_t IndexAdvisor::total_observations() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& [key, count] : hits_) total += count;
  return total;
}

void IndexAdvisor::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  hits_.clear();
}

}  // namespace easia::db::stats
