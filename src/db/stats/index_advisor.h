#ifndef EASIA_DB_STATS_INDEX_ADVISOR_H_
#define EASIA_DB_STATS_INDEX_ADVISOR_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace easia::db {
struct SelectPlan;
}  // namespace easia::db

namespace easia::db::stats {

/// One hot-predicate pattern the advisor has seen often enough to report:
/// queries keep filtering `table.column` by equality through a sequential
/// scan, and no existing index leads with the column. (LIKE-prefix
/// patterns need no advice: every VARCHAR column carries a radix index.)
struct IndexRecommendation {
  std::string table;
  std::string column;
  uint64_t hits = 0;
};

/// Watches executed plans for sequential scans carrying indexable pushed
/// predicates and counts how often each (table, column) misses an index.
/// The database feeds it every planned SELECT; the /stats page surfaces
/// the tally, and ApplyIndexRecommendations turns hot patterns into
/// secondary indexes.
///
/// Thread-safe: observation happens under the database's shared (read)
/// lock, so concurrent readers tally through the advisor's own mutex.
class IndexAdvisor {
 public:
  /// Optional: hit counts are mirrored into
  /// `easia_db_index_advisor_hits_total{table,column,kind="equality"}`.
  void set_metrics(obs::MetricsRegistry* metrics) { metrics_ = metrics; }

  /// Tallies every seq scan in `plan` whose pushed conjuncts contain a
  /// column-vs-literal equality, when the scanned table has no index
  /// leading with that column.
  void ObservePlan(const SelectPlan& plan);

  /// Patterns with at least `min_hits` observations, hottest first (ties
  /// broken by table then column name for determinism).
  std::vector<IndexRecommendation> Recommendations(uint64_t min_hits) const;

  /// Total observations tallied (all patterns).
  uint64_t total_observations() const;

  void Clear();

 private:
  void Record(const std::string& table, const std::string& column);

  mutable std::mutex mu_;
  /// Hits by (table, column).
  std::map<std::pair<std::string, std::string>, uint64_t> hits_;
  obs::MetricsRegistry* metrics_ = nullptr;
};

}  // namespace easia::db::stats

#endif  // EASIA_DB_STATS_INDEX_ADVISOR_H_
