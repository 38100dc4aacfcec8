#ifndef EASIA_DB_STORE_RADIX_INDEX_H_
#define EASIA_DB_STORE_RADIX_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace easia::db::store {

/// Compressed radix (patricia) trie over the raw bytes of a TEXT column,
/// mapping each stored value to the RowIds that hold it. Powers
/// `LIKE 'abc%'` pushdown and the /typeahead name lookup, mirroring the
/// star-catalogue name cross-index pattern: prefix lookups walk at most
/// `prefix.size()` edges and then enumerate one subtree, independent of
/// table size.
///
/// Not thread-safe; the owning Table is guarded by the database statement
/// gate like every other index.
class RadixIndex {
 public:
  RadixIndex();

  RadixIndex(const RadixIndex&) = delete;
  RadixIndex& operator=(const RadixIndex&) = delete;
  RadixIndex(RadixIndex&&) = default;
  RadixIndex& operator=(RadixIndex&&) = default;

  /// Adds `id` under `key`. Duplicate (key, id) pairs are ignored.
  void Insert(std::string_view key, uint64_t id);

  /// Removes one (key, id) pair; no-op when absent. Emptied leaves are
  /// pruned and single-child chains re-compressed so the trie never grows
  /// monotonically under churn.
  void Remove(std::string_view key, uint64_t id);

  /// RowIds of every key that starts with `prefix`, ascending. An empty
  /// prefix enumerates every indexed row.
  std::vector<uint64_t> PrefixRowIds(std::string_view prefix) const;

  /// Distinct stored values starting with `prefix`, in lexicographic
  /// (byte) order, at most `limit` of them (0 = unlimited).
  std::vector<std::string> PrefixValues(std::string_view prefix,
                                        size_t limit) const;

  struct Stats {
    size_t nodes = 0;    // trie nodes, including the root
    size_t bytes = 0;    // approximate heap footprint (sizes, not capacity)
    size_t entries = 0;  // (key, id) pairs
  };
  /// Answers from counters maintained by Insert/Remove: O(1), so a
  /// /metrics scrape never walks the trie.
  Stats GetStats() const;
  /// The same figures by a full node walk, for checking the counters.
  Stats WalkStats() const;

  size_t entries() const { return entries_; }

  void Clear();

 private:
  struct Node {
    /// Compressed edge label from the parent (empty only for the root).
    std::string edge;
    /// RowIds whose value ends exactly at this node, sorted ascending.
    std::vector<uint64_t> rows;
    /// Children sorted by the first byte of their edge (all distinct).
    std::vector<std::unique_ptr<Node>> children;
  };

  static void CollectRows(const Node& node, std::vector<uint64_t>* out);
  static void CollectValues(const Node& node, std::string* scratch,
                            size_t limit, std::vector<std::string>* out);
  static void AccountNode(const Node& node, Stats* stats);

  /// Child of `node` whose edge starts with byte `b`, else null.
  static Node* FindChild(const Node& node, char b);

  Node root_;
  size_t node_count_ = 1;
  size_t entries_ = 0;
  size_t edge_bytes_ = 0;  // summed edge label lengths
};

}  // namespace easia::db::store

#endif  // EASIA_DB_STORE_RADIX_INDEX_H_
