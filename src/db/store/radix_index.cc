#include "db/store/radix_index.h"

#include <algorithm>
#include <utility>

namespace easia::db::store {
namespace {

/// Length of the shared prefix of `a` and `b`.
size_t CommonPrefix(std::string_view a, std::string_view b) {
  size_t n = std::min(a.size(), b.size());
  size_t i = 0;
  while (i < n && a[i] == b[i]) ++i;
  return i;
}

}  // namespace

RadixIndex::RadixIndex() = default;

RadixIndex::Node* RadixIndex::FindChild(const Node& node, char b) {
  // Children are few (distinct first bytes); linear scan beats binary
  // search bookkeeping at this fan-out and keeps insertion simple.
  for (const auto& child : node.children) {
    if (!child->edge.empty() && child->edge[0] == b) return child.get();
  }
  return nullptr;
}

void RadixIndex::Insert(std::string_view key, uint64_t id) {
  Node* node = &root_;
  std::string_view rest = key;
  while (true) {
    if (rest.empty()) {
      auto it = std::lower_bound(node->rows.begin(), node->rows.end(), id);
      if (it != node->rows.end() && *it == id) return;  // duplicate pair
      node->rows.insert(it, id);
      ++entries_;
      return;
    }
    Node* child = FindChild(*node, rest[0]);
    if (child == nullptr) {
      auto leaf = std::make_unique<Node>();
      leaf->edge.assign(rest);
      leaf->rows.push_back(id);
      // Keep children ordered by first byte for lexicographic walks.
      auto pos = std::upper_bound(
          node->children.begin(), node->children.end(), leaf,
          [](const std::unique_ptr<Node>& a, const std::unique_ptr<Node>& b) {
            return static_cast<unsigned char>(a->edge[0]) <
                   static_cast<unsigned char>(b->edge[0]);
          });
      edge_bytes_ += rest.size();
      node->children.insert(pos, std::move(leaf));
      ++node_count_;
      ++entries_;
      return;
    }
    size_t shared = CommonPrefix(rest, child->edge);
    if (shared < child->edge.size()) {
      // Split the child's edge: child keeps the tail under a new
      // intermediate node that owns the shared head.
      auto tail = std::make_unique<Node>();
      tail->edge = child->edge.substr(shared);
      tail->rows = std::move(child->rows);
      tail->children = std::move(child->children);
      child->edge.resize(shared);
      child->rows.clear();
      child->children.clear();
      child->children.push_back(std::move(tail));
      ++node_count_;
    }
    rest.remove_prefix(shared);
    node = child;
  }
}

void RadixIndex::Remove(std::string_view key, uint64_t id) {
  // Collect the path so emptied nodes can be pruned bottom-up.
  std::vector<Node*> path = {&root_};
  Node* node = &root_;
  std::string_view rest = key;
  while (!rest.empty()) {
    Node* child = FindChild(*node, rest[0]);
    if (child == nullptr) return;  // key absent
    size_t shared = CommonPrefix(rest, child->edge);
    if (shared < child->edge.size()) return;  // key absent
    rest.remove_prefix(shared);
    node = child;
    path.push_back(node);
  }
  auto it = std::lower_bound(node->rows.begin(), node->rows.end(), id);
  if (it == node->rows.end() || *it != id) return;  // pair absent
  node->rows.erase(it);
  --entries_;

  // Prune empty leaves and re-merge single-child pass-through nodes so
  // delete-heavy churn cannot grow the trie without bound.
  for (size_t depth = path.size(); depth-- > 1;) {
    Node* current = path[depth];
    Node* parent = path[depth - 1];
    if (current->rows.empty() && current->children.empty()) {
      for (auto child_it = parent->children.begin();
           child_it != parent->children.end(); ++child_it) {
        if (child_it->get() == current) {
          edge_bytes_ -= current->edge.size();
          parent->children.erase(child_it);
          --node_count_;
          break;
        }
      }
    } else if (current->rows.empty() && current->children.size() == 1) {
      std::unique_ptr<Node> only = std::move(current->children.front());
      current->children.clear();
      current->edge += only->edge;
      current->rows = std::move(only->rows);
      current->children = std::move(only->children);
      --node_count_;
    }
  }
}

void RadixIndex::CollectRows(const Node& node, std::vector<uint64_t>* out) {
  out->insert(out->end(), node.rows.begin(), node.rows.end());
  for (const auto& child : node.children) CollectRows(*child, out);
}

std::vector<uint64_t> RadixIndex::PrefixRowIds(std::string_view prefix) const {
  const Node* node = &root_;
  std::string_view rest = prefix;
  while (!rest.empty()) {
    const Node* child = FindChild(*node, rest[0]);
    if (child == nullptr) return {};
    size_t shared = CommonPrefix(rest, child->edge);
    if (shared < rest.size() && shared < child->edge.size()) return {};
    rest.remove_prefix(shared);
    node = child;
  }
  std::vector<uint64_t> out;
  CollectRows(*node, &out);
  std::sort(out.begin(), out.end());
  return out;
}

void RadixIndex::CollectValues(const Node& node, std::string* scratch,
                               size_t limit, std::vector<std::string>* out) {
  if (limit != 0 && out->size() >= limit) return;
  scratch->append(node.edge);
  if (!node.rows.empty()) out->push_back(*scratch);
  for (const auto& child : node.children) {
    if (limit != 0 && out->size() >= limit) break;
    CollectValues(*child, scratch, limit, out);
  }
  scratch->resize(scratch->size() - node.edge.size());
}

std::vector<std::string> RadixIndex::PrefixValues(std::string_view prefix,
                                                  size_t limit) const {
  const Node* node = &root_;
  std::string matched;
  std::string_view rest = prefix;
  while (!rest.empty()) {
    const Node* child = FindChild(*node, rest[0]);
    if (child == nullptr) return {};
    size_t shared = CommonPrefix(rest, child->edge);
    if (shared < rest.size() && shared < child->edge.size()) return {};
    rest.remove_prefix(shared);
    node = child;
    matched += node->edge;
  }
  // `matched` already includes the final node's full edge, so walk its
  // subtree with the edge stripped from the scratch prefix.
  std::vector<std::string> out;
  std::string scratch = matched.substr(0, matched.size() - node->edge.size());
  if (node == &root_) scratch.clear();
  CollectValues(*node, &scratch, limit, &out);
  return out;
}

void RadixIndex::AccountNode(const Node& node, Stats* stats) {
  ++stats->nodes;
  stats->bytes += sizeof(Node) + node.edge.size() +
                  node.rows.size() * sizeof(uint64_t) +
                  node.children.size() * sizeof(std::unique_ptr<Node>);
  stats->entries += node.rows.size();
  for (const auto& child : node.children) AccountNode(*child, stats);
}

RadixIndex::Stats RadixIndex::WalkStats() const {
  Stats stats;
  AccountNode(root_, &stats);
  return stats;
}

RadixIndex::Stats RadixIndex::GetStats() const {
  // Every node but the root hangs off exactly one parent's child pointer.
  Stats stats;
  stats.nodes = node_count_;
  stats.entries = entries_;
  stats.bytes = node_count_ * sizeof(Node) + edge_bytes_ +
                entries_ * sizeof(uint64_t) +
                (node_count_ - 1) * sizeof(std::unique_ptr<Node>);
  return stats;
}

void RadixIndex::Clear() {
  root_.children.clear();
  root_.rows.clear();
  node_count_ = 1;
  entries_ = 0;
  edge_bytes_ = 0;
}

}  // namespace easia::db::store
