#include "core/regular_forest.hpp"

#include <algorithm>

#include "support/check.hpp"
#include "support/metrics.hpp"

namespace serelin {

RegularForest::RegularForest(std::span<const std::int64_t> gain,
                             std::span<const char> movable)
    : b_(gain.begin(), gain.end()),
      movable_(movable.begin(), movable.end()) {
  SERELIN_REQUIRE(gain.size() == movable.size(), "gain/movable size mismatch");
  const std::size_t n = gain.size();
  w_.assign(n, 1);
  big_b_.assign(n, 0);
  blocked_.assign(n, 0);
  sensitive_.assign(n, 0);
  parent_.assign(n, kNullVertex);
  children_.assign(n, {});
  u_.assign(n, false);
  for (std::size_t v = 0; v < n; ++v) {
    big_b_[v] = b_[v];  // w = 1
    blocked_[v] = movable_[v] ? 0 : 1;
    sensitive_[v] = class_sensitive(v);
  }
}

VertexId RegularForest::root_of(VertexId v) const {
  while (parent_[v] != kNullVertex) v = parent_[v];
  return v;
}

RegularForest::TreeClass RegularForest::tree_class(VertexId root) const {
  if (blocked_[root] > 0) return TreeClass::kNegative;
  if (big_b_[root] > 0) return TreeClass::kPositive;
  if (big_b_[root] == 0) return TreeClass::kZero;
  return TreeClass::kNegative;
}

bool RegularForest::in_positive_tree(VertexId v) const {
  return tree_class(root_of(v)) == TreeClass::kPositive;
}

std::vector<VertexId> RegularForest::positive_set() const {
  std::vector<VertexId> out;
  std::vector<VertexId> stack;
  for (VertexId v = 0; v < parent_.size(); ++v) {
    if (!is_root(v) || tree_class(v) != TreeClass::kPositive) continue;
    stack.push_back(v);
    while (!stack.empty()) {
      const VertexId x = stack.back();
      stack.pop_back();
      out.push_back(x);
      for (VertexId c : children_[x]) stack.push_back(c);
    }
  }
  return out;
}

void RegularForest::set_weight(VertexId v, std::int32_t w) {
  SERELIN_ASSERT(is_singleton(v),
                 "weights may change only on singleton trees");
  SERELIN_ASSERT(w >= 1, "move weights are positive");
  w_[v] = w;
  big_b_[v] = b_[v] * w;
  sensitive_[v] = class_sensitive(v);
}

void RegularForest::remove_child(VertexId parent, VertexId child) {
  auto& kids = children_[parent];
  auto it = std::find(kids.begin(), kids.end(), child);
  SERELIN_ASSERT(it != kids.end(), "child list out of sync");
  kids.erase(it);
}

void RegularForest::reroot(VertexId v, std::vector<VertexId>& path) {
  // Appends the path v = a0, a1, ..., ak = old root; once reversed below it
  // runs root first and holds every vertex whose B, blocked count or U
  // changes.
  const std::size_t base = path.size();
  for (VertexId a = v; a != kNullVertex; a = parent_[a]) path.push_back(a);
  const VertexId old_root = path.back();
  const std::int64_t total_b = big_b_[old_root];
  const std::int32_t total_blocked = blocked_[old_root];
  const std::int32_t total_sensitive = sensitive_[old_root];
  // After rerooting, a_i's subtree is the whole tree minus the old subtree
  // of a_{i-1} (its new parent side). Walking from the old root down reads
  // each a_{i-1} before it is rewritten; `flips` sums the change in the
  // class-sensitive flags of a_i..a_k, which that difference counts stale.
  // The stored direction flag moves from the old child to the new child,
  // inverted.
  std::int32_t flips = 0;
  for (std::size_t i = path.size() - 1; i > base; --i) {
    const VertexId hi = path[i];
    const VertexId lo = path[i - 1];
    flips -= class_sensitive(hi);
    big_b_[hi] = total_b - big_b_[lo];
    blocked_[hi] = total_blocked - blocked_[lo];
    flips += class_sensitive(hi);
    sensitive_[hi] = total_sensitive - sensitive_[lo] + flips;
    remove_child(hi, lo);
    children_[lo].push_back(hi);
    parent_[hi] = lo;
    u_[hi] = !u_[lo];
  }
  flips -= class_sensitive(v);
  big_b_[v] = total_b;
  blocked_[v] = total_blocked;
  flips += class_sensitive(v);
  sensitive_[v] = total_sensitive + flips;
  parent_[v] = kNullVertex;
}

void RegularForest::add_to_ancestors(VertexId a, std::int64_t db,
                                     std::int32_t dblocked,
                                     std::int32_t dsensitive) {
  // `dsensitive` grows by every ancestor whose own flag flips on the way.
  for (; a != kNullVertex; a = parent_[a]) {
    dsensitive -= class_sensitive(a);
    big_b_[a] += db;
    blocked_[a] += dblocked;
    dsensitive += class_sensitive(a);
    sensitive_[a] += dsensitive;
  }
}

void RegularForest::cut(VertexId v) {
  SERELIN_ASSERT(!is_root(v), "cannot cut a root");
  SERELIN_COUNT(kForestCuts, 1);
  const VertexId a = parent_[v];
  remove_child(a, v);
  parent_[v] = kNullVertex;
  add_to_ancestors(a, -big_b_[v], -blocked_[v], -sensitive_[v]);
}

void RegularForest::link(VertexId p, VertexId q) {
  SERELIN_ASSERT(is_root(q), "link target q must be a root");
  parent_[q] = p;
  children_[p].push_back(q);
  u_[q] = false;  // constraint (p, q): parent forces child
  add_to_ancestors(p, big_b_[q], blocked_[q], sensitive_[q]);
}

void RegularForest::merge(VertexId p, VertexId q) {
  // The one root path the fold changes: root(p) ... p, then q ... q's old
  // root once reroot(q) has reversed it.
  path_.clear();
  for (VertexId a = p; a != kNullVertex; a = parent_[a]) path_.push_back(a);
  std::reverse(path_.begin(), path_.end());
  const VertexId root = path_.front();
  SERELIN_ASSERT(root != root_of(q), "linking would create a cycle");
  const std::size_t mid = path_.size();
  const TreeClass p_class = tree_class(root);
  const std::int32_t p_off = off_path_sensitive(0, mid);
  reroot(q, path_);
  const TreeClass q_class = tree_class(q);
  const std::int32_t q_off = off_path_sensitive(mid, path_.size());
  link(p, q);
  // Off the path, p's edges were regular under p_class and q's under
  // q_class; a class change matters only to a class-sensitive edge.
  const TreeClass cls = tree_class(root);
  const bool whole =
      (cls != p_class && p_off > 0) || (cls != q_class && q_off > 0);
  restore_regularity({root, 0, path_.size(), cls, whole});
}

void RegularForest::break_tree(VertexId v) {
  SERELIN_COUNT(kForestBreaks, 1);
  path_.clear();
  reroot(v, path_);
  // Detach every child of v; each becomes its own tree with its subtree
  // sums already correct. Their tree class changed, so each released
  // fragment must be re-regularized.
  std::vector<VertexId> released;
  while (!children_[v].empty()) {
    const VertexId c = children_[v].back();
    children_[v].pop_back();
    parent_[c] = kNullVertex;
    big_b_[v] -= big_b_[c];
    blocked_[v] -= blocked_[c];
    released.push_back(c);
  }
  sensitive_[v] = class_sensitive(v);
  SERELIN_ASSERT(big_b_[v] == b_[v] * w_[v] && blocked_[v] == (movable_[v] ? 0 : 1),
                 "BreakTree left inconsistent sums");
  for (VertexId c : released) restore_regularity({c});  // whole-tree scans
}

std::int32_t RegularForest::off_path_sensitive(std::size_t lo,
                                               std::size_t hi) const {
  // path_[lo] is the root; it is counted in its subtree and on the path.
  std::int32_t n = sensitive_[path_[lo]];
  for (std::size_t j = lo; j < hi; ++j) n -= class_sensitive(path_[j]);
  return n;
}

bool RegularForest::edge_regular(VertexId child, TreeClass cls) const {
  const bool blocked = blocked_[child] > 0;
  const std::int64_t bb = big_b_[child];
  const bool up = u_[child];
  switch (cls) {
    case TreeClass::kPositive:
      return up ? (!blocked && bb > 0) : (blocked || bb <= 0);
    case TreeClass::kZero:
      return up ? (!blocked && bb > 0) : (blocked || bb < 0);
    case TreeClass::kNegative:
      return up ? (!blocked && bb >= 0) : (blocked || bb < 0);
  }
  SERELIN_ASSERT(false, "unreachable tree class");
}

void RegularForest::restore_regularity(const Pending& first) {
  // Cut the first irregular edge in the whole-tree scan's order and
  // re-regularize both halves; cuts can release subtrees whose own
  // regularity must then be checked too. Edge count strictly decreases, so
  // this terminates.
  std::int64_t checks = 0;
  work_.assign(1, first);
  while (!work_.empty()) {
    Pending item = work_.back();
    work_.pop_back();
    const VertexId root = item.root;
    const TreeClass cls = tree_class(root);
    if (!item.whole && cls != item.checked &&
        off_path_sensitive(item.lo, item.hi) > 0)
      item.whole = true;
    if (!item.whole) {
      // Only the path can be irregular; the scan meets it shallowest first.
      for (std::size_t j = item.lo + 1; j < item.hi; ++j) {
        ++checks;
        const VertexId c = path_[j];
        if (!edge_regular(c, cls)) {
          cut(c);
          work_.push_back({c, j, item.hi, cls, false});
          work_.push_back({root, item.lo, j, cls, false});
          break;
        }
      }
      continue;
    }
    // Scan the tree in preorder, testing each vertex's children in order.
    // Both halves of a cut are rescanned whole: the edges the scan had not
    // reached yet were never tested under `cls`.
    stack_.assign(1, root);
    while (!stack_.empty()) {
      const VertexId x = stack_.back();
      stack_.pop_back();
      bool cut_something = false;
      for (VertexId c : children_[x]) {
        ++checks;
        if (!edge_regular(c, cls)) {
          cut(c);
          work_.push_back({c});
          work_.push_back({root});
          cut_something = true;
          break;
        }
        stack_.push_back(c);
      }
      if (cut_something) break;
    }
  }
  SERELIN_COUNT(kForestEdgeChecks, checks);
}

void RegularForest::add_constraint(VertexId p, VertexId q,
                                   std::int32_t needed) {
  SERELIN_COUNT(kForestConstraints, 1);
  SERELIN_REQUIRE(p < parent_.size() && q < parent_.size(),
                  "constraint endpoints out of range");
  SERELIN_REQUIRE(movable_[p], "constraint source must be movable");
  SERELIN_REQUIRE(needed >= 1, "constraint weight must be positive");

  if (!movable_[q]) {
    // Blocking constraint: q can never move; fold q into p's tree so the
    // whole tree drops out of V_P (the paper's host-edge early exit).
    if (same_tree(p, q)) return;  // already blocked by q
    merge(p, q);
    return;
  }

  if (p == q) {
    // Pure weight update (e.g. a P2' fix that cycles back to its cause);
    // the singleton left behind is regular.
    if (!is_singleton(q)) break_tree(q);
    set_weight(q, needed);
    return;
  }

  if (w_[q] < needed) {
    // The paper's "w(q) requires update" path: BreakTree, then relink with
    // the new weight. Only *raise* weights: a constraint demands q move at
    // least `needed` alongside p, so a larger current weight already
    // satisfies it. Lowering on mismatch livelocks when two sources fold
    // incomparable demands for the same q — each relink undoes the other
    // (found by the solvers campaign; see tests/corpus/found).
    if (!is_singleton(q)) break_tree(q);
    set_weight(q, needed);
  } else if (same_tree(p, q)) {
    // Constraint already implied by the current grouping.
    return;
  }
  merge(p, q);
}

void RegularForest::check_invariants() const {
  const std::size_t n = parent_.size();
  for (VertexId v = 0; v < n; ++v) {
    // Recompute subtree sums bottom-up via DFS from roots.
    if (!is_root(v)) {
      const auto& kids = children_[parent_[v]];
      SERELIN_ASSERT(std::find(kids.begin(), kids.end(), v) != kids.end(),
                     "parent/child lists disagree");
    }
  }
  std::vector<std::int64_t> sum_b(n);
  std::vector<std::int32_t> sum_blocked(n);
  std::vector<std::int32_t> sum_sensitive(n);
  // Iterative post-order accumulation.
  for (VertexId root = 0; root < n; ++root) {
    if (!is_root(root)) continue;
    std::vector<std::pair<VertexId, std::size_t>> stack{{root, 0}};
    while (!stack.empty()) {
      auto& [x, idx] = stack.back();
      if (idx == 0) {
        sum_b[x] = b_[x] * w_[x];
        sum_blocked[x] = movable_[x] ? 0 : 1;
        sum_sensitive[x] = 0;
      }
      if (idx < children_[x].size()) {
        const VertexId c = children_[x][idx++];
        stack.emplace_back(c, 0);
      } else {
        const VertexId done = x;
        stack.pop_back();
        sum_sensitive[done] += sum_blocked[done] == 0 && sum_b[done] == 0;
        if (!stack.empty()) {
          sum_b[stack.back().first] += sum_b[done];
          sum_blocked[stack.back().first] += sum_blocked[done];
          sum_sensitive[stack.back().first] += sum_sensitive[done];
        }
      }
    }
    const TreeClass cls = tree_class(root);
    std::vector<VertexId> scan{root};
    while (!scan.empty()) {
      const VertexId x = scan.back();
      scan.pop_back();
      SERELIN_ASSERT(sum_b[x] == big_b_[x], "subtree gain sum out of date");
      SERELIN_ASSERT(sum_blocked[x] == blocked_[x],
                     "subtree blocked count out of date");
      SERELIN_ASSERT(sum_sensitive[x] == sensitive_[x],
                     "subtree class-sensitive count out of date");
      if (x != root)
        SERELIN_ASSERT(edge_regular(x, cls), "tree is not regular");
      for (VertexId c : children_[x]) scan.push_back(c);
    }
  }
}

}  // namespace serelin
