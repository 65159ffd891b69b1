#include "core/regular_forest.hpp"
#ifdef SERELIN_FOREST_TRACE
#include <cstdio>
#endif

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
  parent_.assign(n, kNullVertex);
  children_.assign(n, {});
  u_.assign(n, false);
  for (std::size_t v = 0; v < n; ++v) {
    big_b_[v] = b_[v];  // w = 1
    blocked_[v] = movable_[v] ? 0 : 1;
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
}

void RegularForest::remove_child(VertexId parent, VertexId child) {
  auto& kids = children_[parent];
  auto it = std::find(kids.begin(), kids.end(), child);
  SERELIN_ASSERT(it != kids.end(), "child list out of sync");
  kids.erase(it);
}

void RegularForest::reroot(VertexId v) {
  if (is_root(v)) return;
  // Collect the path v = a0, a1, ..., ak = root.
  std::vector<VertexId> path{v};
  while (parent_[path.back()] != kNullVertex) path.push_back(parent_[path.back()]);
  // New subtree sums along the path. After rerooting, a_i's new subtree is
  // the whole tree minus the old subtree of a_{i-1} (its new parent side):
  // the reversed chain hangs *below* each former ancestor.
  std::vector<std::int64_t> new_b(path.size());
  std::vector<std::int32_t> new_blocked(path.size());
  new_b[0] = big_b_[path.back()];
  new_blocked[0] = blocked_[path.back()];
  for (std::size_t i = 1; i < path.size(); ++i) {
    new_b[i] = big_b_[path.back()] - big_b_[path[i - 1]];
    new_blocked[i] = blocked_[path.back()] - blocked_[path[i - 1]];
  }
  // Reverse parent/child links along the path; the stored direction flag
  // moves from the old child to the new child, inverted. Snapshot the old
  // flags first — the loop overwrites them in path order.
  std::vector<char> old_u(path.size());
  for (std::size_t i = 0; i < path.size(); ++i) old_u[i] = u_[path[i]];
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const VertexId lo = path[i];
    const VertexId hi = path[i + 1];
    remove_child(hi, lo);
    children_[lo].push_back(hi);
    parent_[hi] = lo;
    u_[hi] = !old_u[i];
  }
  parent_[v] = kNullVertex;
  for (std::size_t i = 0; i < path.size(); ++i) {
    big_b_[path[i]] = new_b[i];
    blocked_[path[i]] = new_blocked[i];
  }
}

void RegularForest::cut(VertexId v) {
  SERELIN_ASSERT(!is_root(v), "cannot cut a root");
  SERELIN_COUNT(kForestCuts, 1);
  const std::int64_t db = big_b_[v];
  const std::int32_t dbl = blocked_[v];
  VertexId a = parent_[v];
  remove_child(a, v);
  parent_[v] = kNullVertex;
  for (; a != kNullVertex; a = parent_[a]) {
    big_b_[a] -= db;
    blocked_[a] -= dbl;
  }
}

void RegularForest::link(VertexId p, VertexId q) {
  SERELIN_ASSERT(is_root(q), "link target q must be a root");
  SERELIN_ASSERT(root_of(p) != q, "linking would create a cycle");
  parent_[q] = p;
  children_[p].push_back(q);
  u_[q] = false;  // constraint (p, q): parent forces child
  for (VertexId a = p; a != kNullVertex; a = parent_[a]) {
    big_b_[a] += big_b_[q];
    blocked_[a] += blocked_[q];
  }
}

void RegularForest::break_tree(VertexId v) {
  SERELIN_COUNT(kForestBreaks, 1);
  reroot(v);
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
  SERELIN_ASSERT(big_b_[v] == b_[v] * w_[v] && blocked_[v] == (movable_[v] ? 0 : 1),
                 "BreakTree left inconsistent sums");
  for (VertexId c : released) restore_regularity(c);
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

void RegularForest::restore_regularity(VertexId any_vertex) {
  // Re-establish regularity on the tree containing `any_vertex`; cuts can
  // release subtrees whose own regularity must then be checked too.
  std::vector<VertexId> worklist{root_of(any_vertex)};
  while (!worklist.empty()) {
    const VertexId root = worklist.back();
    worklist.pop_back();
    if (!is_root(root)) continue;  // merged away meanwhile (defensive)
    const TreeClass cls = tree_class(root);
    // Scan the tree; cut the first irregular edge and restart on both
    // halves. Edge count strictly decreases, so this terminates.
    bool cut_something = false;
    std::vector<VertexId> stack{root};
    while (!stack.empty()) {
      const VertexId x = stack.back();
      stack.pop_back();
      for (VertexId c : children_[x]) {
        if (!edge_regular(c, cls)) {
#ifdef SERELIN_FOREST_TRACE
          std::fprintf(stderr, "CUT child=%u parent=%u U=%d B=%lld blk=%d cls=%d\n",
                       c, x, (int)u_[c], (long long)big_b_[c], blocked_[c], (int)cls);
#endif
          cut(c);
          worklist.push_back(c);
          worklist.push_back(root);
          cut_something = true;
          break;
        }
        stack.push_back(c);
      }
      if (cut_something) break;
    }
  }
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
    reroot(q);
    link(p, q);
    restore_regularity(p);
    return;
  }

  if (p == q) {
    // Pure weight update (e.g. a P2' fix that cycles back to its cause).
    if (!is_singleton(q)) break_tree(q);
    set_weight(q, needed);
    restore_regularity(q);
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
  } else {
    reroot(q);
  }
  if (same_tree(p, q)) return;  // defensive: q's break left p alone with it
  link(p, q);
  restore_regularity(p);
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
  // Iterative post-order accumulation.
  for (VertexId root = 0; root < n; ++root) {
    if (!is_root(root)) continue;
    std::vector<std::pair<VertexId, std::size_t>> stack{{root, 0}};
    while (!stack.empty()) {
      auto& [x, idx] = stack.back();
      if (idx == 0) {
        sum_b[x] = b_[x] * w_[x];
        sum_blocked[x] = movable_[x] ? 0 : 1;
      }
      if (idx < children_[x].size()) {
        const VertexId c = children_[x][idx++];
        stack.emplace_back(c, 0);
      } else {
        const VertexId done = x;
        stack.pop_back();
        if (!stack.empty()) {
          sum_b[stack.back().first] += sum_b[done];
          sum_blocked[stack.back().first] += sum_blocked[done];
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
      if (x != root)
        SERELIN_ASSERT(edge_regular(x, cls), "tree is not regular");
      for (VertexId c : children_[x]) scan.push_back(c);
    }
  }
}

}  // namespace serelin
