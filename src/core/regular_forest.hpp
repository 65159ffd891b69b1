// The weighted regular forest (paper §IV-B/C, extending Wang–Zhou DAC'08).
//
// The forest manages the set A of *active constraints* discovered during
// incremental retiming. An active constraint (p, q) records "a further
// decrease of r(p) forces a decrease of r(q)". Constraints are the edges of
// a forest over the vertices; each vertex v carries
//
//   b(v)  — its (fixed) K-scaled objective gain per unit decrease,
//   w(v)  — its current move weight: how much r(v) drops when v's tree is
//           committed (the paper's weighted extension: a P2' fix can demand
//           several registers at once),
//   U(v)  — the direction flag: for non-root v with parent p_v, U(v)=true
//           means the constraint is (v, p_v), otherwise (p_v, v),
//   B(v)  — the weighted gain Σ_{u ∈ subtree(v)} b(u)·w(u).
//
// Boundary (immovable) vertices may enter the forest as constraint targets;
// a tree containing one can never be moved, which the forest tracks with a
// per-subtree blocked count — a blocked tree is classified negative
// regardless of its finite gain (the algebraic reading of b = −∞).
//
// A tree is *regular* when every non-root v satisfies, by tree class
// (positive / zero / negative by effective root gain):
//   positive:  (U(v) ∧ B(v) > 0)  ∨ (¬U(v) ∧ B(v) ≤ 0)
//   zero:      (U(v) ∧ B(v) > 0)  ∨ (¬U(v) ∧ B(v) < 0)
//   negative:  (U(v) ∧ B(v) ≥ 0)  ∨ (¬U(v) ∧ B(v) < 0)
// (with B(v) read as −∞ when v's subtree is blocked). Irregular edges are
// cut — an edge only stays while it actually binds the grouping decision,
// which is what bounds |A| by |V|−1 and drives termination.
//
// The solver's candidate set is V_P(F): the vertices of positive trees; the
// paper shows (after [20]) that it is the closed set of maximum gain.
//
// Re-regularization costs what a fold changed, not the size of the tree.
// Three facts let it test one root path and still cut exactly the edges a
// whole-tree scan would, in the same order:
//  * The three rules disagree only on a *class-sensitive* edge, one whose
//    child subtree is unblocked with B = 0; every other edge is regular
//    under all classes or none.
//  * reroot(q) then link(p, q) changes B, blocked or U only on the one root
//    path root(p) … p → q … q's old root; cut(c) changes them only on c's
//    ancestors.
//  * The whole-tree scan (preorder, children popped last-first) tests the
//    edges of one root path shallowest first.
// So after a link the forest tests that path shallow to deep and cuts the
// first irregular edge; the halves go back on the worklist as (c, the path
// below c) and then (root, the path above c), in the scan's LIFO order.
// A per-subtree count of class-sensitive vertices, kept beside the blocked
// count, tells in O(path) whether a tree off its path holds one. The
// whole-tree scan runs only for a tree whose class differs from the class
// its off-path edges were last checked under while it holds a
// class-sensitive off-path edge, and for BreakTree's released fragments;
// the halves of a cut it makes are rescanned whole.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "rgraph/retiming_graph.hpp"

namespace serelin {

class RegularForest {
 public:
  /// `gain[v]` = b(v); `movable[v]` = false for boundary vertices.
  RegularForest(std::span<const std::int64_t> gain,
                std::span<const char> movable);

  std::size_t size() const { return parent_.size(); }

  std::int64_t gain(VertexId v) const { return b_[v]; }
  std::int32_t weight(VertexId v) const { return w_[v]; }
  VertexId parent(VertexId v) const { return parent_[v]; }
  bool is_root(VertexId v) const { return parent_[v] == kNullVertex; }
  bool is_singleton(VertexId v) const {
    return is_root(v) && children_[v].empty();
  }
  VertexId root_of(VertexId v) const;
  bool same_tree(VertexId a, VertexId b) const {
    return root_of(a) == root_of(b);
  }

  /// Weighted subtree gain B(v).
  std::int64_t subtree_gain(VertexId v) const { return big_b_[v]; }
  /// Number of immovable vertices in v's subtree.
  std::int32_t subtree_blocked(VertexId v) const { return blocked_[v]; }
  /// U(v) for non-root v: true iff the constraint is (v, parent(v)).
  bool up(VertexId v) const { return u_[v]; }
  /// v's children, in the order the regularity scan tests them.
  std::span<const VertexId> children(VertexId v) const { return children_[v]; }

  /// True iff v's tree is positive (B(root) > 0 and unblocked).
  bool in_positive_tree(VertexId v) const;

  /// All vertices of positive trees — the candidate set I = V_P(F).
  /// Ordered by tree, deterministic.
  std::vector<VertexId> positive_set() const;

  /// Adds the active constraint (p, q) demanding that q move with weight
  /// `needed` whenever p moves. Handles the paper's cases: weight update
  /// with BreakTree when w(q) must change, re-rooting of q's tree,
  /// positive-positive links, immovable q (blocking), and p == q
  /// (pure weight update). Restores regularity afterwards.
  /// Requires p movable.
  void add_constraint(VertexId p, VertexId q, std::int32_t needed);

  /// The paper's BreakTree(v): re-roots v's tree at v, then detaches all of
  /// v's children, leaving v a singleton and each former neighbour subtree
  /// a tree of its own.
  void break_tree(VertexId v);

  /// Structural self-check (subtree sums, regularity); throws on violation.
  /// O(|V|) — used by tests.
  void check_invariants() const;

 private:
  enum class TreeClass : std::uint8_t { kPositive, kZero, kNegative };

  /// A tree awaiting re-regularization. A path item lists the edges that
  /// changed: path_[lo] is the root and path_[lo+1, hi) the changed root
  /// path, shallowest first; every other edge is regular under `checked`.
  /// A whole item rescans every edge of the tree.
  struct Pending {
    VertexId root;
    std::size_t lo = 0, hi = 0;
    TreeClass checked = TreeClass::kZero;
    bool whole = true;
  };

  void set_weight(VertexId v, std::int32_t w);
  void reroot(VertexId v, std::vector<VertexId>& path);
  void link(VertexId p, VertexId q);
  void merge(VertexId p, VertexId q);
  void cut(VertexId v);
  void add_to_ancestors(VertexId a, std::int64_t db, std::int32_t dblocked,
                        std::int32_t dsensitive);
  void remove_child(VertexId parent, VertexId child);
  void restore_regularity(const Pending& first);
  TreeClass tree_class(VertexId root) const;
  bool class_sensitive(VertexId v) const {
    return blocked_[v] == 0 && big_b_[v] == 0;
  }
  std::int32_t off_path_sensitive(std::size_t lo, std::size_t hi) const;
  bool edge_regular(VertexId child, TreeClass cls) const;

  std::vector<std::int64_t> b_;
  std::vector<std::int32_t> w_;
  std::vector<std::int64_t> big_b_;
  std::vector<std::int32_t> blocked_;
  /// Class-sensitive vertices (unblocked, B = 0) in v's subtree.
  std::vector<std::int32_t> sensitive_;
  std::vector<VertexId> parent_;
  std::vector<std::vector<VertexId>> children_;
  std::vector<bool> u_;
  std::vector<char> movable_;
  // Scratch reused across folds: the changed root path, the worklist of
  // restore_regularity and the stack of its whole-tree scan.
  std::vector<VertexId> path_;
  std::vector<Pending> work_;
  std::vector<VertexId> stack_;
};

}  // namespace serelin
