#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "core/regular_forest.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace serelin {
namespace {

std::set<VertexId> as_set(const std::vector<VertexId>& v) {
  return {v.begin(), v.end()};
}

RegularForest make(std::vector<std::int64_t> gains,
                   std::vector<char> movable = {}) {
  if (movable.empty()) movable.assign(gains.size(), 1);
  return RegularForest(gains, movable);
}

TEST(RegularForest, InitialPositiveSetIsPositiveGains) {
  auto f = make({5, -2, 0, 7, -1});
  EXPECT_EQ(as_set(f.positive_set()), (std::set<VertexId>{0, 3}));
  for (VertexId v = 0; v < 5; ++v) {
    EXPECT_TRUE(f.is_singleton(v));
    EXPECT_EQ(f.weight(v), 1);
  }
  f.check_invariants();
}

TEST(RegularForest, LinkAbsorbsDependency) {
  auto f = make({3, -2, -10});
  f.add_constraint(0, 1, 1);  // 0 forces 1: tree gain 1 > 0
  EXPECT_TRUE(f.same_tree(0, 1));
  EXPECT_EQ(as_set(f.positive_set()), (std::set<VertexId>{0, 1}));
  f.check_invariants();
  f.add_constraint(0, 2, 1);  // tree gain -9: drops out of V_P
  EXPECT_TRUE(f.positive_set().empty());
  f.check_invariants();
}

TEST(RegularForest, ImmovableBlocksTree) {
  auto f = make({5, 0}, {1, 0});
  f.add_constraint(0, 1, 1);
  EXPECT_TRUE(f.same_tree(0, 1));
  EXPECT_TRUE(f.positive_set().empty());  // blocked despite gain 5
  f.check_invariants();
  // Idempotent: re-adding the same blocking constraint is a no-op.
  f.add_constraint(0, 1, 1);
  EXPECT_TRUE(f.positive_set().empty());
}

TEST(RegularForest, Fig3BreakTreeScenario) {
  // The paper's Fig. 3: x bundles y (P0 fix, weight 1); then u needs y
  // with weight 2 (P2' fix): BreakTree(y), weight update, relink under u.
  // Vertices: u=0 (+5), x=1 (+3), y=2 (-2).
  auto f = make({5, 3, -2});
  f.add_constraint(1, 2, 1);  // (x, y) with w(y) = 1
  EXPECT_TRUE(f.same_tree(1, 2));
  EXPECT_EQ(f.weight(2), 1);
  f.add_constraint(0, 2, 2);  // (u, y) with w(y) = 2
  EXPECT_TRUE(f.same_tree(0, 2));
  EXPECT_FALSE(f.same_tree(1, 2));  // y was broken out of x's tree
  EXPECT_EQ(f.weight(2), 2);
  // Tree {u,y}: 5 - 2*2 = 1 > 0; x alone: 3 > 0.
  EXPECT_EQ(as_set(f.positive_set()), (std::set<VertexId>{0, 1, 2}));
  f.check_invariants();
}

TEST(RegularForest, WeightedGainArithmetic) {
  auto f = make({4, -3});
  f.add_constraint(0, 1, 1);  // 4 - 3 = 1 > 0
  EXPECT_EQ(as_set(f.positive_set()), (std::set<VertexId>{0, 1}));
  f.add_constraint(0, 1, 2);  // now needs weight 2: 4 - 6 = -2
  EXPECT_EQ(f.weight(1), 2);
  EXPECT_TRUE(f.positive_set().empty());
  f.check_invariants();
}

TEST(RegularForest, SelfConstraintUpdatesOwnWeight) {
  auto f = make({2});
  f.add_constraint(0, 0, 3);
  EXPECT_EQ(f.weight(0), 3);
  EXPECT_EQ(f.subtree_gain(0), 6);
  EXPECT_EQ(as_set(f.positive_set()), (std::set<VertexId>{0}));
  f.check_invariants();
}

TEST(RegularForest, BreakTreeDetachesChildren) {
  auto f = make({5, -1, -1, -1});
  f.add_constraint(0, 1, 1);
  f.add_constraint(0, 2, 1);
  f.add_constraint(1, 3, 1);
  EXPECT_TRUE(f.same_tree(0, 3));
  f.break_tree(1);
  EXPECT_TRUE(f.is_singleton(1));
  EXPECT_FALSE(f.same_tree(1, 0));
  EXPECT_FALSE(f.same_tree(1, 3));
  f.check_invariants();
}

TEST(RegularForest, RedundantSameTreeLinkIsNoOp) {
  auto f = make({5, -2});
  f.add_constraint(0, 1, 1);
  f.add_constraint(0, 1, 1);  // same weight, same tree
  EXPECT_TRUE(f.same_tree(0, 1));
  EXPECT_EQ(f.weight(1), 1);
  f.check_invariants();
}

TEST(RegularForest, RejectsImmovableSource) {
  auto f = make({1, 1}, {0, 1});
  EXPECT_THROW(f.add_constraint(0, 1, 1), PreconditionError);
}

TEST(RegularForest, PositivePositiveLink) {
  // Linking two positive trees (the paper's Fig. 3 root cause) must keep
  // both decreasing — either merged or as separate positive trees.
  auto f = make({4, 6});
  f.add_constraint(0, 1, 2);  // 1 must move 2 with 0
  const auto set = as_set(f.positive_set());
  EXPECT_TRUE(set.contains(0));
  EXPECT_TRUE(set.contains(1));
  EXPECT_EQ(f.weight(1), 2);
  f.check_invariants();
}

TEST(RegularForest, ClassChangeCutsOffPathZeroGainLeaf) {
  // Leaf 1 hangs below root 0 with U = false and B = 0: regular while the
  // tree is positive (B <= 0 suffices), irregular once it turns negative
  // (B < 0 is needed).
  auto f = make({5, 0, -10});
  f.add_constraint(0, 1, 1);
  ASSERT_EQ(f.parent(1), 0u);
  ASSERT_FALSE(f.up(1));
  ASSERT_EQ(f.subtree_gain(1), 0);
  f.check_invariants();
  // Linking 2 turns the tree negative. The fold changes only the edge
  // 0 -> 2, yet the leaf's edge is the one the whole-tree scan meets first
  // and cuts.
  f.add_constraint(0, 2, 1);
  EXPECT_TRUE(f.is_singleton(1));
  EXPECT_EQ(f.parent(2), 0u);
  EXPECT_EQ(f.subtree_gain(0), -5);
  f.check_invariants();
}

// The random constraint stream of one seed: 24 vertices, some immovable,
// 120 draws of (p, q, weight). `after(f, movable, op)` runs after every
// folded constraint.
template <class After>
void run_random_stream(int seed, After after) {
  Rng rng(seed * 31337u);
  const int n = 24;
  std::vector<std::int64_t> gains(n);
  std::vector<char> movable(n, 1);
  for (int i = 0; i < n; ++i) {
    gains[i] = rng.range(-8, 8);
    if (rng.chance(0.15)) movable[i] = 0;
  }
  RegularForest f(gains, movable);
  for (int op = 0; op < 120; ++op) {
    VertexId p = static_cast<VertexId>(rng.below(n));
    if (!movable[p]) continue;
    const VertexId q = static_cast<VertexId>(rng.below(n));
    const auto w = static_cast<std::int32_t>(rng.range(1, 3));
    f.add_constraint(p, q, w);
    after(f, movable, op);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// Property: arbitrary constraint streams keep the forest structurally
// sound (sums consistent, trees regular, positive set = positive trees).
class ForestProperty : public ::testing::TestWithParam<int> {};

TEST_P(ForestProperty, InvariantsUnderRandomOps) {
  run_random_stream(GetParam(), [](const RegularForest& f,
                                   const std::vector<char>& movable, int op) {
    ASSERT_NO_THROW(f.check_invariants()) << "op " << op;
    // Every member of the positive set is in a positive, unblocked tree.
    for (VertexId v : f.positive_set()) {
      const VertexId root = f.root_of(v);
      EXPECT_GT(f.subtree_gain(root), 0);
      EXPECT_EQ(f.subtree_blocked(root), 0);
      EXPECT_TRUE(movable[v]);
    }
  });
}

// Regularity alone does not fix which irregular edge goes first, and the
// cut order decides the forest the solver sees. The forest's whole shape
// (parent, U of non-roots, weight and child order of every vertex), hashed
// after every op of seeds 1-15, is pinned to the value that rescanning the
// whole tree after every fold and cut gives.
TEST(RegularForest, CutSequenceIsPinned) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a over 64-bit words
  const auto mix = [&h](std::uint64_t x) { h = (h ^ x) * 0x100000001b3ull; };
  for (int seed = 1; seed <= 15; ++seed) {
    run_random_stream(seed, [&mix](const RegularForest& f,
                                   const std::vector<char>&, int) {
      for (VertexId v = 0; v < f.size(); ++v) {
        mix(f.parent(v));
        mix(f.is_root(v) ? 2 : f.up(v));  // a root's U is meaningless
        mix(static_cast<std::uint64_t>(f.weight(v)));
        mix(f.children(v).size());
        for (VertexId c : f.children(v)) mix(c);
      }
    });
  }
  EXPECT_EQ(h, 0xd57fa3c756139db0ull);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ForestProperty, ::testing::Range(1, 16));

}  // namespace
}  // namespace serelin
