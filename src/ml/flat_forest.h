// Flattened structure-of-arrays forest for batched tree inference.
//
// Scoring a tree ensemble (GBR: 400 stages, RFR: 20 trees) over a whole
// dataset — Regressor::PredictAll and Score, i.e. the held-out R^2 of
// every training — walks every tree for every row. The per-tree
// representation (std::vector<DecisionTreeRegressor>, each with its own
// AoS node vector, reached through a virtual call) costs an indirection
// per tree and scatters hot node data across allocations. This module
// compiles an ensemble into contiguous per-field arrays (feature index /
// threshold / child offsets / leaf value) shared by all trees, and
// evaluates many feature rows per pass, tree-outer so each tree's nodes
// stay cache-hot across the whole batch.
//
// Bit-identity contract: for every row, PredictBatch computes
//
//   y = base; for each tree (in order): y += tree_scale * leaf(tree, row);
//   return divisor == 1.0 ? y : y / divisor
//
// with the same node-walk comparison (x[feature] <= threshold ? left :
// right) as DecisionTreeRegressor::Predict. With (base, tree_scale,
// divisor) set per ensemble this reproduces the scalar GBR accumulation
// (y = base_prediction; y += learning_rate * tree.Predict(x)) and the RFR
// average (sum += tree.Predict(x); sum / num_trees) operation for
// operation, so flattened predictions are bitwise equal to the pointer
// walk (tests/decision_equiv_test.cc).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace merch::ml {

struct FlatForest {
  /// Per-node arrays, all trees concatenated. feature[i] < 0 marks a leaf
  /// (value[i] is the prediction); otherwise threshold[i] splits and
  /// left/right[i] are global node indices.
  std::vector<std::int32_t> feature;
  std::vector<double> threshold;
  std::vector<double> value;
  std::vector<std::int32_t> left;
  std::vector<std::int32_t> right;
  /// Root node index per tree, in ensemble order.
  std::vector<std::int32_t> roots;

  /// Accumulation constants (see file comment).
  double base = 0.0;
  double tree_scale = 1.0;
  double divisor = 1.0;

  std::size_t num_trees() const { return roots.size(); }
  std::size_t num_nodes() const { return feature.size(); }
  bool empty() const { return roots.empty(); }

  void Clear();

  /// Evaluates every tree for each of the `n = out.size()` rows stored
  /// row-major in `rows` (rows.size() == n * num_features). Bitwise equal
  /// to the scalar ensemble walk (see file comment). Rows go four per tree
  /// in lock-step: each keeps its own node chain and its own accumulator,
  /// so the interleaving is pure instruction-level parallelism — per-row
  /// results and the visit count are bitwise those of a one-row walk.
  void PredictBatch(std::span<const double> rows, std::size_t num_features,
                    std::span<double> out) const;
};

}  // namespace merch::ml
