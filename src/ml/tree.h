// CART regression tree (variance-reduction splitting).
//
// Used directly as the paper's "DTR" and as the weak learner inside the
// random forest and gradient-boosted regressors. Also exposes impurity-
// based feature importance, the "Gini importance" the paper uses to rank
// hardware events (Section 5.1).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "ml/flat_forest.h"
#include "ml/model.h"

namespace merch::ml {

struct TreeConfig {
  int max_depth = 10;
  std::size_t min_samples_leaf = 2;
  std::size_t min_samples_split = 4;
  /// Features considered per split; 0 = all (forests pass a subset size).
  std::size_t max_features = 0;
};

class DecisionTreeRegressor final : public Regressor {
 public:
  explicit DecisionTreeRegressor(TreeConfig config = {}, std::uint64_t seed = 7)
      : config_(config), rng_(seed) {}

  void Fit(const Dataset& data) override;
  double Predict(std::span<const double> x) const override;
  /// Per-row walk over the contiguous node vector; bitwise equal to
  /// Predict on every row (no ensemble accumulation for a single tree).
  void PredictBatch(std::span<const double> rows, std::size_t num_features,
                    std::span<double> out) const override;
  std::string name() const override { return "DTR"; }

  /// Fit on externally supplied targets (gradient boosting fits trees to
  /// residuals without copying features).
  void FitResiduals(const Dataset& data, std::span<const double> residuals);

  /// Per-feature impurity decrease, normalised to sum 1.
  std::vector<double> FeatureImportance() const;

  /// Appends this tree to a flattened ensemble (child indices rebased to
  /// the forest's global node array). Build always places the root at
  /// local index 0.
  void AppendToForest(FlatForest* forest) const;

  std::size_t node_count() const { return nodes_.size(); }

  struct Node {
    // Leaf iff feature == SIZE_MAX.
    std::size_t feature = static_cast<std::size_t>(-1);
    double threshold = 0;
    double value = 0;       // leaf prediction (internal nodes: their mean)
    std::int32_t left = -1;
    std::int32_t right = -1;
  };

  /// The fitted nodes in Build's preorder: every node precedes its left
  /// subtree, which precedes its right one, so the feature/threshold/
  /// value sequence alone determines the child links.
  const std::vector<Node>& nodes() const { return nodes_; }
  /// Raw (unnormalised) impurity decrease per feature.
  const std::vector<double>& raw_importance() const { return importance_; }

  /// Rebuilds a fitted tree from nodes() and raw_importance() output
  /// (child links are recomputed; those given are ignored), so it
  /// predicts bitwise as the tree they came from. Returns nullopt with a
  /// message in *error unless `nodes` is a complete preorder no deeper
  /// than config.max_depth whose split features are < num_features, and
  /// every threshold, value and importance is finite.
  static std::optional<DecisionTreeRegressor> FromPreorder(
      TreeConfig config, std::size_t num_features, std::vector<Node> nodes,
      std::vector<double> importance, std::string* error);

 private:
  std::int32_t Build(const Dataset& data, std::span<const double> targets,
                     std::vector<std::size_t>& indices, std::size_t begin,
                     std::size_t end, int depth);

  TreeConfig config_;
  Rng rng_;
  std::vector<Node> nodes_;
  std::vector<double> importance_;  // raw impurity decrease per feature
  std::size_t num_features_ = 0;
};

}  // namespace merch::ml
