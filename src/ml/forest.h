// Random forest regressor: bagged CART trees with per-split feature
// subsampling (paper Table 3: "RFR", n_estimators=20, max_depth=10).
#pragma once

#include <memory>

#include "ml/tree.h"

namespace merch::ml {

struct ForestConfig {
  std::size_t num_trees = 20;
  TreeConfig tree;
  /// Per-split feature candidates as a fraction of features; 0 = sqrt(F).
  double feature_fraction = 0.0;
};

class RandomForestRegressor final : public Regressor {
 public:
  explicit RandomForestRegressor(ForestConfig config = {},
                                 std::uint64_t seed = 7)
      : config_(config), rng_(seed) {}

  void Fit(const Dataset& data) override;
  double Predict(std::span<const double> x) const override;
  /// Flattened single-pass walk over all trees (ml/flat_forest.h);
  /// bitwise equal to the per-row Predict loop.
  void PredictBatch(std::span<const double> rows, std::size_t num_features,
                    std::span<double> out) const override;
  std::string name() const override { return "RFR"; }

  const FlatForest& flat_forest() const { return flat_; }

  /// Mean impurity importance over trees.
  std::vector<double> FeatureImportance() const;

 private:
  void CompileFlat();

  ForestConfig config_;
  Rng rng_;
  std::vector<DecisionTreeRegressor> trees_;
  FlatForest flat_;  // compiled at the end of Fit
};

}  // namespace merch::ml
