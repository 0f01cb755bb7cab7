// Gradient-boosted regression trees with squared loss — the model the
// paper selects as its correlation function f(.) (highest R^2 in Table 3,
// base_estimator = DTR).
#pragma once

#include "ml/tree.h"

namespace merch::ml {

struct GbrConfig {
  std::size_t num_stages = 400;
  double learning_rate = 0.05;
  TreeConfig tree{.max_depth = 4, .min_samples_leaf = 3,
                  .min_samples_split = 6};
  /// Row subsampling per stage (stochastic gradient boosting).
  double subsample = 0.7;
};

class GradientBoostedRegressor final : public Regressor {
 public:
  explicit GradientBoostedRegressor(GbrConfig config = {},
                                    std::uint64_t seed = 7)
      : config_(config), rng_(seed) {}

  void Fit(const Dataset& data) override;
  double Predict(std::span<const double> x) const override;
  /// Flattened single-pass walk over all stages (ml/flat_forest.h);
  /// bitwise equal to the per-row Predict loop.
  void PredictBatch(std::span<const double> rows, std::size_t num_features,
                    std::span<double> out) const override;
  std::string name() const override { return "GBR"; }

  const FlatForest& flat_forest() const { return flat_; }

  /// A fitted model from its parts (the fitted state is config(),
  /// base_prediction() and stages()). The flat forest is compiled from the
  /// same stages, so every prediction and importance is bitwise that
  /// of the model the parts came from.
  static std::unique_ptr<GradientBoostedRegressor> FromStages(
      GbrConfig config, double base_prediction,
      std::vector<DecisionTreeRegressor> stages);

  const GbrConfig& config() const { return config_; }
  double base_prediction() const { return base_prediction_; }
  const std::vector<DecisionTreeRegressor>& stages() const { return stages_; }

  /// Stage-summed impurity importance (the "Gini importance" used to rank
  /// hardware events in Section 5.1).
  std::vector<double> FeatureImportance() const;

 private:
  void CompileFlat();

  GbrConfig config_;
  Rng rng_;
  double base_prediction_ = 0;
  std::vector<DecisionTreeRegressor> stages_;
  FlatForest flat_;  // compiled at the end of Fit
};

}  // namespace merch::ml
