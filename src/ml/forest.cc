#include "ml/forest.h"

#include <cmath>


namespace merch::ml {

void RandomForestRegressor::Fit(const Dataset& data) {
  trees_.clear();
  if (data.empty()) {
    CompileFlat();
    return;
  }
  TreeConfig tc = config_.tree;
  if (config_.feature_fraction > 0) {
    tc.max_features = std::max<std::size_t>(
        1, static_cast<std::size_t>(config_.feature_fraction *
                                    static_cast<double>(data.num_features())));
  } else {
    tc.max_features = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::sqrt(static_cast<double>(data.num_features()))));
  }
  trees_.reserve(config_.num_trees);
  for (std::size_t t = 0; t < config_.num_trees; ++t) {
    // Bootstrap sample.
    std::vector<std::size_t> idx(data.size());
    for (auto& i : idx) i = rng_.NextBelow(data.size());
    const Dataset boot = data.Subset(idx);
    DecisionTreeRegressor tree(tc, rng_.NextU64());
    tree.Fit(boot);
    trees_.push_back(std::move(tree));
  }
  CompileFlat();
}

void RandomForestRegressor::CompileFlat() {
  flat_.Clear();
  // Scalar path: sum += tree.Predict(x); sum / num_trees. base 0 and
  // tree_scale 1 reproduce the sum bitwise (1.0 * leaf is exact), the
  // divisor reproduces the average.
  flat_.divisor = trees_.empty() ? 1.0 : static_cast<double>(trees_.size());
  for (const DecisionTreeRegressor& tree : trees_) {
    tree.AppendToForest(&flat_);
  }
}

double RandomForestRegressor::Predict(std::span<const double> x) const {
  if (trees_.empty()) return 0.0;
  double sum = 0;
  for (const auto& t : trees_) sum += t.Predict(x);
  return sum / static_cast<double>(trees_.size());
}

void RandomForestRegressor::PredictBatch(std::span<const double> rows,
                                         std::size_t num_features,
                                         std::span<double> out) const {
  flat_.PredictBatch(rows, num_features, out);
}

std::vector<double> RandomForestRegressor::FeatureImportance() const {
  if (trees_.empty()) return {};
  std::vector<double> acc = trees_[0].FeatureImportance();
  for (std::size_t t = 1; t < trees_.size(); ++t) {
    const auto imp = trees_[t].FeatureImportance();
    for (std::size_t f = 0; f < acc.size(); ++f) acc[f] += imp[f];
  }
  double total = 0;
  for (const double v : acc) total += v;
  if (total > 0) {
    for (double& v : acc) v /= total;
  }
  return acc;
}

}  // namespace merch::ml
