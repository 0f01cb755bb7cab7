#include "ml/gbr.h"

#include <numeric>

#include "common/stats.h"

namespace merch::ml {

void GradientBoostedRegressor::Fit(const Dataset& data) {
  stages_.clear();
  if (data.empty()) {
    base_prediction_ = 0;
    CompileFlat();
    return;
  }
  base_prediction_ = Mean(data.targets());
  std::vector<double> residuals(data.size());
  std::vector<double> current(data.size(), base_prediction_);
  std::vector<double> stage_pred(data.size());

  const auto n_sub = std::max<std::size_t>(
      2, static_cast<std::size_t>(config_.subsample *
                                  static_cast<double>(data.size())));
  stages_.reserve(config_.num_stages);
  for (std::size_t stage = 0; stage < config_.num_stages; ++stage) {
    for (std::size_t i = 0; i < data.size(); ++i) {
      residuals[i] = data.target(i) - current[i];
    }
    DecisionTreeRegressor tree(config_.tree, rng_.NextU64());
    if (n_sub < data.size()) {
      const auto idx = rng_.SampleWithoutReplacement(data.size(), n_sub);
      Dataset sub(data.num_features());
      std::vector<double> sub_res;
      sub_res.reserve(idx.size());
      for (const std::size_t i : idx) {
        const auto r = data.row(i);
        sub.Add(std::vector<double>(r.begin(), r.end()), residuals[i]);
      }
      tree.Fit(sub);
    } else {
      tree.FitResiduals(data, residuals);
    }
    // Batched stage update: one pass over the row block instead of a
    // virtual Predict per row (tree.PredictBatch is the same per-row walk,
    // so `current` evolves bitwise identically).
    tree.PredictBatch(data.raw(), data.num_features(), stage_pred);
    for (std::size_t i = 0; i < data.size(); ++i) {
      current[i] += config_.learning_rate * stage_pred[i];
    }
    stages_.push_back(std::move(tree));
  }
  CompileFlat();
}

std::unique_ptr<GradientBoostedRegressor> GradientBoostedRegressor::FromStages(
    GbrConfig config, double base_prediction,
    std::vector<DecisionTreeRegressor> stages) {
  auto model = std::make_unique<GradientBoostedRegressor>(config);
  model->base_prediction_ = base_prediction;
  model->stages_ = std::move(stages);
  model->CompileFlat();
  return model;
}

void GradientBoostedRegressor::CompileFlat() {
  flat_.Clear();
  flat_.base = base_prediction_;
  flat_.tree_scale = config_.learning_rate;
  for (const DecisionTreeRegressor& tree : stages_) {
    tree.AppendToForest(&flat_);
  }
}

double GradientBoostedRegressor::Predict(std::span<const double> x) const {
  double y = base_prediction_;
  for (const auto& tree : stages_) {
    y += config_.learning_rate * tree.Predict(x);
  }
  return y;
}

void GradientBoostedRegressor::PredictBatch(std::span<const double> rows,
                                            std::size_t num_features,
                                            std::span<double> out) const {
  flat_.PredictBatch(rows, num_features, out);
}

std::vector<double> GradientBoostedRegressor::FeatureImportance() const {
  if (stages_.empty()) return {};
  std::vector<double> acc = stages_[0].FeatureImportance();
  for (std::size_t s = 1; s < stages_.size(); ++s) {
    const auto imp = stages_[s].FeatureImportance();
    for (std::size_t f = 0; f < acc.size() && f < imp.size(); ++f) {
      acc[f] += imp[f];
    }
  }
  double total = std::accumulate(acc.begin(), acc.end(), 0.0);
  if (total > 0) {
    for (double& v : acc) v /= total;
  }
  return acc;
}

}  // namespace merch::ml
