// Common regressor interface for the Table 3 model family.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ml/dataset.h"

namespace merch::ml {

class Regressor {
 public:
  virtual ~Regressor() = default;

  virtual void Fit(const Dataset& data) = 0;
  virtual double Predict(std::span<const double> x) const = 0;
  virtual std::string name() const = 0;

  /// Predicts `out.size()` feature rows stored row-major in `rows`
  /// (rows.size() == out.size() * num_features). The default loops
  /// Predict; tree ensembles override with a flattened single-pass walk
  /// that is bitwise identical to the per-row path (ml/flat_forest.h).
  virtual void PredictBatch(std::span<const double> rows,
                            std::size_t num_features,
                            std::span<double> out) const;

  /// Batched prediction over a dataset (routes through PredictBatch).
  std::vector<double> PredictAll(const Dataset& data) const;
  /// R-squared on a dataset (paper's Table 3 metric).
  double Score(const Dataset& data) const;
};

/// Factory covering the paper's Table 3 with its listed hyperparameters:
/// "DTR" (max_depth=10), "SVR" (rbf kernel ridge), "KNR" (k=8),
/// "RFR" (20 trees, depth 10), "GBR", "ANN" (MLP 200x20, alpha=1e-5).
std::unique_ptr<Regressor> MakeRegressor(const std::string& kind,
                                         std::uint64_t seed = 7);

/// All Table 3 model kinds in paper order.
const std::vector<std::string>& AllRegressorKinds();

}  // namespace merch::ml
