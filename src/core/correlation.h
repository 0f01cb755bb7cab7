// The correlation function f(PMCs, r_dram) of Eq. 2 (paper Section 5.1):
// a statistical model trained offline on code samples, evaluated online in
// microseconds. The paper selects GBR (highest R^2, Table 3) over DTR,
// SVR, KNR, RFR and an MLP, and trims the input to 8 events chosen by Gini
// importance.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ml/model.h"
#include "sim/pmc.h"
#include "workloads/training.h"

namespace merch::core {

class CorrelationFunction {
 public:
  struct Config {
    std::string model_kind = "GBR";
    /// PMC indices used as features (r_dram is always appended). Empty =
    /// the paper's 8 selected events.
    std::vector<std::size_t> events;
    double train_fraction = 0.7;  // paper: 70/30 split
    std::uint64_t seed = 17;
  };

  CorrelationFunction();
  explicit CorrelationFunction(Config config);
  /// An already-trained f: `model` fitted on ToDataset rows of
  /// `config`'s events, scoring `test_r2` on the held-out split (the
  /// built-in model artifact, service/model_artifact.h).
  CorrelationFunction(Config config, std::unique_ptr<ml::Regressor> model,
                      double test_r2);

  /// Offline step 1: train on generated code-sample data. Happens once;
  /// the trained function is reusable across applications.
  void Train(const std::vector<workloads::TrainingSample>& samples);

  /// f(PMCs, r): scaling applied to the PM-only term of Eq. 2. A trained
  /// f holds no lock and no mutable state, so concurrent jobs share it
  /// read-only.
  double Evaluate(const sim::EventVector& pmcs, double r_dram) const;

  bool trained() const { return model_ != nullptr; }
  double test_r2() const { return test_r2_; }
  const std::vector<std::size_t>& events() const { return config_.events; }
  const std::string& model_kind() const { return config_.model_kind; }
  /// The configuration with `events` resolved (never empty).
  const Config& config() const { return config_; }
  /// The fitted model; null until trained.
  const ml::Regressor* model() const { return model_.get(); }

  /// The 8 events the paper selects, importance-ordered (Section 5.1).
  static const std::vector<std::size_t>& PaperEvents();

 private:
  Config config_;
  std::unique_ptr<ml::Regressor> model_;
  double test_r2_ = 0;
};

}  // namespace merch::core
