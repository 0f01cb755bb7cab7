// The correlation function f(PMCs, r_dram) of Eq. 2 (paper Section 5.1):
// a statistical model trained offline on code samples, evaluated online in
// microseconds. The paper selects GBR (highest R^2, Table 3) over DTR,
// SVR, KNR, RFR and an MLP, and trims the input to 8 events chosen by Gini
// importance.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "ml/model.h"
#include "sim/pmc.h"
#include "workloads/training.h"

namespace merch::core {

class CorrelationFunction;

/// f specialized on one task's PMC vector: the feature prefix is fixed
/// and only the trailing r slot varies — the decision loop's exact access
/// pattern. Backed by the model's PartialModel specialization (tree
/// ensembles collapse to a piecewise-constant function of r, evaluated at
/// binary-search cost); Evaluate(r) is bitwise equal to
/// CorrelationFunction::Evaluate(pmcs, r). Falls back to the scalar path
/// for models without a specialization. Specializations are shared
/// through the owning CorrelationFunction's profile cache, so re-deciding
/// the same tasks (capacity sweeps, repeated instances) skips the
/// construction cost entirely.
class CorrelationProfile {
 public:
  CorrelationProfile() = default;
  CorrelationProfile(CorrelationProfile&&) = default;
  CorrelationProfile& operator=(CorrelationProfile&&) = default;

  /// f(pmcs, r) for the pmcs this profile was built from.
  double Evaluate(double r_dram) const;

  bool specialized() const { return partial_ != nullptr; }

 private:
  friend class CorrelationFunction;

  const CorrelationFunction* fn_ = nullptr;
  sim::EventVector pmcs_{};  // fallback path only
  std::shared_ptr<const ml::PartialModel> partial_;
};

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

  /// f(PMCs, r): scaling applied to the PM-only term of Eq. 2.
  double Evaluate(const sim::EventVector& pmcs, double r_dram) const;

  /// Specializes f on one task's PMCs (see CorrelationProfile). The
  /// underlying specialization is memoized per feature row (thread-safe),
  /// so repeated profiles of the same task — capacity sweeps, repeated
  /// instances, warm-started re-decisions — cost one map lookup.
  CorrelationProfile MakeProfile(const sim::EventVector& pmcs) const;

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
  /// Specialization memo, keyed by the exact bits of the feature row.
  /// `calls` counts MakeProfile requests: the first request for a row
  /// returns the scalar fallback (a one-shot decision never pays the
  /// specialization's construction cost), the second builds and caches
  /// it, and everything after is a map lookup. Values are immutable once
  /// built; concurrent misses may both build (identical) specializations
  /// — the first insert wins, benignly. Behind a pointer so the function
  /// stays movable.
  struct ProfileEntry {
    std::shared_ptr<const ml::PartialModel> model;
    std::uint64_t calls = 0;
  };
  struct ProfileCache {
    std::mutex mu;
    std::unordered_map<std::string, ProfileEntry> map;
  };
  std::unique_ptr<ProfileCache> profiles_ =
      std::make_unique<ProfileCache>();
};

}  // namespace merch::core
