#include "core/correlation.h"

#include <algorithm>
#include <cassert>

#include "common/rng.h"

namespace merch::core {

const std::vector<std::size_t>& CorrelationFunction::PaperEvents() {
  // LLC_MPKI, IPC, PRF_Miss, MEM_WCY, L2_LD_Miss, BR_MSP, VEC_INS,
  // L3_LD_Miss — Section 5.1's list, in decreasing importance.
  static const std::vector<std::size_t> kEvents = {
      sim::kLlcMpki, sim::kIpc,    sim::kPrfMiss, sim::kMemWcy,
      sim::kL2LdMiss, sim::kBrMsp, sim::kVecIns,  sim::kL3LdMiss};
  return kEvents;
}

CorrelationFunction::CorrelationFunction() : CorrelationFunction(Config()) {}

CorrelationFunction::CorrelationFunction(Config config)
    : config_(std::move(config)) {
  if (config_.events.empty()) config_.events = PaperEvents();
}

CorrelationFunction::CorrelationFunction(Config config,
                                         std::unique_ptr<ml::Regressor> model,
                                         double test_r2)
    : CorrelationFunction(std::move(config)) {
  model_ = std::move(model);
  test_r2_ = test_r2;
}

void CorrelationFunction::Train(
    const std::vector<workloads::TrainingSample>& samples) {
  assert(!samples.empty());
  const ml::Dataset data = workloads::ToDataset(samples, config_.events);
  Rng rng(config_.seed);
  auto [train, test] = data.Split(config_.train_fraction, rng);
  model_ = ml::MakeRegressor(config_.model_kind, config_.seed);
  model_->Fit(train);
  test_r2_ = model_->Score(test);
}

double CorrelationFunction::Evaluate(const sim::EventVector& pmcs,
                                     double r_dram) const {
  assert(trained());
  const auto row =
      workloads::MakeFeatureRow(pmcs, std::clamp(r_dram, 0.0, 1.0),
                                config_.events);
  // f scales a positive execution-time term; clamp pathological
  // extrapolations.
  return std::clamp(model_->Predict(row), 0.05, 5.0);
}

}  // namespace merch::core
