#include "core/merchandiser.h"

#include "obs/trace.h"

namespace merch::core {

MerchandiserSystem MerchandiserSystem::Train(
    workloads::TrainingConfig training,
    CorrelationFunction::Config correlation_config) {
  MERCH_TRACE_SPAN(obs::Category::kCore, "core.train");
  const auto samples = workloads::GenerateTrainingSamples(training);
  CorrelationFunction correlation(correlation_config);
  correlation.Train(samples);
  return MerchandiserSystem(std::move(correlation));
}

std::unique_ptr<MerchandiserPolicy> MerchandiserSystem::MakePolicy(
    const sim::Workload& workload, const sim::MachineSpec& machine,
    MerchandiserConfig config) const {
  return MakePolicy(HomogeneousPredictor::Prepare(workload, machine), config);
}

std::unique_ptr<MerchandiserPolicy> MerchandiserSystem::MakePolicy(
    HomogeneousPredictor homogeneous, MerchandiserConfig config) const {
  return std::make_unique<MerchandiserPolicy>(&correlation_,
                                              std::move(homogeneous), config);
}

}  // namespace merch::core
