// High-level facade assembling the Merchandiser system (Section 5.3's
// automated workflow):
//
// Offline, once ever:        TrainCorrelation()       (scaling function f)
// Offline, once per app:     PrepareApplication()     (basic-block timing,
//                                                      static analysis,
//                                                      offline alphas)
// Online, per run:           MakePolicy()             (the runtime)
#pragma once

#include <memory>

#include "core/correlation.h"
#include "core/homogeneous.h"
#include "core/merchandiser_policy.h"
#include "sim/machine.h"
#include "sim/workload.h"
#include "workloads/training.h"

namespace merch::core {

class MerchandiserSystem {
 public:
  /// Offline step 1: generate code-sample training data and fit the
  /// correlation function. `training` defaults to the paper's setup (281
  /// regions x 10 placements, GBR, 8 events). Expensive: 3.4-4.6 s at
  /// the paper's budget on a 4-vCPU host. Train once and reuse across
  /// applications — exactly the paper's claim ("the construction of f
  /// happens only once"). This always trains; the service and merchctl
  /// obtain f through service::ObtainSystem, which decodes the built-in
  /// artifact at the default budget instead.
  static MerchandiserSystem Train(
      workloads::TrainingConfig training = {},
      CorrelationFunction::Config correlation = {});

  /// Build from an already-trained correlation function, e.g. the
  /// built-in model artifact that service::ObtainSystem decodes for the
  /// service, merchctl and the paper benches.
  explicit MerchandiserSystem(CorrelationFunction correlation)
      : correlation_(std::move(correlation)) {}

  /// Offline steps 2-4 for one application, then the runtime policy:
  /// MakePolicy(HomogeneousPredictor::Prepare(workload, machine), config).
  /// The returned policy borrows this system's correlation function; keep
  /// the system alive while the policy runs.
  std::unique_ptr<MerchandiserPolicy> MakePolicy(
      const sim::Workload& workload, const sim::MachineSpec& machine,
      MerchandiserConfig config = {}) const;

  /// The runtime policy from an application's already-prepared §5.2
  /// homogeneous profile (the service prepares it once per app instance).
  std::unique_ptr<MerchandiserPolicy> MakePolicy(
      HomogeneousPredictor homogeneous, MerchandiserConfig config = {}) const;

  const CorrelationFunction& correlation() const { return correlation_; }

 private:
  CorrelationFunction correlation_;
};

}  // namespace merch::core
