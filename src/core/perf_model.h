// The whole performance model of paper Section 5 (Eq. 2):
//
//   T_hybrid = T_pm_only * (1 - r) * f(PMCs, r) + T_dram_only * r
//
// with r = dram_acc / esti_mem_acc. Boundary behaviour: r=0 gives
// T_pm_only * f(PMCs, 0) (f is trained to be ~1 there), r=1 gives
// T_dram_only exactly.
#pragma once

#include "core/correlation.h"
#include "sim/pmc.h"

namespace merch::core {

class PerformanceModel {
 public:
  explicit PerformanceModel(const CorrelationFunction* correlation)
      : correlation_(correlation) {}

  /// Eq. 2. `r_dram` = predicted fraction of main-memory accesses served
  /// by DRAM.
  double PredictHybrid(double t_pm_only, double t_dram_only,
                       const sim::EventVector& pmcs, double r_dram) const;

 private:
  const CorrelationFunction* correlation_;
};

/// The comparison model of Table 4 ("profiling-based regression" [8]):
/// scale the base-input execution time by the object-size ratio between
/// base and new inputs — no workload characteristics, no placement term.
double ProfilingRegressionPredict(double t_base, double s_base_total,
                                  double s_new_total);

}  // namespace merch::core
