#include "core/perf_model.h"

#include <algorithm>

namespace merch::core {

double PerformanceModel::PredictHybrid(double t_pm_only, double t_dram_only,
                                       const sim::EventVector& pmcs,
                                       double r_dram) const {
  const double r = std::clamp(r_dram, 0.0, 1.0);
  if (r >= 1.0) return t_dram_only;
  const double f = correlation_->Evaluate(pmcs, r);
  const double t = t_pm_only * (1.0 - r) * f + t_dram_only * r;
  // The prediction is bounded by the homogeneous extremes (Section 5,
  // rationale 1).
  return std::clamp(t, std::min(t_dram_only, t_pm_only),
                    std::max(t_dram_only, t_pm_only));
}

double ProfilingRegressionPredict(double t_base, double s_base_total,
                                  double s_new_total) {
  if (s_base_total <= 0) return t_base;
  return t_base * (s_new_total / s_base_total);
}

}  // namespace merch::core
