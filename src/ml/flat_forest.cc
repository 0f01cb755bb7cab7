#include "ml/flat_forest.h"

#include "obs/metrics.h"

namespace merch::ml {

void FlatForest::Clear() {
  feature.clear();
  threshold.clear();
  value.clear();
  left.clear();
  right.clear();
  roots.clear();
  base = 0.0;
  tree_scale = 1.0;
  divisor = 1.0;
}

void FlatForest::PredictBatch(std::span<const double> rows,
                              std::size_t num_features,
                              std::span<double> out) const {
  const std::size_t n = out.size();
  for (std::size_t i = 0; i < n; ++i) out[i] = base;
  const std::int32_t* feat = feature.data();
  const double* thresh = threshold.data();
  const std::int32_t* lo = left.data();
  const std::int32_t* hi = right.data();
  const double* val = value.data();
  std::uint64_t visits = 0;
  // Tree-outer: one tree's nodes stay cache-resident across the batch.
  // Per-row accumulation order equals the scalar ensemble walk (tree
  // order), so results are bitwise identical.
  for (const std::int32_t root : roots) {
    std::size_t i = 0;
    // Four rows per tree in lock-step: four independent node chains hide
    // each other's node-load latency. Rows never interact — each keeps its
    // own accumulator — so lane width cannot change a bit, and the
    // remainder rows below take the one-row walk unchanged.
    constexpr std::size_t kLanes = 4;
    for (; i + kLanes <= n; i += kLanes) {
      std::int32_t node[kLanes];
      std::int32_t f[kLanes];
      const double* x[kLanes];
      for (std::size_t k = 0; k < kLanes; ++k) {
        node[k] = root;
        f[k] = feat[root];
        x[k] = rows.data() + (i + k) * num_features;
      }
      while (f[0] >= 0 || f[1] >= 0 || f[2] >= 0 || f[3] >= 0) {
        for (std::size_t k = 0; k < kLanes; ++k) {
          if (f[k] >= 0) {
            node[k] =
                x[k][f[k]] <= thresh[node[k]] ? lo[node[k]] : hi[node[k]];
            f[k] = feat[node[k]];
            ++visits;
          }
        }
      }
      for (std::size_t k = 0; k < kLanes; ++k) {
        out[i + k] += tree_scale * val[node[k]];
      }
    }
    for (; i < n; ++i) {
      const double* x = rows.data() + i * num_features;
      std::int32_t node = root;
      std::int32_t f = feat[node];
      while (f >= 0) {
        node = x[f] <= thresh[node] ? lo[node] : hi[node];
        f = feat[node];
        ++visits;
      }
      out[i] += tree_scale * val[node];
    }
  }
  MERCH_METRIC_COUNT("merch_ml_flat_forest_node_visits_total", visits);
  if (divisor != 1.0) {
    for (std::size_t i = 0; i < n; ++i) out[i] /= divisor;
  }
}

}  // namespace merch::ml
