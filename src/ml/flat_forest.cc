#include "ml/flat_forest.h"

#include <algorithm>

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

FlatForestPartial::FlatForestPartial(const FlatForest* forest,
                                     std::span<const double> row,
                                     std::size_t var) {
  const std::int32_t* feat = forest->feature.data();
  const double* thresh = forest->threshold.data();
  const std::int32_t* lo = forest->left.data();
  const std::int32_t* hi = forest->right.data();
  const double* val = forest->value.data();

  // Pass 1: fixed-feature splits are decided by the row; splits on `var`
  // fork, and their thresholds become the global breakpoints of the
  // piecewise-constant collapsed function.
  std::uint64_t visits = 0;
  std::vector<std::int32_t> stack;
  for (const std::int32_t root : forest->roots) {
    stack.push_back(root);
    while (!stack.empty()) {
      std::int32_t node = stack.back();
      stack.pop_back();
      std::int32_t f = feat[node];
      while (f >= 0) {
        ++visits;
        if (static_cast<std::size_t>(f) == var) {
          breakpoints_.push_back(thresh[node]);
          stack.push_back(hi[node]);
          node = lo[node];
        } else {
          node = row[f] <= thresh[node] ? lo[node] : hi[node];
        }
        f = feat[node];
      }
    }
  }
  std::sort(breakpoints_.begin(), breakpoints_.end());
  breakpoints_.erase(std::unique(breakpoints_.begin(), breakpoints_.end()),
                     breakpoints_.end());

  // Pass 2: propagate interval-index ranges down each tree and accumulate
  // leaf contributions. Tree-outer with per-interval `+= tree_scale * leaf`
  // reproduces PredictBatch's accumulation order exactly (each tree
  // contributes exactly one leaf to every interval), so values_ is
  // bitwise what PredictBatch would return for one representative row per
  // interval. Interval i covers (b[i-1], b[i]]: its representative
  // satisfies x <= t identically for every breakpoint threshold t, which
  // is why one value is exact for the whole interval.
  const std::size_t num_intervals = breakpoints_.size() + 1;
  values_.assign(num_intervals, forest->base);
  struct Frame {
    std::int32_t node;
    std::uint32_t lo_idx;  // interval-index range [lo_idx, hi_idx)
    std::uint32_t hi_idx;
  };
  std::vector<Frame> frames;
  for (const std::int32_t root : forest->roots) {
    frames.push_back({root, 0, static_cast<std::uint32_t>(num_intervals)});
    while (!frames.empty()) {
      Frame fr = frames.back();
      frames.pop_back();
      std::int32_t f = feat[fr.node];
      while (f >= 0) {
        ++visits;
        if (static_cast<std::size_t>(f) == var) {
          // Intervals 0..p have representatives <= t (interval p's
          // representative IS t); intervals past p exceed it.
          const std::uint32_t p = static_cast<std::uint32_t>(
              std::lower_bound(breakpoints_.begin(), breakpoints_.end(),
                               thresh[fr.node]) -
              breakpoints_.begin());
          const std::uint32_t split = std::min(fr.hi_idx, p + 1);
          if (split < fr.hi_idx) {
            frames.push_back({hi[fr.node], split, fr.hi_idx});
          }
          fr.hi_idx = split;
          fr.node = lo[fr.node];
          if (fr.lo_idx >= fr.hi_idx) break;  // empty range, dead branch
        } else {
          fr.node = row[f] <= thresh[fr.node] ? lo[fr.node] : hi[fr.node];
        }
        f = feat[fr.node];
      }
      if (f < 0 && fr.lo_idx < fr.hi_idx) {
        const double contrib = forest->tree_scale * val[fr.node];
        for (std::uint32_t i = fr.lo_idx; i < fr.hi_idx; ++i) {
          values_[i] += contrib;
        }
      }
    }
  }
  if (forest->divisor != 1.0) {
    for (double& v : values_) v /= forest->divisor;
  }
  MERCH_METRIC_COUNT("merch_ml_flat_forest_node_visits_total", visits);
}

double FlatForestPartial::Predict(double x) const {
  const std::size_t idx = static_cast<std::size_t>(
      std::lower_bound(breakpoints_.begin(), breakpoints_.end(), x) -
      breakpoints_.begin());
  return values_[idx];
}

}  // namespace merch::ml
