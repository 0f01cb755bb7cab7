#include "ml/tree.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

namespace merch::ml {
namespace {

struct SplitResult {
  std::size_t feature = static_cast<std::size_t>(-1);
  double threshold = 0;
  double gain = 0;  // impurity (SSE) decrease
  std::size_t split_point = 0;  // index into the sorted order
};

}  // namespace

void DecisionTreeRegressor::Fit(const Dataset& data) {
  FitResiduals(data, data.targets());
}

void DecisionTreeRegressor::FitResiduals(const Dataset& data,
                                         std::span<const double> targets) {
  assert(data.size() == targets.size());
  nodes_.clear();
  num_features_ = data.num_features();
  importance_.assign(num_features_, 0.0);
  if (data.empty()) {
    nodes_.push_back(Node{.value = 0.0});
    return;
  }
  std::vector<std::size_t> indices(data.size());
  std::iota(indices.begin(), indices.end(), 0);
  Build(data, targets, indices, 0, data.size(), 0);
}

std::int32_t DecisionTreeRegressor::Build(const Dataset& data,
                                          std::span<const double> targets,
                                          std::vector<std::size_t>& indices,
                                          std::size_t begin, std::size_t end,
                                          int depth) {
  const std::size_t n = end - begin;
  double sum = 0, sum_sq = 0;
  for (std::size_t i = begin; i < end; ++i) {
    sum += targets[indices[i]];
    sum_sq += targets[indices[i]] * targets[indices[i]];
  }
  const double mean = sum / static_cast<double>(n);
  const double sse = sum_sq - sum * mean;

  const auto make_leaf = [&]() -> std::int32_t {
    nodes_.push_back(Node{.value = mean});
    return static_cast<std::int32_t>(nodes_.size() - 1);
  };

  if (depth >= config_.max_depth || n < config_.min_samples_split ||
      sse <= 1e-12) {
    return make_leaf();
  }

  // Candidate features: all, or a random subset (forest mode).
  std::vector<std::size_t> features(num_features_);
  std::iota(features.begin(), features.end(), 0);
  if (config_.max_features > 0 && config_.max_features < num_features_) {
    for (std::size_t i = 0; i < config_.max_features; ++i) {
      const std::size_t j = i + rng_.NextBelow(num_features_ - i);
      std::swap(features[i], features[j]);
    }
    features.resize(config_.max_features);
  }

  SplitResult best;
  // (x[f], row) pairs. Each feature re-sorts the previous feature's order:
  // ties keep whatever order std::sort leaves them in, and that order sets
  // the summation order in the child nodes, so the chaining (and the
  // unstable sort) is part of the model. Sorting on the gathered value
  // makes the same comparisons as sorting row ids through data.row(), so
  // the permutation is the same.
  std::vector<std::pair<double, std::size_t>> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i].second = indices[begin + i];
  std::vector<std::size_t> best_order;
  for (const std::size_t f : features) {
    for (auto& [x, row] : order) x = data.row(row)[f];
    std::sort(order.begin(), order.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    // Scan split positions; prefix sums give left/right SSE in O(1).
    double left_sum = 0, left_sq = 0;
    bool improved = false;
    for (std::size_t k = 1; k < n; ++k) {
      const double y = targets[order[k - 1].second];
      left_sum += y;
      left_sq += y * y;
      const double xv_prev = order[k - 1].first;
      const double xv = order[k].first;
      if (xv <= xv_prev) continue;  // no boundary between equal values
      if (k < config_.min_samples_leaf || n - k < config_.min_samples_leaf) {
        continue;
      }
      const double right_sum = sum - left_sum;
      const double right_sq = sum_sq - left_sq;
      const double left_sse =
          left_sq - left_sum * left_sum / static_cast<double>(k);
      const double right_sse =
          right_sq - right_sum * right_sum / static_cast<double>(n - k);
      const double gain = sse - left_sse - right_sse;
      if (gain > best.gain) {
        best = SplitResult{f, 0.5 * (xv_prev + xv), gain, k};
        improved = true;
      }
    }
    if (improved) {  // `order` is fixed during the scan: copy it once
      best_order.resize(n);
      for (std::size_t i = 0; i < n; ++i) best_order[i] = order[i].second;
    }
  }

  if (best.feature == static_cast<std::size_t>(-1)) return make_leaf();

  importance_[best.feature] += best.gain;
  std::copy(best_order.begin(), best_order.end(), indices.begin() + begin);

  const std::size_t node_index = nodes_.size();
  nodes_.push_back(Node{.feature = best.feature, .threshold = best.threshold,
                        .value = mean});
  const std::int32_t left =
      Build(data, targets, indices, begin, begin + best.split_point, depth + 1);
  const std::int32_t right =
      Build(data, targets, indices, begin + best.split_point, end, depth + 1);
  nodes_[node_index].left = left;
  nodes_[node_index].right = right;
  return static_cast<std::int32_t>(node_index);
}

std::optional<DecisionTreeRegressor> DecisionTreeRegressor::FromPreorder(
    TreeConfig config, std::size_t num_features, std::vector<Node> nodes,
    std::vector<double> importance, std::string* error) {
  const auto fail = [&](std::string message) {
    *error = std::move(message);
    return std::nullopt;
  };
  if (nodes.empty()) return fail("a tree has no nodes");
  if (nodes.size() >
      static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max())) {
    return fail("a tree has more nodes than a child link can address");
  }
  if (importance.size() != num_features) {
    return fail("a tree has " + std::to_string(importance.size()) +
                " importances for " + std::to_string(num_features) +
                " features");
  }
  for (const double v : importance) {
    if (!std::isfinite(v)) return fail("a feature importance is not finite");
  }
  // Open child slots, innermost last: (parent, is right child, depth).
  struct Slot {
    std::int32_t parent;
    bool right;
    int depth;
  };
  std::vector<Slot> open = {{-1, false, 0}};
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (open.empty()) {
      return fail("a tree's preorder ends at node " + std::to_string(i) +
                  " of " + std::to_string(nodes.size()));
    }
    const Slot slot = open.back();
    open.pop_back();
    Node& node = nodes[i];
    if (!std::isfinite(node.value)) return fail("a node value is not finite");
    const auto index = static_cast<std::int32_t>(i);
    if (slot.parent >= 0) {
      Node& parent = nodes[static_cast<std::size_t>(slot.parent)];
      (slot.right ? parent.right : parent.left) = index;
    }
    node.left = node.right = -1;
    if (node.feature == static_cast<std::size_t>(-1)) continue;  // leaf
    if (node.feature >= num_features) {
      return fail("split feature " + std::to_string(node.feature) +
                  " is out of range for " + std::to_string(num_features) +
                  " features");
    }
    if (!std::isfinite(node.threshold)) {
      return fail("a split threshold is not finite");
    }
    if (slot.depth >= config.max_depth) {
      return fail("a tree is deeper than max_depth " +
                  std::to_string(config.max_depth));
    }
    open.push_back({index, true, slot.depth + 1});
    open.push_back({index, false, slot.depth + 1});  // left subtree first
  }
  if (!open.empty()) {
    return fail("a tree's preorder stops " + std::to_string(open.size()) +
                " subtrees short");
  }
  DecisionTreeRegressor tree(config);
  tree.nodes_ = std::move(nodes);
  tree.importance_ = std::move(importance);
  tree.num_features_ = num_features;
  return tree;
}

double DecisionTreeRegressor::Predict(std::span<const double> x) const {
  if (nodes_.empty()) return 0.0;
  // Root is node 0 (Build pushes the root before its children... note the
  // root is pushed first only when it splits; a pure-leaf fit also lands at
  // index 0).
  std::size_t i = 0;
  for (;;) {
    const Node& n = nodes_[i];
    if (n.feature == static_cast<std::size_t>(-1)) return n.value;
    i = static_cast<std::size_t>(x[n.feature] <= n.threshold ? n.left
                                                             : n.right);
  }
}

void DecisionTreeRegressor::PredictBatch(std::span<const double> rows,
                                         std::size_t num_features,
                                         std::span<double> out) const {
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = Predict(rows.subspan(i * num_features, num_features));
  }
}

void DecisionTreeRegressor::AppendToForest(FlatForest* forest) const {
  const auto offset = static_cast<std::int32_t>(forest->num_nodes());
  forest->roots.push_back(offset);  // root is local node 0 (see Predict)
  if (nodes_.empty()) {  // unfitted tree predicts 0.0
    forest->feature.push_back(-1);
    forest->threshold.push_back(0.0);
    forest->value.push_back(0.0);
    forest->left.push_back(-1);
    forest->right.push_back(-1);
    return;
  }
  for (const Node& n : nodes_) {
    const bool leaf = n.feature == static_cast<std::size_t>(-1);
    forest->feature.push_back(leaf ? -1 : static_cast<std::int32_t>(n.feature));
    forest->threshold.push_back(n.threshold);
    forest->value.push_back(n.value);
    forest->left.push_back(leaf ? -1 : n.left + offset);
    forest->right.push_back(leaf ? -1 : n.right + offset);
  }
}

std::vector<double> DecisionTreeRegressor::FeatureImportance() const {
  std::vector<double> out = importance_;
  double total = 0;
  for (const double v : out) total += v;
  if (total > 0) {
    for (double& v : out) v /= total;
  }
  return out;
}

}  // namespace merch::ml
