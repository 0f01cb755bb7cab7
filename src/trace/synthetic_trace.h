// Synthetic page-access sources for testing and benchmarking profilers in
// isolation from the full simulator.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "trace/access_source.h"
#include "trace/heat.h"

namespace merch::trace {

/// Describes one synthetic object: page count, owning task, heat profile,
/// and total accesses this epoch.
struct SyntheticObjectSpec {
  TaskId task = 0;
  std::uint64_t num_pages = 0;
  HeatProfile heat = HeatProfile::Uniform();
  double epoch_accesses = 0;
  hm::Tier tier = hm::Tier::kPm;
};

/// Materialises a page-access view from object specs. Pages are laid out
/// contiguously in spec order; per-page accesses follow each object's heat
/// profile exactly (no sampling noise — profilers add their own).
class SyntheticAccessSource final : public PageAccessSource {
 public:
  explicit SyntheticAccessSource(std::vector<SyntheticObjectSpec> objects);

  std::uint64_t num_pages() const override { return total_pages_; }
  double EpochAccesses(PageId p) const override;
  hm::Tier PageTier(PageId p) const override;
  ObjectId PageObject(PageId p) const override;
  TaskId PageTask(PageId p) const override;

  /// Ground truth: total accesses of object `id` this epoch.
  double ObjectAccesses(ObjectId id) const;
  /// Ground truth: total accesses attributed to `task` this epoch.
  double TaskAccesses(TaskId task) const;
  std::size_t num_objects() const { return objects_.size(); }

 private:
  struct Locator {
    ObjectId object;
    std::uint64_t index_in_object;
  };
  Locator Locate(PageId p) const;

  std::vector<SyntheticObjectSpec> objects_;
  std::vector<std::uint64_t> first_page_;  // per object
  std::vector<double> heat_total_;         // per object: heat.Total(num_pages)
  std::uint64_t total_pages_ = 0;
};

}  // namespace merch::trace
