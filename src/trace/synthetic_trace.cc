#include "trace/synthetic_trace.h"

#include <cassert>

namespace merch::trace {

SyntheticAccessSource::SyntheticAccessSource(
    std::vector<SyntheticObjectSpec> objects)
    : objects_(std::move(objects)) {
  first_page_.reserve(objects_.size());
  heat_total_.reserve(objects_.size());
  for (const SyntheticObjectSpec& o : objects_) {
    first_page_.push_back(total_pages_);
    total_pages_ += o.num_pages;
    heat_total_.push_back(o.heat.Total(o.num_pages));
  }
}

SyntheticAccessSource::Locator SyntheticAccessSource::Locate(PageId p) const {
  assert(p < total_pages_);
  // Binary search over first_page_.
  std::size_t lo = 0, hi = objects_.size() - 1;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo + 1) / 2;
    if (first_page_[mid] <= p) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return Locator{static_cast<ObjectId>(lo), p - first_page_[lo]};
}

double SyntheticAccessSource::EpochAccesses(PageId p) const {
  const Locator loc = Locate(p);
  const SyntheticObjectSpec& o = objects_[loc.object];
  return o.epoch_accesses * o.heat.PageFraction(loc.index_in_object,
                                                o.num_pages,
                                                heat_total_[loc.object]);
}

hm::Tier SyntheticAccessSource::PageTier(PageId p) const {
  return objects_[Locate(p).object].tier;
}

ObjectId SyntheticAccessSource::PageObject(PageId p) const {
  return Locate(p).object;
}

TaskId SyntheticAccessSource::PageTask(PageId p) const {
  return objects_[Locate(p).object].task;
}

double SyntheticAccessSource::ObjectAccesses(ObjectId id) const {
  assert(id < objects_.size());
  return objects_[id].epoch_accesses;
}

double SyntheticAccessSource::TaskAccesses(TaskId task) const {
  double sum = 0;
  for (const SyntheticObjectSpec& o : objects_) {
    if (o.task == task) sum += o.epoch_accesses;
  }
  return sum;
}

}  // namespace merch::trace
