#include "service/result_cache.h"

#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/serialization.h"

namespace merch::service {

namespace {

// Snapshot magic + format version. Bump the version on any layout change:
// old readers then reject new snapshots (and vice versa) instead of
// misinterpreting bytes.
constexpr char kSnapshotMagic[4] = {'M', 'C', 'S', 'N'};
constexpr std::uint16_t kSnapshotVersion = 1;
/// The smallest encoded entry: key length (4), then EncodeResult with
/// empty strings — request 40 (two 4-byte lengths, four 8-byte fields),
/// error length 4, four 8-byte fields, placement count 4.
constexpr std::size_t kMinSnapshotEntryBytes = 84;

}  // namespace

ResultCache::ResultCache(std::size_t capacity)
    : capacity_(capacity ? capacity : 1) {}

std::optional<PlacementResult> ResultCache::Get(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    MERCH_METRIC_COUNT("merch_cache_misses_total", 1);
    MERCH_TRACE_INSTANT_ARG(obs::Category::kCache, "cache.lookup", "hit", 0);
    return std::nullopt;
  }
  ++hits_;
  MERCH_METRIC_COUNT("merch_cache_hits_total", 1);
  MERCH_TRACE_INSTANT_ARG(obs::Category::kCache, "cache.lookup", "hit", 1);
  order_.splice(order_.begin(), order_, it->second);
  return it->second->second;
}

void ResultCache::Put(const std::string& key, PlacementResult value) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->second = std::move(value);
    order_.splice(order_.begin(), order_, it->second);
    return;
  }
  if (index_.size() >= capacity_) {
    index_.erase(order_.back().first);
    order_.pop_back();
    ++evictions_;
    MERCH_METRIC_COUNT("merch_cache_evictions_total", 1);
    MERCH_TRACE_INSTANT(obs::Category::kCache, "cache.evict");
  }
  order_.emplace_front(key, std::move(value));
  index_[key] = order_.begin();
}

bool ResultCache::Contains(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return index_.count(key) != 0;
}

void ResultCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  order_.clear();
  index_.clear();
}

CacheStats ResultCache::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return CacheStats{hits_, misses_, evictions_, index_.size(), capacity_};
}

std::string ResultCache::Serialize() const {
  std::lock_guard<std::mutex> lock(mu_);
  WireWriter w;
  for (char c : kSnapshotMagic) w.U8(static_cast<std::uint8_t>(c));
  w.U16(kSnapshotVersion);
  w.U32(static_cast<std::uint32_t>(order_.size()));
  // Least-recently-used first: replaying through Put() leaves the
  // most-recently-used entry at the front again.
  for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
    w.Str(it->first);
    EncodeResult(it->second, &w);
  }
  return w.Take();
}

bool ResultCache::Deserialize(const std::string& bytes, std::string* error) {
  WireReader r(bytes);
  std::uint8_t magic[4];
  for (std::uint8_t& m : magic) r.U8(&m);
  std::uint16_t version = 0;
  std::uint32_t count = 0;
  r.U16(&version);
  r.U32(&count);
  if (!r.ok()) {
    if (error != nullptr) *error = "cache snapshot: truncated header";
    return false;
  }
  for (std::size_t i = 0; i < 4; ++i) {
    if (static_cast<char>(magic[i]) != kSnapshotMagic[i]) {
      if (error != nullptr) *error = "cache snapshot: bad magic";
      return false;
    }
  }
  if (version != kSnapshotVersion) {
    if (error != nullptr) {
      *error = "cache snapshot: unsupported version " +
               std::to_string(version) + " (expected " +
               std::to_string(kSnapshotVersion) + ")";
    }
    return false;
  }
  // A count the remaining bytes cannot possibly hold is a hostile length
  // prefix, not data: reject it before reserving for it.
  if (count > r.remaining() / kMinSnapshotEntryBytes) {
    if (error != nullptr) {
      *error = "cache snapshot: " + std::to_string(count) +
               " entries cannot fit in " + std::to_string(r.remaining()) +
               " bytes";
    }
    return false;
  }
  // Decode everything before touching the cache: a snapshot that turns out
  // corrupt halfway through must not half-load.
  std::vector<std::pair<std::string, PlacementResult>> entries;
  entries.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::pair<std::string, PlacementResult> entry;
    if (!r.Str(&entry.first) || !DecodeResult(&r, &entry.second)) {
      if (error != nullptr) {
        *error = "cache snapshot: corrupt entry " + std::to_string(i) +
                 " of " + std::to_string(count);
      }
      return false;
    }
    entries.push_back(std::move(entry));
  }
  if (r.remaining() != 0) {
    if (error != nullptr) *error = "cache snapshot: trailing bytes";
    return false;
  }
  for (auto& [key, result] : entries) Put(key, std::move(result));
  return true;
}

}  // namespace merch::service
