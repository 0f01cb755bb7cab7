// What the checked-in golden tests share: FNV-1a 64 digests, and the
// comparison that names the first section where a subject's computed
// digests depart from its checked-in rows. golden_test pins application
// builds; sim_golden_test pins simulations.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace merch::golden {

/// FNV-1a 64 over the little-endian bytes of each value added.
class Fnv1a {
 public:
  void Add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xFF;
      hash_ *= 0x100000001B3ull;
    }
  }
  void Add(double v) { Add(std::bit_cast<std::uint64_t>(v)); }
  void Add(const std::string& s) {
    Add(static_cast<std::uint64_t>(s.size()));
    for (const char c : s) Add(static_cast<std::uint64_t>(c));
  }
  template <typename Container>
  void AddAll(const Container& values) {
    Add(static_cast<std::uint64_t>(values.size()));
    for (const auto& v : values) {
      if constexpr (std::is_floating_point_v<std::decay_t<decltype(v)>>) {
        Add(static_cast<double>(v));
      } else {
        Add(static_cast<std::uint64_t>(v));
      }
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ull;
};

template <typename Container>
std::uint64_t DigestOf(const Container& values) {
  Fnv1a h;
  h.AddAll(values);
  return h.value();
}

/// One checked-in digest.
struct Row {
  std::string subject;
  std::string section;
  std::uint64_t digest = 0;
};

/// A subject's computed digests, in section order.
using Sections = std::vector<std::pair<std::string, std::uint64_t>>;

/// The first section where `got` departs from `rows`' entries for
/// `subject` (compared in order), described for a failure message; empty
/// when they agree.
inline std::string FirstDifference(std::span<const Row> rows,
                                   const std::string& subject,
                                   const Sections& got) {
  std::vector<const Row*> want;
  for (const Row& r : rows) {
    if (r.subject == subject) want.push_back(&r);
  }
  for (std::size_t i = 0; i < std::max(want.size(), got.size()); ++i) {
    if (i >= want.size()) return got[i].first + " (no checked-in digest)";
    if (i >= got.size()) return want[i]->section + " (not computed)";
    if (got[i].first != want[i]->section) {
      return got[i].first + " (checked in as " + want[i]->section + ")";
    }
    if (got[i].second != want[i]->digest) return got[i].first;
  }
  return {};
}

}  // namespace merch::golden
