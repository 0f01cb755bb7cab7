// The model artifact (service/model_artifact.h): the built-in f is a fresh
// training of the default configuration byte for byte, the decoded model
// predicts bitwise as the trained one on every path, and hostile bytes are
// rejected with a message, without a crash and without allocating beyond
// what the input could hold.
//
// No ctest label: the freshness test trains the paper's 281 regions, which
// the sanitizer jobs' label runs should not pay for.
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <new>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/correlation.h"
#include "ml/gbr.h"
#include "service/model_artifact.h"
#include "service/serialization.h"
#include "workloads/training.h"

// Largest single allocation since the last reset: the decoder must never
// size a buffer from a count its input cannot back.
static std::atomic<std::size_t> g_largest_allocation{0};

void* operator new(std::size_t n) {
  std::size_t seen = g_largest_allocation.load(std::memory_order_relaxed);
  while (n > seen && !g_largest_allocation.compare_exchange_weak(
                         seen, n, std::memory_order_relaxed)) {
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
// Out of line, so the compiler never pairs an inlined free() with an
// operator new call site.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace merch::service {
namespace {

using workloads::TrainingConfig;

constexpr const char* kRegenerate =
    "merchctl train --out src/service/builtin_correlation.mcmf";

bool SameBits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool SameBits(double a, double b) { return SameBits({&a, 1}, {&b, 1}); }

const ml::GradientBoostedRegressor& Gbr(const core::CorrelationFunction& f) {
  return dynamic_cast<const ml::GradientBoostedRegressor&>(*f.model());
}

core::CorrelationFunction Decode(std::string_view bytes,
                                 const TrainingConfig& training = {}) {
  std::string error;
  std::optional<core::CorrelationFunction> f =
      DecodeModelArtifact(bytes, training, &error);
  EXPECT_TRUE(f.has_value()) << error;
  return f ? std::move(*f) : core::CorrelationFunction();
}

/// Every prediction path of `decoded` equals `trained`'s, bitwise, on
/// `data`'s rows.
void ExpectSameModel(const core::CorrelationFunction& trained,
                     const core::CorrelationFunction& decoded,
                     const ml::Dataset& data) {
  const ml::GradientBoostedRegressor& a = Gbr(trained);
  const ml::GradientBoostedRegressor& b = Gbr(decoded);
  EXPECT_TRUE(SameBits(trained.test_r2(), decoded.test_r2()));
  EXPECT_TRUE(SameBits(a.FeatureImportance(), b.FeatureImportance()));
  EXPECT_TRUE(SameBits(a.flat_forest().threshold, b.flat_forest().threshold));
  EXPECT_TRUE(SameBits(a.flat_forest().value, b.flat_forest().value));
  EXPECT_EQ(a.flat_forest().feature, b.flat_forest().feature);
  EXPECT_EQ(a.flat_forest().left, b.flat_forest().left);
  EXPECT_EQ(a.flat_forest().right, b.flat_forest().right);
  EXPECT_EQ(a.flat_forest().roots, b.flat_forest().roots);

  std::vector<double> flat_a(data.size()), flat_b(data.size());
  a.PredictBatch(data.raw(), data.num_features(), flat_a);
  b.PredictBatch(data.raw(), data.num_features(), flat_b);
  EXPECT_TRUE(SameBits(flat_a, flat_b));

  for (std::size_t i = 0; i < data.size(); ++i) {
    const auto row = data.row(i);
    ASSERT_TRUE(SameBits(a.Predict(row), b.Predict(row))) << "row " << i;
    // The per-row walk and the batch: both paths, one answer.
    ASSERT_TRUE(SameBits(a.Predict(row), flat_a[i])) << "row " << i;
  }
}

std::string FirstDifference(const std::string& fresh,
                            std::string_view builtin) {
  std::size_t i = 0;
  while (i < fresh.size() && i < builtin.size() && fresh[i] == builtin[i]) {
    ++i;
  }
  return "the built-in artifact (" + std::to_string(builtin.size()) +
         " bytes) differs from a fresh training (" +
         std::to_string(fresh.size()) + " bytes) first at byte offset " +
         std::to_string(i) + "; regenerate it with `" + kRegenerate +
         "` and rebuild";
}

TEST(ModelArtifact, BuiltinIsAFreshTrainingOfTheDefaultConfiguration) {
  const TrainingConfig training;
  const std::vector<workloads::TrainingSample> samples =
      workloads::GenerateTrainingSamples(training);
  core::CorrelationFunction trained;
  trained.Train(samples);
  const std::string fresh = EncodeModelArtifact(training, trained);
  const std::string_view builtin = BuiltinModelArtifact();
  ASSERT_TRUE(fresh == builtin) << FirstDifference(fresh, builtin);

  const core::CorrelationFunction decoded = Decode(builtin);
  ExpectSameModel(trained, decoded,
                  workloads::ToDataset(samples, trained.events()));
  // And through f itself, clamps included.
  for (std::size_t i = 0; i < samples.size(); i += 11) {
    const double r = samples[i].r_dram;
    EXPECT_TRUE(SameBits(trained.Evaluate(samples[i].pmcs, r),
                         decoded.Evaluate(samples[i].pmcs, r)));
  }
}

TEST(ModelArtifact, BuiltinDecodesAndReencodesByteForByte) {
  const std::string_view builtin = BuiltinModelArtifact();
  const core::CorrelationFunction f = Decode(builtin);
  EXPECT_EQ(EncodeModelArtifact(TrainingConfig{}, f), builtin);
  EXPECT_EQ(f.config().events, core::CorrelationFunction::PaperEvents());
  EXPECT_EQ(Gbr(f).stages().size(), ml::GbrConfig{}.num_stages);
}

TEST(ModelArtifact, BuiltinAppliesOnlyAtTheDefaultBudget) {
  EXPECT_TRUE(UsesBuiltinModel(TrainingConfig{}.num_regions));
  for (const std::size_t regions : {1, 6, 8, 64, 280, 282, 1024}) {
    EXPECT_FALSE(UsesBuiltinModel(regions)) << regions;
  }
}

TEST(ModelArtifact, AnyBudgetRoundTripsAndPredictsAsTrained) {
  TrainingConfig training;
  training.num_regions = 8;
  const std::vector<workloads::TrainingSample> samples =
      workloads::GenerateTrainingSamples(training);
  core::CorrelationFunction trained;
  trained.Train(samples);
  const std::string bytes = EncodeModelArtifact(training, trained);
  const core::CorrelationFunction decoded = Decode(bytes, training);
  EXPECT_EQ(EncodeModelArtifact(training, decoded), bytes);
  ExpectSameModel(trained, decoded,
                  workloads::ToDataset(samples, trained.events()));
}

// --- hostile inputs ----------------------------------------------------

/// Generous per-decode allowance for messages and header strings.
constexpr std::size_t kAllocationSlack = 4096;

/// Decoding `bytes` as f for `training` must fail with a message, and no
/// single allocation may exceed a small multiple of the input.
void ExpectRejected(std::string_view bytes, const std::string& what,
                    const TrainingConfig& training = {}) {
  std::string error;
  g_largest_allocation = 0;
  const bool decoded =
      DecodeModelArtifact(bytes, training, &error).has_value();
  const std::size_t largest = g_largest_allocation;
  EXPECT_FALSE(decoded) << what;
  EXPECT_FALSE(error.empty()) << what;
  EXPECT_LE(largest, kAllocationSlack + 8 * bytes.size())
      << what << ": " << error;
}

std::string U32(std::uint32_t v) {
  WireWriter w;
  w.U32(v);
  return w.Take();
}

constexpr std::uint32_t kFeatures = 9;  // the paper's 8 events + r
constexpr std::uint8_t kLeaf = 0xFF;

/// One encoded tree: `nodes` as (feature or kLeaf, threshold, value) in
/// preorder, then `importance` for every feature.
struct RawNode {
  std::uint8_t feature = kLeaf;
  double threshold = 0;
  double value = 0.5;
};
std::string Tree(const std::vector<RawNode>& nodes, double importance = 0,
                 std::optional<std::uint32_t> count = std::nullopt) {
  WireWriter w;
  w.U32(count.value_or(static_cast<std::uint32_t>(nodes.size())));
  for (const RawNode& n : nodes) {
    w.U8(n.feature);
    if (n.feature != kLeaf) w.F64(n.threshold);
    w.F64(n.value);
  }
  for (std::uint32_t f = 0; f < kFeatures; ++f) w.F64(importance);
  return w.Take();
}

const std::string& LeafTree() {
  static const std::string tree = Tree({RawNode{}});
  return tree;
}

/// f with the default configuration whose stages are all one-leaf trees,
/// encoding each exactly as LeafTree().
core::CorrelationFunction LeafModel() {
  const ml::GbrConfig gbr;
  std::vector<ml::DecisionTreeRegressor> stages;
  for (std::size_t s = 0; s < gbr.num_stages; ++s) {
    std::string error;
    stages.push_back(*ml::DecisionTreeRegressor::FromPreorder(
        gbr.tree, kFeatures, {ml::DecisionTreeRegressor::Node{.value = 0.5}},
        std::vector<double>(kFeatures, 0.0), &error));
  }
  return core::CorrelationFunction(
      {}, ml::GradientBoostedRegressor::FromStages(gbr, 1.0, std::move(stages)),
      0.5);
}

/// A hand-built default-configuration artifact: the LeafModel header with
/// its body length recomputed, `trees` as the tree count, `first` as tree
/// 0, one-leaf trees after it, then `tail`.
std::string HandMade(const std::string& first,
                     std::uint32_t trees = ml::GbrConfig{}.num_stages,
                     const std::string& tail = "") {
  static const std::string valid =
      EncodeModelArtifact(TrainingConfig{}, LeafModel());
  const std::size_t stages = ml::GbrConfig{}.num_stages;
  const std::size_t body = 4 + stages * LeafTree().size();
  std::string out = valid.substr(0, valid.size() - body - 4);  // header
  std::string rest = U32(trees) + first;
  for (std::size_t s = 1; s < stages; ++s) rest += LeafTree();
  rest += tail;
  return out + U32(static_cast<std::uint32_t>(rest.size())) + rest;
}

TEST(ModelArtifactHostile, HandMadeLayoutMatchesTheEncoder) {
  // Guards the helpers below: the hand-built bytes are the encoder's.
  EXPECT_EQ(HandMade(LeafTree()),
            EncodeModelArtifact(TrainingConfig{}, LeafModel()));
  Decode(HandMade(LeafTree()));
}

TEST(ModelArtifactHostile, RejectsEveryTruncation) {
  const std::string_view builtin = BuiltinModelArtifact();
  for (std::size_t len = 0; len < builtin.size(); ++len) {
    ExpectRejected(builtin.substr(0, len), "prefix " + std::to_string(len));
    if (HasFailure()) break;
  }
}

TEST(ModelArtifactHostile, ByteFlipsAreRejectedOrDecodeToExactlyThoseBytes) {
  // A flip in a threshold, value or importance can leave a valid (other)
  // model; anything accepted must re-encode to the flipped bytes.
  const std::string builtin(BuiltinModelArtifact());
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < builtin.size(); i += i < 512 ? 1 : 211) {
    std::string flipped = builtin;
    flipped[i] = static_cast<char>(flipped[i] ^ 0xFF);
    std::string error;
    g_largest_allocation = 0;
    const std::optional<core::CorrelationFunction> f =
        DecodeModelArtifact(flipped, TrainingConfig{}, &error);
    EXPECT_LE(g_largest_allocation.load(),
              kAllocationSlack + 8 * flipped.size())
        << "offset " << i;
    if (!f) {
      EXPECT_FALSE(error.empty()) << "offset " << i;
      ++rejected;
      continue;
    }
    ASSERT_EQ(EncodeModelArtifact(TrainingConfig{}, *f), flipped)
        << "offset " << i;
  }
  EXPECT_GT(rejected, 100u);  // every header flip at least
}

TEST(ModelArtifactHostile, RejectsGarbage) {
  Rng rng(99);
  for (std::size_t len : {1, 3, 6, 64, 500, 4096, 70000}) {
    for (int rep = 0; rep < 20; ++rep) {
      std::string junk(len, '\0');
      for (char& c : junk) c = static_cast<char>(rng.NextBelow(256));
      ExpectRejected(junk, "random " + std::to_string(len));
      // Same, behind a valid magic and version.
      ExpectRejected(std::string("MCMF\x01\x00", 6) + junk,
                     "magic + random " + std::to_string(len));
    }
  }
  ExpectRejected(std::string(4096, '\0'), "zeros");
  ExpectRejected(std::string(4096, '\xff'), "ones");
}

TEST(ModelArtifactHostile, RejectsHostileCounts) {
  ExpectRejected(HandMade(LeafTree(), 0xFFFFFFFFu), "2^32-1 trees");
  ExpectRejected(HandMade(LeafTree(), 399), "one tree short");
  ExpectRejected(HandMade(Tree({RawNode{}}, 0, 0xFFFFFFFFu)), "2^32-1 nodes");
  // (Padded, so the body still holds 400 minimal trees.)
  ExpectRejected(HandMade(Tree({}, 0), ml::GbrConfig{}.num_stages,
                          std::string(9, '\0')),
                 "no nodes");
  // max_depth 4 allows 31 nodes; 32 leaves is over the bound.
  ExpectRejected(HandMade(Tree(std::vector<RawNode>(32))), "32 nodes");
}

TEST(ModelArtifactHostile, RejectsMalformedTrees) {
  const RawNode leaf;
  const auto split = [](std::uint8_t feature, double threshold = 0.5) {
    return RawNode{feature, threshold, 0.25};
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // A well-formed split first, so the cases below differ in one thing.
  Decode(HandMade(Tree({split(kFeatures - 1), leaf, leaf})));

  ExpectRejected(HandMade(Tree({split(kFeatures), leaf, leaf})),
                 "feature out of range");
  ExpectRejected(HandMade(Tree({split(0, nan), leaf, leaf})), "NaN threshold");
  ExpectRejected(HandMade(Tree({split(0, inf), leaf, leaf})), "inf threshold");
  ExpectRejected(HandMade(Tree({split(0), RawNode{kLeaf, 0, inf}, leaf})),
                 "inf value");
  ExpectRejected(HandMade(Tree({leaf}, nan)), "NaN importance");
  // Depth 5 with max_depth 4: a chain of five splits.
  std::vector<RawNode> deep(5, split(1));
  deep.insert(deep.end(), 6, leaf);
  ExpectRejected(HandMade(Tree(deep)), "too deep");
  deep.erase(deep.begin());  // depth 4 is allowed
  deep.pop_back();
  Decode(HandMade(Tree(deep)));
  ExpectRejected(HandMade(Tree({leaf, leaf, leaf})), "preorder ends early");
  ExpectRejected(HandMade(Tree({split(0), leaf})), "preorder stops short");
}

TEST(ModelArtifactHostile, RejectsTrailingBytes) {
  const std::string builtin(BuiltinModelArtifact());
  ExpectRejected(builtin + '\0', "a byte past the body");
  // The same byte counted by the body length: trees end before the body.
  ExpectRejected(HandMade(LeafTree(), ml::GbrConfig{}.num_stages,
                          std::string(1, '\0')),
                 "a trailing byte inside the body");
}

TEST(ModelArtifactHostile, RejectsAWrongMagicOrVersion) {
  const std::string builtin(BuiltinModelArtifact());
  std::string bad = builtin;
  bad[0] = 'X';
  ExpectRejected(bad, "magic");
  bad = builtin;
  bad[4] = 2;  // u16 version, little-endian
  ExpectRejected(bad, "version");
  std::string error;
  EXPECT_FALSE(DecodeModelArtifact(bad, TrainingConfig{}, &error));
  EXPECT_NE(error.find("version"), std::string::npos) << error;
}

TEST(ModelArtifactHostile, RejectsAHeaderForAnotherConfiguration) {
  const std::string_view builtin = BuiltinModelArtifact();
  for (const std::size_t regions : {1, 280, 282}) {
    TrainingConfig other;
    other.num_regions = regions;
    ExpectRejected(builtin, std::to_string(regions) + " regions", other);
  }
  TrainingConfig reseeded;
  reseeded.seed += 1;
  ExpectRejected(builtin, "another training seed", reseeded);
  std::string error;
  TrainingConfig small;
  small.num_regions = 8;
  EXPECT_FALSE(DecodeModelArtifact(builtin, small, &error));
  EXPECT_NE(error.find("not the requested"), std::string::npos) << error;
}

}  // namespace
}  // namespace merch::service
