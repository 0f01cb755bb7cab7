#include "service/model_artifact.h"

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <utility>
#include <vector>

#include "ml/gbr.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/serialization.h"
#include "sim/pmc.h"

namespace merch::service {

// Defined in the source generated from builtin_correlation.mcmf
// (src/service/CMakeLists.txt).
extern const unsigned char kBuiltinModelBytes[];
extern const std::size_t kBuiltinModelSize;

namespace {

constexpr char kMagic[4] = {'M', 'C', 'M', 'F'};
constexpr std::uint16_t kVersion = 1;
constexpr std::uint8_t kLeaf = 0xFF;
/// Deepest tree the format admits: its node bound 2^(d+1)-1 must fit a
/// child link (int32).
constexpr std::uint32_t kMaxDepth = 30;
constexpr std::size_t kMaxKindLength = 16;

/// How an artifact's f was trained: the header before the fitted state.
struct ModelConfig {
  workloads::TrainingConfig training;
  core::CorrelationFunction::Config correlation;
  ml::GbrConfig gbr;
};

/// What MerchandiserSystem::Train(training) uses: the default correlation
/// configuration (events resolved) and MakeRegressor("GBR")'s GbrConfig.
ModelConfig DefaultModelConfig(const workloads::TrainingConfig& training) {
  return {training, core::CorrelationFunction().config(), ml::GbrConfig{}};
}

struct Header {
  ModelConfig config;
  std::uint32_t num_features = 0;
  double base_prediction = 0;
  double test_r2 = 0;
  std::uint32_t body_bytes = 0;
};

void WriteHeader(const Header& h, WireWriter* w) {
  for (const char c : kMagic) w->U8(static_cast<std::uint8_t>(c));
  w->U16(kVersion);
  const workloads::TrainingConfig& t = h.config.training;
  w->U64(t.num_regions);
  w->U64(t.placements_per_region);
  w->F64(t.seed_input_scale);
  w->U64(t.seed);
  const core::CorrelationFunction::Config& c = h.config.correlation;
  w->Str(c.model_kind);
  w->U32(static_cast<std::uint32_t>(c.events.size()));
  for (const std::size_t e : c.events) w->U32(static_cast<std::uint32_t>(e));
  w->F64(c.train_fraction);
  w->U64(c.seed);
  const ml::GbrConfig& g = h.config.gbr;
  w->U64(g.num_stages);
  w->F64(g.learning_rate);
  w->F64(g.subsample);
  w->U32(static_cast<std::uint32_t>(g.tree.max_depth));
  w->U64(g.tree.min_samples_leaf);
  w->U64(g.tree.min_samples_split);
  w->U64(g.tree.max_features);
  w->U32(h.num_features);
  w->F64(h.base_prediction);
  w->F64(h.test_r2);
  w->U32(h.body_bytes);
}

/// Reads and validates the header; on success `r` is at the body.
bool ReadHeader(WireReader* r, Header* h, std::string* error) {
  std::uint8_t magic[4] = {};
  for (std::uint8_t& b : magic) r->U8(&b);
  std::uint16_t version = 0;
  r->U16(&version);
  if (!r->ok()) {
    *error = "truncated header";
    return false;
  }
  if (std::string_view(reinterpret_cast<const char*>(magic), 4) !=
      std::string_view(kMagic, 4)) {
    *error = "bad magic (not an MCMF model artifact)";
    return false;
  }
  if (version != kVersion) {
    *error = "unsupported version " + std::to_string(version) +
             " (this build reads version " + std::to_string(kVersion) + ")";
    return false;
  }
  workloads::TrainingConfig& t = h->config.training;
  std::uint64_t u64 = 0;
  r->U64(&u64);
  t.num_regions = u64;
  r->U64(&u64);
  t.placements_per_region = u64;
  r->F64(&t.seed_input_scale);
  r->U64(&t.seed);
  core::CorrelationFunction::Config& c = h->config.correlation;
  r->Str(&c.model_kind, kMaxKindLength);
  std::uint32_t num_events = 0;
  r->U32(&num_events);
  if (r->ok() && num_events > sim::kNumPmcEvents) {
    *error = std::to_string(num_events) + " events (at most " +
             std::to_string(sim::kNumPmcEvents) + " exist)";
    return false;
  }
  c.events.clear();
  for (std::uint32_t i = 0; i < num_events && r->ok(); ++i) {
    std::uint32_t e = 0;
    r->U32(&e);
    if (e >= sim::kNumPmcEvents) {
      *error = "event index " + std::to_string(e) + " out of range";
      return false;
    }
    c.events.push_back(e);
  }
  r->F64(&c.train_fraction);
  r->U64(&c.seed);
  ml::GbrConfig& g = h->config.gbr;
  r->U64(&u64);
  g.num_stages = u64;
  r->F64(&g.learning_rate);
  r->F64(&g.subsample);
  std::uint32_t depth = 0;
  r->U32(&depth);
  r->U64(&u64);
  g.tree.min_samples_leaf = u64;
  r->U64(&u64);
  g.tree.min_samples_split = u64;
  r->U64(&u64);
  g.tree.max_features = u64;
  r->U32(&h->num_features);
  r->F64(&h->base_prediction);
  r->F64(&h->test_r2);
  r->U32(&h->body_bytes);
  if (!r->ok()) {
    *error = "truncated header";
    return false;
  }
  if (depth > kMaxDepth) {
    *error = "max_depth " + std::to_string(depth) + " above " +
             std::to_string(kMaxDepth);
    return false;
  }
  g.tree.max_depth = static_cast<int>(depth);
  if (h->num_features != c.events.size() + 1) {
    *error = std::to_string(h->num_features) + " features for " +
             std::to_string(c.events.size()) + " events (want events + 1)";
    return false;
  }
  for (const double v : {t.seed_input_scale, c.train_fraction,
                         g.learning_rate, g.subsample, h->base_prediction,
                         h->test_r2}) {
    if (!std::isfinite(v)) {
      *error = "a header number is not finite";
      return false;
    }
  }
  return true;
}

std::string Describe(const ModelConfig& m) {
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "%llu regions x %llu placements, seed input scale %.9g, seed %llu; "
      "%s on %zu events, train fraction %.9g, seed %llu; %llu stages, "
      "learning rate %.9g, subsample %.9g, depth %d, leaf %zu, split %zu, "
      "max_features %zu",
      static_cast<unsigned long long>(m.training.num_regions),
      static_cast<unsigned long long>(m.training.placements_per_region),
      m.training.seed_input_scale,
      static_cast<unsigned long long>(m.training.seed),
      m.correlation.model_kind.c_str(), m.correlation.events.size(),
      m.correlation.train_fraction,
      static_cast<unsigned long long>(m.correlation.seed),
      static_cast<unsigned long long>(m.gbr.num_stages), m.gbr.learning_rate,
      m.gbr.subsample, m.gbr.tree.max_depth, m.gbr.tree.min_samples_leaf,
      m.gbr.tree.min_samples_split, m.gbr.tree.max_features);
  return buf;
}

/// Configurations compare by their header encoding (doubles bitwise;
/// Describe's rounding is for messages only).
std::string ConfigBytes(const ModelConfig& config) {
  WireWriter w;
  WriteHeader(Header{.config = config}, &w);
  return w.Take();
}

/// Whether `header` records the configuration Train(training) uses.
bool RecordsDefaultModel(const Header& header,
                         const workloads::TrainingConfig& training) {
  return ConfigBytes(header.config) ==
         ConfigBytes(DefaultModelConfig(training));
}

/// One tree of the body; `r` is past the tree count.
std::optional<ml::DecisionTreeRegressor> ReadTree(WireReader* r,
                                                  const Header& h,
                                                  std::string* error) {
  const std::uint64_t max_nodes =
      (std::uint64_t{2} << h.config.gbr.tree.max_depth) - 1;
  std::uint32_t count = 0;
  if (!r->U32(&count)) {
    *error = "truncated tree";
    return std::nullopt;
  }
  if (count == 0 || count > max_nodes) {
    *error = "node count " + std::to_string(count) + " outside [1, " +
             std::to_string(max_nodes) + "] for max_depth " +
             std::to_string(h.config.gbr.tree.max_depth);
    return std::nullopt;
  }
  // Every node takes at least its feature byte and value.
  if (count > r->remaining() / 9) {
    *error = "node count " + std::to_string(count) + " cannot fit in " +
             std::to_string(r->remaining()) + " remaining bytes";
    return std::nullopt;
  }
  std::vector<ml::DecisionTreeRegressor::Node> nodes(count);
  for (ml::DecisionTreeRegressor::Node& node : nodes) {
    std::uint8_t feature = kLeaf;
    r->U8(&feature);
    if (feature != kLeaf) {
      node.feature = feature;
      r->F64(&node.threshold);
    }
    r->F64(&node.value);
  }
  std::vector<double> importance(h.num_features);
  for (double& v : importance) r->F64(&v);
  if (!r->ok()) {
    *error = "truncated tree";
    return std::nullopt;
  }
  return ml::DecisionTreeRegressor::FromPreorder(
      h.config.gbr.tree, h.num_features, std::move(nodes),
      std::move(importance), error);
}

std::runtime_error BuiltinError(const std::string& error) {
  return std::runtime_error("built-in correlation function: " + error);
}

}  // namespace

std::string EncodeModelArtifact(const workloads::TrainingConfig& training,
                                const core::CorrelationFunction& f) {
  const auto* gbr =
      dynamic_cast<const ml::GradientBoostedRegressor*>(f.model());
  if (gbr == nullptr) {
    throw std::invalid_argument(
        "only a trained GBR correlation function has a model artifact");
  }
  Header h;
  h.config = {training, f.config(), gbr->config()};
  h.num_features = static_cast<std::uint32_t>(f.events().size() + 1);
  h.base_prediction = gbr->base_prediction();
  h.test_r2 = f.test_r2();

  WireWriter body;
  body.U32(static_cast<std::uint32_t>(gbr->stages().size()));
  for (const ml::DecisionTreeRegressor& tree : gbr->stages()) {
    body.U32(static_cast<std::uint32_t>(tree.nodes().size()));
    for (const ml::DecisionTreeRegressor::Node& node : tree.nodes()) {
      if (node.feature == static_cast<std::size_t>(-1)) {
        body.U8(kLeaf);
      } else {
        body.U8(static_cast<std::uint8_t>(node.feature));
        body.F64(node.threshold);
      }
      body.F64(node.value);
    }
    for (const double v : tree.raw_importance()) body.F64(v);
  }
  h.body_bytes = static_cast<std::uint32_t>(body.size());

  WireWriter w;
  WriteHeader(h, &w);
  return w.Take() + body.bytes();
}

std::optional<core::CorrelationFunction> DecodeModelArtifact(
    std::string_view bytes, const workloads::TrainingConfig& training,
    std::string* error) {
  WireReader r(bytes.data(), bytes.size());
  Header h;
  if (!ReadHeader(&r, &h, error)) return std::nullopt;
  // Checked before anything else in the body is read, so every truncation
  // fails here.
  if (h.body_bytes != r.remaining()) {
    *error = "body is " + std::to_string(r.remaining()) +
             " bytes, header says " + std::to_string(h.body_bytes);
    return std::nullopt;
  }
  if (!RecordsDefaultModel(h, training)) {
    *error = "artifact was trained on {" + Describe(h.config) +
             "}, not the requested {" +
             Describe(DefaultModelConfig(training)) + "}";
    return std::nullopt;
  }
  std::uint32_t trees = 0;
  r.U32(&trees);
  if (!r.ok() || trees != h.config.gbr.num_stages) {
    *error = "tree count " + std::to_string(trees) +
             " is not the stage count " +
             std::to_string(h.config.gbr.num_stages);
    return std::nullopt;
  }
  std::vector<ml::DecisionTreeRegressor> stages;
  // A tree takes at least its count, one node and its importances.
  const std::size_t min_tree = 4 + 9 + 8 * std::size_t{h.num_features};
  if (trees > r.remaining() / min_tree) {
    *error = std::to_string(trees) + " trees cannot fit in " +
             std::to_string(r.remaining()) + " bytes";
    return std::nullopt;
  }
  stages.reserve(trees);
  for (std::uint32_t t = 0; t < trees; ++t) {
    std::string tree_error;
    std::optional<ml::DecisionTreeRegressor> tree =
        ReadTree(&r, h, &tree_error);
    if (!tree) {
      *error = "tree " + std::to_string(t) + ": " + tree_error;
      return std::nullopt;
    }
    stages.push_back(*std::move(tree));
  }
  if (r.remaining() != 0) {
    *error = std::to_string(r.remaining()) + " trailing bytes";
    return std::nullopt;
  }
  return core::CorrelationFunction(
      h.config.correlation,
      ml::GradientBoostedRegressor::FromStages(
          h.config.gbr, h.base_prediction, std::move(stages)),
      h.test_r2);
}

std::string_view BuiltinModelArtifact() {
  return {reinterpret_cast<const char*>(kBuiltinModelBytes),
          kBuiltinModelSize};
}

bool UsesBuiltinModel(std::size_t train_regions) {
  const std::string_view bytes = BuiltinModelArtifact();
  WireReader r(bytes.data(), bytes.size());
  Header h;
  std::string error;
  if (!ReadHeader(&r, &h, &error)) throw BuiltinError(error);
  workloads::TrainingConfig training;
  training.num_regions = train_regions;
  return RecordsDefaultModel(h, training);
}

core::MerchandiserSystem ObtainSystem(std::size_t train_regions) {
  workloads::TrainingConfig training;
  training.num_regions = train_regions;
  if (UsesBuiltinModel(train_regions)) {
    MERCH_TRACE_SPAN(obs::Category::kService, "service.model_decode");
    std::string error;
    std::optional<core::CorrelationFunction> f =
        DecodeModelArtifact(BuiltinModelArtifact(), training, &error);
    if (!f) throw BuiltinError(error);
    MERCH_METRIC_COUNT("merch_service_builtin_model_decodes_total", 1);
    return core::MerchandiserSystem(*std::move(f));
  }
  const auto t0 = std::chrono::steady_clock::now();
  core::MerchandiserSystem system = core::MerchandiserSystem::Train(training);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  MERCH_METRIC_COUNT("merch_service_trainings_total", 1);
  MERCH_METRIC_OBSERVE("merch_service_train_seconds", seconds);
  return system;
}

}  // namespace merch::service
