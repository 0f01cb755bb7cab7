// The correlation function f as a model artifact, and the one way the
// service and merchctl obtain f.
//
// The paper trains f once, offline, and deploys it ("the construction of
// f happens only once", Section 5.1). MCMF is the deployable form: a
// versioned binary encoding of a trained GBR f together with the
// configuration that trained it. The artifact for the default training
// configuration is checked in (builtin_correlation.mcmf, written by
// `merchctl train --out`) and compiled into merch_service, so a cold
// service, router shard or CLI run at the default budget decodes f in
// about a millisecond instead of training it for seconds. The decoded
// model is the trained one bit for bit: every prediction, specialization
// and importance matches (tests/model_artifact_test.cc retrains the
// default configuration and compares bytes).
//
// Layout (service/serialization.h encoding: little-endian, f64 carried
// bit-exact):
//
//   header  "MCMF", u16 version
//           training:    u64 num_regions, u64 placements_per_region,
//                        f64 seed_input_scale, u64 seed
//           correlation: str model_kind, u32 n + n x u32 event,
//                        f64 train_fraction, u64 seed
//           GBR:         u64 num_stages, f64 learning_rate,
//                        f64 subsample, u32 max_depth,
//                        u64 min_samples_leaf, u64 min_samples_split,
//                        u64 max_features
//           u32 num_features, f64 base_prediction, f64 test_r2,
//           u32 body_bytes (everything after this field)
//   body    u32 tree count (== num_stages), then per tree:
//           u32 node count, the nodes in DecisionTreeRegressor preorder
//           (u8 feature or 0xFF for a leaf, f64 threshold for a split
//           only, f64 value), then num_features x f64 raw importance.
//
// The preorder implies the child links, so every decoded tree is well
// formed. The decoder rejects, with a message, a bad magic or version, a
// header recording any configuration other than the requested one, a
// body of the wrong length, a tree count other than the stage count, a
// node count above 2^(max_depth+1)-1, a split feature >= num_features, a
// preorder deeper than max_depth or ending early or late, any non-finite
// threshold, value or importance, and trailing bytes. It never reads
// outside its input, never sizes an allocation from a count the
// remaining bytes cannot back, and never throws.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

#include "core/correlation.h"
#include "core/merchandiser.h"
#include "workloads/training.h"

namespace merch::service {

/// Serializes f, trained on `training` (whose `machine` is not recorded:
/// both callers train on the paper machine). Throws std::invalid_argument
/// unless f is a trained GBR correlation function.
std::string EncodeModelArtifact(const workloads::TrainingConfig& training,
                                const core::CorrelationFunction& f);

/// Decodes `bytes` as the f that MerchandiserSystem::Train(training)
/// builds: the header must record `training` with the default
/// correlation and GBR configuration. Returns nullopt with a message in
/// *error otherwise, or on any malformed input (see the file comment).
std::optional<core::CorrelationFunction> DecodeModelArtifact(
    std::string_view bytes, const workloads::TrainingConfig& training,
    std::string* error);

/// The checked-in artifact compiled into this binary (read-only storage;
/// nothing decodes it until the first default-budget request).
std::string_view BuiltinModelArtifact();

/// Whether ObtainSystem(train_regions) decodes the built-in artifact:
/// true when its header records the configuration MerchandiserSystem::
/// Train uses for that budget. Reads the header only. Throws
/// std::runtime_error if the built-in header does not decode.
bool UsesBuiltinModel(std::size_t train_regions);

/// f for a `train_regions` budget: the decoded built-in artifact when
/// UsesBuiltinModel(train_regions), else MerchandiserSystem::Train on the
/// default configuration with that many regions. Either way the answer is
/// the trained one bit for bit. Throws std::runtime_error when the
/// built-in artifact should apply but does not decode: a broken artifact
/// is an error, never a quiet retrain.
core::MerchandiserSystem ObtainSystem(std::size_t train_regions);

}  // namespace merch::service
