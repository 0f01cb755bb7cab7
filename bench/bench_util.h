// Shared infrastructure for the table/figure reproduction binaries.
//
// Every bench binary reproduces one table or figure of the paper at the
// paper's scale (Table 2 footprints, 192 GB DRAM / 1.5 TB PM machine) and
// prints the measured rows next to the paper's reported values where the
// paper gives them. Results are deterministic (fixed seeds).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "apps/registry.h"
#include "core/merchandiser.h"
#include "sim/engine.h"

namespace merch::bench {

/// Summary of N repeats of one timed measurement (--repeat N in the speed
/// benches). The min is the tracked number — least scheduling noise on a
/// deterministic workload; the median is reported alongside as a sanity
/// check on run-to-run spread.
struct RepeatTiming {
  double min_seconds = 0;
  double median_seconds = 0;
  int repeats = 0;
};

/// Call `sample` `repeats` times (clamped to >= 1); each call returns one
/// wall-clock sample in seconds.
RepeatTiming MeasureRepeated(int repeats,
                             const std::function<double()>& sample);

/// The evaluation machine (paper Section 7).
sim::MachineSpec PaperMachine();

/// Simulation knobs used by every paper-scale run.
sim::SimConfig PaperSimConfig();

/// The correlation-function system at the paper's training scale (281
/// code regions x 10 placements), decoded once per process from the
/// built-in model artifact (service::ObtainSystem), which
/// tests/model_artifact_test.cc pins bit-identical to that training.
const core::MerchandiserSystem& TrainedSystem();

/// Cached application bundles at paper scale.
const apps::AppBundle& Bundle(const std::string& name);

/// Policy names used across benches.
inline constexpr const char* kPmOnly = "PM-only";
inline constexpr const char* kMemoryMode = "MemoryMode";
inline constexpr const char* kMemoryOptimizer = "MemoryOptimizer";
inline constexpr const char* kMerchandiser = "Merchandiser";

/// Run one application under one policy; results cached per process so
/// figure benches sharing runs don't recompute.
const sim::SimResult& Run(const std::string& app, const std::string& policy);

}  // namespace merch::bench
