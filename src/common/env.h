// Environment-variable escape hatches shared by the perf-sensitive
// subsystems (engine, ml, core decision path).
//
// Every optimisation that replaces a legacy code path keeps a runtime
// toggle so benchmarks can reproduce the pre-optimisation cost profile
// without a rebuild: MERCH_SWEEP_INDEX / MERCH_ENGINE_MEMO / MERCH_SIMD
// (sim), MERCH_FLAT_FOREST / MERCH_SIMD (ml), MERCH_GREEDY_HEAP /
// MERCH_POLICY_MEMO (core).
#pragma once

namespace merch::common {

/// Boolean escape hatch: unset/empty keeps `fallback`; "0"/"off"/"false"
/// disables; anything else enables.
bool EnvToggle(const char* name, bool fallback);

}  // namespace merch::common
