// Load-balance-aware DRAM allocation — the paper's Algorithm 1.
//
// Greedy heuristic for the (NP-hard, knapsack-shaped) problem of deciding
// how many of each task's memory accesses should be served from DRAM:
// repeatedly take the task with the longest *predicted* execution time and
// grow its DRAM-access share in 5% steps until it is predicted to dip
// below the second-longest task, tracking the page budget implied by the
// even-distribution assumption (5% more DRAM accesses => 5% more DRAM
// pages), until DRAM capacity is exhausted.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/perf_model.h"
#include "sim/pmc.h"

namespace merch::core {

struct GreedyTaskInput {
  TaskId task = kInvalidTask;
  /// D_i: predicted PM-only execution time of the instance.
  double t_pm_only = 0;
  /// Predicted DRAM-only execution time (the model's other bound).
  double t_dram_only = 0;
  /// PCs_i: hardware events from the base instance.
  sim::EventVector pmcs{};
  /// Total_Acc_i: estimated main-memory accesses with the new input.
  double total_accesses = 0;
  /// Task footprint in pages (MAP_TO_PAGES basis).
  std::uint64_t footprint_pages = 0;
  /// Optional page-cost curve: sorted breakpoints (access_fraction ->
  /// pages) describing how many DRAM pages serving a given share of the
  /// task's accesses costs when pages are chosen densest-object /
  /// hottest-page first. Empty = the paper's even-distribution assumption
  /// (pages = r * footprint_pages). The runtime builds the curve from its
  /// Eq. 1 estimates so Algorithm 1's capacity accounting matches what its
  /// migration step will actually spend.
  std::vector<std::pair<double, double>> pages_for_access_fraction;
};

struct GreedyResult {
  /// r_i: DRAM-access share granted to each task (input order).
  std::vector<double> dram_fraction;
  /// Page budget per task implied by r_i (even-distribution assumption).
  std::vector<std::uint64_t> dram_pages;
  /// Predicted execution time per task after allocation.
  std::vector<double> predicted_seconds;
  int rounds = 0;
};

struct GreedyConfig {
  /// Algorithm 1, line 14: per-iteration DRAM-access increment.
  double step = 0.05;
  /// Safety valve on outer rounds (the algorithm terminates on capacity or
  /// saturation; this guards degenerate inputs).
  int max_rounds = 10000;
};

/// Algorithm 1, incrementally: a lazy-deletion max-heap over predicted task
/// times finds the longest task each round, and each probe is one scalar
/// PerformanceModel::PredictHybrid call on the task's own inputs.
/// Bit-identical to a per-round full rescan (same totally-ordered
/// tie-breaks, same Eq. 2 operation sequence; see greedy.cc).
GreedyResult RunGreedyAllocation(std::span<const GreedyTaskInput> tasks,
                                 std::uint64_t dram_capacity_pages,
                                 const PerformanceModel& model,
                                 GreedyConfig config = {});

}  // namespace merch::core
