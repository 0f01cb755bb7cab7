// Batch front-end helpers shared by `merchctl sweep` and `merchd`:
// parsing newline-delimited request files and numeric command-line flags,
// and draining a request list through a PlacementService with wall-clock
// accounting.
//
// Request-file grammar (one request per line):
//
//   app=SpGEMM policy=merch scale=0.1 work=0.5 train_regions=64 seed=7
//
// Tokens are space-separated key=value pairs in any order; omitted keys
// keep PlacementRequest defaults. Blank lines and lines starting with '#'
// are skipped.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "service/placement_service.h"
#include "service/request.h"

namespace merch::service {

/// Strict number parsing, shared by the request-file grammar and the
/// numeric flags of merchctl and merchd: `text` must be one number and
/// nothing else (no sign, no surrounding space, no trailing characters)
/// that strtod/strtoull convert without a range error. ParseDouble takes
/// strtod's spellings, "inf" and "nan" included; whether a value is
/// finite or in bounds is the caller's check (CanonicalizeRequest).
bool ParseDouble(const std::string& text, double* out);
bool ParseU64(const std::string& text, std::uint64_t* out);

/// Ceiling on every thread-count flag (`merchctl sweep --threads`,
/// `merchd --threads`): each unit starts one pool thread. A constant, not
/// a knob.
inline constexpr std::size_t kMaxThreads = 256;

/// The value of numeric command-line flag `flag`: false, with `*error`
/// naming the flag, the value and the accepted range, unless `value`
/// parses (ParseU64/ParseDouble) and, for integers, lies in [min, max].
bool ParseU64Flag(const std::string& flag, const std::string& value,
                  std::uint64_t min, std::uint64_t max, std::uint64_t* out,
                  std::string* error);
bool ParseDoubleFlag(const std::string& flag, const std::string& value,
                     double* out, std::string* error);

/// Parse one request line. Returns:
///   kRequest — `*out` holds the parsed request,
///   kSkip    — blank or comment line,
///   kError   — malformed; `*error` names the offending token.
enum class ParseStatus { kRequest, kSkip, kError };
ParseStatus ParseRequestLine(const std::string& line, PlacementRequest* out,
                             std::string* error);

/// Read a whole request file. Returns false (with `*error` set, naming the
/// line number) on the first malformed line or an unreadable file.
bool LoadRequestFile(const std::string& path,
                     std::vector<PlacementRequest>* out, std::string* error);

/// Outcome of pushing one batch through a service.
struct BatchReport {
  std::vector<PlacementResult> results;  // one per request, input order
  std::vector<bool> cache_hits;          // ticket-level: served from cache
  double wall_seconds = 0;
  double jobs_per_second = 0;            // requests / wall_seconds
};

/// Submit every request through PlacementService::SubmitBatch, wait for
/// all futures, measure wall-clock.
BatchReport RunBatch(PlacementService& service,
                     const std::vector<PlacementRequest>& requests);

}  // namespace merch::service
