#include "service/batch.h"

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace merch::service {

namespace {

/// strtod/strtoull skip leading space and take a sign; a strict number
/// starts with a digit, a '.', or a letter ("inf", "nan").
bool StartsUnsigned(const std::string& text) {
  return !text.empty() &&
         (std::isalnum(static_cast<unsigned char>(text[0])) != 0 ||
          text[0] == '.');
}

}  // namespace

bool ParseDouble(const std::string& text, double* out) {
  if (!StartsUnsigned(text)) return false;
  char* end = nullptr;
  errno = 0;
  *out = std::strtod(text.c_str(), &end);
  return errno == 0 && *end == '\0' && end != text.c_str();
}

bool ParseU64(const std::string& text, std::uint64_t* out) {
  if (text.empty() || std::isdigit(static_cast<unsigned char>(text[0])) == 0) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  *out = std::strtoull(text.c_str(), &end, 10);
  return errno == 0 && *end == '\0';
}

bool ParseU64Flag(const std::string& flag, const std::string& value,
                  std::uint64_t min, std::uint64_t max, std::uint64_t* out,
                  std::string* error) {
  if (ParseU64(value, out) && *out >= min && *out <= max) return true;
  *error = flag + " must be an integer in [" + std::to_string(min) + ", " +
           std::to_string(max) + "] (got '" + value + "')";
  return false;
}

bool ParseDoubleFlag(const std::string& flag, const std::string& value,
                     double* out, std::string* error) {
  if (ParseDouble(value, out)) return true;
  *error = flag + " must be a non-negative number (got '" + value + "')";
  return false;
}

ParseStatus ParseRequestLine(const std::string& line, PlacementRequest* out,
                             std::string* error) {
  std::istringstream in(line);
  std::string token;
  bool any = false;
  PlacementRequest req;
  while (in >> token) {
    if (token[0] == '#') break;  // trailing comment
    const auto eq = token.find('=');
    if (eq == std::string::npos || eq == 0) {
      *error = "expected key=value, got '" + token + "'";
      return ParseStatus::kError;
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    bool ok = true;
    if (key == "app") {
      req.app = value;
    } else if (key == "policy") {
      req.policy = value;
    } else if (key == "scale") {
      ok = ParseDouble(value, &req.scale);
    } else if (key == "work") {
      ok = ParseDouble(value, &req.work);
    } else if (key == "train_regions") {
      std::uint64_t v = 0;
      ok = ParseU64(value, &v);
      req.train_regions = static_cast<std::size_t>(v);
    } else if (key == "seed") {
      ok = ParseU64(value, &req.seed);
    } else {
      *error = "unknown key '" + key + "'";
      return ParseStatus::kError;
    }
    if (!ok) {
      *error = "bad value for '" + key + "': '" + value + "'";
      return ParseStatus::kError;
    }
    any = true;
  }
  if (!any) return ParseStatus::kSkip;
  *out = std::move(req);
  return ParseStatus::kRequest;
}

bool LoadRequestFile(const std::string& path,
                     std::vector<PlacementRequest>* out, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open request file '" + path + "'";
    return false;
  }
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    PlacementRequest req;
    std::string err;
    switch (ParseRequestLine(line, &req, &err)) {
      case ParseStatus::kSkip:
        break;
      case ParseStatus::kRequest:
        out->push_back(std::move(req));
        break;
      case ParseStatus::kError:
        *error = path + ":" + std::to_string(lineno) + ": " + err;
        return false;
    }
  }
  return true;
}

BatchReport RunBatch(PlacementService& service,
                     const std::vector<PlacementRequest>& requests) {
  BatchReport report;
  report.results.reserve(requests.size());
  report.cache_hits.reserve(requests.size());

  const auto start = std::chrono::steady_clock::now();
  const std::vector<PlacementService::Ticket> tickets =
      service.SubmitBatch(requests);
  for (const auto& t : tickets) {
    report.results.push_back(t.future.get());
    report.cache_hits.push_back(t.cache_hit);
  }
  const auto end = std::chrono::steady_clock::now();
  report.wall_seconds = std::chrono::duration<double>(end - start).count();
  if (report.wall_seconds > 0) {
    report.jobs_per_second =
        static_cast<double>(requests.size()) / report.wall_seconds;
  }
  return report;
}

}  // namespace merch::service
