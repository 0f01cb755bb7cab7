#include "service/request.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>

#include "apps/registry.h"

namespace merch::service {

namespace {

std::string Lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

std::string Join(const std::vector<std::string>& names) {
  std::string out;
  for (const auto& n : names) {
    if (!out.empty()) out += ", ";
    out += n;
  }
  return out;
}

}  // namespace

const std::vector<std::string>& PolicyNames() {
  static const std::vector<std::string> kNames = {"pm",    "mm",     "mo",
                                                  "merch", "sparta", "warpx-pm"};
  return kNames;
}

std::string CanonicalizeRequest(PlacementRequest& req) {
  const std::string app_lower = Lower(req.app);
  bool app_ok = false;
  for (const auto& name : apps::AppNames()) {
    if (Lower(name) == app_lower) {
      req.app = name;
      app_ok = true;
      break;
    }
  }
  if (!app_ok) {
    return "unknown application '" + req.app +
           "' (valid: " + Join(apps::AppNames()) + ")";
  }
  req.policy = Lower(req.policy);
  if (std::find(PolicyNames().begin(), PolicyNames().end(), req.policy) ==
      PolicyNames().end()) {
    return "unknown policy '" + req.policy +
           "' (valid: " + Join(PolicyNames()) + ")";
  }
  // An infinite scale or work never finishes (and an infinite scale
  // overflows RequestMachine's capacity cast); `> 0` alone lets both in.
  if (!(std::isfinite(req.scale) && req.scale > 0)) {
    return "scale must be finite and > 0";
  }
  if (req.scale > kMaxScale) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "scale must be at most %g (got %.9g)",
                  kMaxScale, req.scale);
    return buf;
  }
  if (!(std::isfinite(req.work) && req.work > 0)) {
    return "work must be finite and > 0";
  }
  if (req.work > kMaxWork) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "work must be at most %g (got %.9g)",
                  kMaxWork, req.work);
    return buf;
  }
  if (req.policy != "merch") {
    req.train_regions = 0;  // training budget is meaningless: one cache slot
  } else if (req.train_regions == 0 || req.train_regions > kMaxTrainRegions) {
    return "train_regions must be in [1, " + std::to_string(kMaxTrainRegions) +
           "] for policy 'merch' (got " + std::to_string(req.train_regions) +
           ")";
  }
  return {};
}

std::string CanonicalKey(const PlacementRequest& req) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "%s|%s|%.17g|%.17g|%zu|%llu",
                req.app.c_str(), req.policy.c_str(), req.scale, req.work,
                req.train_regions,
                static_cast<unsigned long long>(req.seed));
  return buf;
}

}  // namespace merch::service
