// merchctl — command-line driver for the Merchandiser simulator.
//
// Runs any bundled application under any placement policy at a chosen
// scale and prints makespan, per-task balance, and bandwidth statistics;
// `sweep` answers whole app x policy x scale grids through the concurrent
// placement service.
//
//   merchctl list
//   merchctl run --app SpGEMM [--policy all|pm|mm|mo|merch|sparta|warpx-pm]
//                [--scale 1.0] [--work 1.0] [--train-regions 281]
//                [--tasks]      # per-task execution times
//                [--bandwidth]  # bandwidth timeline summary
//   merchctl train --out FILE [--train-regions 281]
//                # f as a model artifact (service/model_artifact.h)
//   merchctl sweep [--apps all|A,B,...] [--policies all|p,q,...]
//                  [--scales 1.0,0.5,...] [--work W] [--train-regions N]
//                  [--seed S] [--threads T] [--cache N] [--repeat R]
//                  [--file requests.txt] [--placements]
//   merchctl analyze <file.kir> [--json]
//   merchctl analyze <file.kir> --dag [--json|--dot]
//   merchctl remote --port P [--host H] [--app A] [--policy p] [--scale S]
//                   [--file requests.txt] [--deadline-ms D] [--placements]
//                   [--ping]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "analysis/depgraph.h"
#include "analysis/lint.h"
#include "analysis/parser.h"
#include "analysis/passes.h"
#include "analysis/report.h"
#include "analysis/summaries.h"
#include "apps/registry.h"
#include "common/log.h"
#include "common/stats.h"
#include "net/client.h"
#include "net/frame.h"
#include "common/table.h"
#include "core/merchandiser.h"
#include "obs/distributed/context.h"
#include "obs/distributed/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/batch.h"
#include "service/model_artifact.h"
#include "service/placement_service.h"
#include "sim/engine.h"

namespace {

using namespace merch;

/// Peer clocks measured by `remote` (via ping round trips), attached to
/// the trace export so tools/trace_merge can align the server's timeline
/// with ours.
std::vector<obs::PeerClock> g_peer_clocks;

struct Options {
  std::string command;
  std::string app = "SpGEMM";
  std::string policy = "all";
  double scale = 1.0;
  double work = 1.0;
  std::size_t train_regions = 281;
  std::uint64_t seed = 42;
  bool show_tasks = false;
  bool show_bandwidth = false;
  // sweep-only
  std::string apps = "all";
  std::string policies = "pm,mm,mo,merch";
  std::string scales;
  std::string file;
  std::size_t threads = 1;
  std::size_t cache = 128;
  std::size_t repeat = 1;
  bool show_placements = false;
  // train-only
  std::string out;
  // analyze-only
  std::string kir_file;
  bool json = false;
  bool dag = false;
  bool dot = false;
  // remote-only
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::uint32_t deadline_ms = 0;  // 0 = server default
  bool ping = false;
  // observability
  std::string trace_file;
  std::string metrics_file;
};

int Usage() {
  std::fprintf(stderr,
               "usage: merchctl list\n"
               "       merchctl run --app <name> [--policy all|pm|mm|mo|"
               "merch|sparta|warpx-pm]\n"
               "                    [--scale S] [--work W] "
               "[--train-regions N] [--seed N] [--tasks] [--bandwidth]\n"
               "       merchctl sweep [--apps all|A,B,...] "
               "[--policies all|p,q,...] [--scales S1,S2,...]\n"
               "                      [--work W] [--train-regions N] "
               "[--seed N] [--threads T]\n"
               "                      [--cache N] [--repeat R] "
               "[--file requests.txt] [--placements]\n"
               "       merchctl train --out FILE [--train-regions N]\n"
               "       merchctl analyze <file.kir> [--json]\n"
               "       merchctl analyze <file.kir> --dag [--json|--dot]\n"
               "       merchctl remote --port P [--host H] [--app A] "
               "[--policy p] [--scale S]\n"
               "                       [--work W] [--train-regions N] "
               "[--seed N] [--file requests.txt]\n"
               "                       [--deadline-ms D] [--placements] "
               "[--ping]\n"
               "common: [--trace FILE.json] [--metrics FILE.prom]\n"
               "        [--log-level debug|info|warn|error]\n");
  return 2;
}

/// Parse a --log-level value; unknown values are a usage error (exit 2).
bool ParseLogLevel(const char* value, LogLevel* out) {
  const std::string v = value;
  if (v == "debug") *out = LogLevel::kDebug;
  else if (v == "info") *out = LogLevel::kInfo;
  else if (v == "warn") *out = LogLevel::kWarn;
  else if (v == "error") *out = LogLevel::kError;
  else return false;
  return true;
}

std::vector<std::string> SplitCsv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::string item = csv.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

/// Canonicalize (app, policy, ...) through the service's validator;
/// prints the error and returns false on a bad field.
bool ValidateRequest(service::PlacementRequest& req) {
  if (const std::string err = service::CanonicalizeRequest(req);
      !err.empty()) {
    std::fprintf(stderr, "merchctl: %s\n", err.c_str());
    return false;
  }
  return true;
}

void Report(const Options& opt, const sim::SimResult& r, double pm_baseline) {
  std::printf("%-16s makespan %9.2fs  speedup %5.3fx  task-CoV %.3f  "
              "migrated %s\n",
              r.policy.c_str(), r.total_seconds,
              pm_baseline > 0 ? pm_baseline / r.total_seconds : 1.0,
              r.AverageCoV(),
              FormatBytes(r.migration.bytes_to_dram + r.migration.bytes_to_pm)
                  .c_str());
  if (opt.show_tasks) {
    for (std::size_t ri = 0; ri < r.regions.size(); ++ri) {
      std::printf("  instance %zu (%.2fs):", ri, r.regions[ri].duration);
      for (const auto& ts : r.regions[ri].tasks) {
        std::printf(" %.2f", ts.exec_seconds);
      }
      std::printf("\n");
    }
  }
  if (opt.show_bandwidth) {
    std::vector<double> dram, pm;
    for (const auto& s : r.bandwidth) {
      dram.push_back(s.dram_gbps);
      pm.push_back(s.pm_gbps);
    }
    std::printf("  bandwidth: DRAM avg %.2f / max %.2f GB/s,  PM avg %.2f "
                "/ max %.2f GB/s\n",
                Mean(dram), Max(dram), Mean(pm), Max(pm));
  }
}

int RunCommand(const Options& opt) {
  // `all` runs merch too, so it validates as merch, training budget
  // included, before anything is built or trained.
  service::PlacementRequest proto{opt.app,  opt.policy == "all" ? "merch"
                                                                : opt.policy,
                                  opt.scale, opt.work, opt.train_regions,
                                  opt.seed};
  if (!ValidateRequest(proto)) return 2;

  // The service's preparation (app build, analysis gate, machine) and
  // Simulate, whose full SimResult --tasks and --bandwidth print from.
  const service::PlacementService::PreparedApp prepared =
      service::PlacementService::PrepareApp(proto);
  if (!prepared.error.empty()) {
    std::fprintf(stderr, "merchctl: %s\n", prepared.error.c_str());
    return 1;
  }
  const apps::AppBundle& bundle = prepared.bundle;

  // f as the service obtains it: the built-in artifact at the default
  // budget, a fresh training otherwise.
  std::unique_ptr<core::MerchandiserSystem> system;
  if (proto.policy == "merch") {
    try {
      const bool builtin = service::UsesBuiltinModel(opt.train_regions);
      if (!builtin) {
        std::fprintf(stderr,
                     "training correlation function (%zu regions)...\n",
                     opt.train_regions);
      }
      system = std::make_unique<core::MerchandiserSystem>(
          service::ObtainSystem(opt.train_regions));
      if (builtin) {
        std::fprintf(stderr,
                     "correlation function: built-in (%zu regions, test "
                     "R² %.4f)\n",
                     opt.train_regions, system->correlation().test_r2());
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "merchctl: %s\n", e.what());
      return 1;
    }
  }

  std::printf("%s @ footprint scale %.3g (%s), work scale %.3g\n",
              proto.app.c_str(), opt.scale,
              FormatBytes(bundle.workload.TotalBytes()).c_str(), opt.work);
  // `all` runs pm first, for the speedup baseline. Policies this app does
  // not define are skipped, not errors.
  std::vector<std::string> policies = {proto.policy};
  if (opt.policy == "all") {
    policies = {"pm", "mm", "mo", "merch"};
    if (!bundle.sparta_priority.empty()) policies.push_back("sparta");
    if (!bundle.lifetime_priority.empty()) policies.push_back("warpx-pm");
  }
  double pm_baseline = 0;
  for (const std::string& policy : policies) {
    service::PlacementRequest req = proto;
    req.policy = policy;
    const service::PlacementService::Simulation run =
        service::PlacementService::Simulate(prepared, req, system.get());
    if (!run.error.empty()) {
      std::fprintf(stderr, "merchctl: %s\n", run.error.c_str());
      return 1;
    }
    if (policy == "pm") pm_baseline = run.result.total_seconds;
    Report(opt, run.result, pm_baseline);
  }
  return 0;
}

/// Train f on the default configuration with --train-regions regions and
/// write it as a model artifact. At the default budget this regenerates
/// the built-in one: `merchctl train --out
/// src/service/builtin_correlation.mcmf`. Exit 2 on bad arguments, 1 when
/// FILE cannot be written.
int TrainCommand(const Options& opt) {
  if (opt.out.empty()) {
    std::fprintf(stderr, "merchctl: train needs --out FILE\n");
    return Usage();
  }
  using Clock = std::chrono::steady_clock;
  const auto seconds = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  };
  workloads::TrainingConfig training;
  training.num_regions = opt.train_regions;
  const Clock::time_point t0 = Clock::now();
  const std::vector<workloads::TrainingSample> samples =
      workloads::GenerateTrainingSamples(training);
  const Clock::time_point t1 = Clock::now();
  core::CorrelationFunction f;
  f.Train(samples);
  const Clock::time_point t2 = Clock::now();
  std::printf("trained f on %zu regions: %zu samples in %.2fs, fit in %.2fs, "
              "test R² %.4f\n",
              opt.train_regions, samples.size(), seconds(t0, t1),
              seconds(t1, t2), f.test_r2());

  const std::string bytes = service::EncodeModelArtifact(training, f);
  std::FILE* file = std::fopen(opt.out.c_str(), "wb");
  bool written = file != nullptr &&
                 std::fwrite(bytes.data(), 1, bytes.size(), file) ==
                     bytes.size();
  if (file != nullptr && std::fclose(file) != 0) written = false;
  if (!written) {
    std::fprintf(stderr, "merchctl: cannot write model artifact '%s'\n",
                 opt.out.c_str());
    return 1;
  }
  std::printf("wrote %zu bytes to %s\n", bytes.size(), opt.out.c_str());
  return 0;
}

int SweepCommand(const Options& opt) {
  std::vector<service::PlacementRequest> requests;
  if (!opt.file.empty()) {
    std::string err;
    if (!service::LoadRequestFile(opt.file, &requests, &err)) {
      std::fprintf(stderr, "merchctl: %s\n", err.c_str());
      return 2;
    }
  } else {
    const std::vector<std::string> app_list =
        opt.apps == "all" ? apps::AppNames() : SplitCsv(opt.apps);
    const std::vector<std::string> policy_list =
        opt.policies == "all" ? std::vector<std::string>{"pm", "mm", "mo",
                                                         "merch"}
                              : SplitCsv(opt.policies);
    // A lone --scale is already parsed; only --scales needs parsing here.
    std::vector<double> scales;
    if (opt.scales.empty()) {
      scales.push_back(opt.scale);
    } else {
      for (const auto& scale : SplitCsv(opt.scales)) {
        double value = 0;
        std::string err;
        if (!service::ParseDoubleFlag("--scales", scale, &value, &err)) {
          std::fprintf(stderr, "merchctl: %s\n", err.c_str());
          return 2;
        }
        scales.push_back(value);
      }
    }
    for (const auto& app : app_list) {
      for (const auto& policy : policy_list) {
        for (const double scale : scales) {
          requests.push_back({app, policy, scale, opt.work, opt.train_regions,
                              opt.seed});
        }
      }
    }
  }
  if (requests.empty()) {
    std::fprintf(stderr, "merchctl: sweep has no requests\n");
    return 2;
  }
  // Reject bad fields up front — one typo should not cost a half-run sweep.
  for (auto& req : requests) {
    if (!ValidateRequest(req)) return 2;
  }

  service::PlacementService svc(
      {.threads = opt.threads, .cache_capacity = opt.cache});
  int failures = 0;
  for (std::size_t pass = 0; pass < opt.repeat; ++pass) {
    const service::BatchReport report = service::RunBatch(svc, requests);
    if (pass == 0) {
      for (std::size_t i = 0; i < report.results.size(); ++i) {
        const auto& r = report.results[i];
        if (!r.ok()) {
          ++failures;
          std::printf("%-10s %-9s scale %-7.9g ERROR: %s\n",
                      r.request.app.c_str(), r.request.policy.c_str(),
                      r.request.scale, r.error.c_str());
          continue;
        }
        std::printf("%-10s %-9s scale %-7.9g makespan %9.2fs  task-CoV %.3f"
                    "  migrated %-10s%s\n",
                    r.request.app.c_str(), r.request.policy.c_str(),
                    r.request.scale, r.makespan_seconds, r.task_cov,
                    FormatBytes(r.migrated_bytes).c_str(),
                    report.cache_hits[i] ? "  [cached]" : "");
        if (opt.show_placements) {
          for (const auto& p : r.placements) {
            std::printf("    %-24s %-10s DRAM %.0f%%\n", p.object.c_str(),
                        FormatBytes(p.bytes).c_str(),
                        100.0 * p.dram_fraction);
          }
        }
      }
    }
    std::printf("pass %zu: %zu requests in %.2fs  (%.2f jobs/s)\n", pass + 1,
                requests.size(), report.wall_seconds,
                report.jobs_per_second);
  }
  const service::ServiceStats stats = svc.Stats();
  std::printf("service: threads %zu  simulated %llu  coalesced %llu  "
              "app builds %llu  cache hits %llu / misses %llu / evictions "
              "%llu\n",
              stats.threads,
              static_cast<unsigned long long>(stats.simulated),
              static_cast<unsigned long long>(stats.coalesced),
              static_cast<unsigned long long>(stats.app_builds),
              static_cast<unsigned long long>(stats.cache.hits),
              static_cast<unsigned long long>(stats.cache.misses),
              static_cast<unsigned long long>(stats.cache.evictions));
  return failures == 0 ? 0 : 1;
}

/// Static analysis of a textual kernel IR: parse, derive per-object
/// pattern/alpha/footprint, lint against the declared registrations.
/// `--dag` adds whole-program dependence analysis: per-task access
/// summaries, inferred RAW/WAR/WAW edges vs the declared `after` order,
/// race / over-synchronization / placement-interference findings, and the
/// graph itself as text, JSON, or Graphviz DOT.
/// Exit codes: 0 clean, 1 error-severity findings, 2 parse failure.
int AnalyzeCommand(const Options& opt) {
  if (opt.kir_file.empty()) {
    std::fprintf(stderr, "merchctl: analyze needs a .kir file\n");
    return Usage();
  }
  const analysis::ParseResult parsed = analysis::ParseKirFile(opt.kir_file);
  if (!parsed.ok()) {
    for (const analysis::ParseError& err : parsed.errors) {
      std::fprintf(stderr, "%s\n",
                   analysis::FormatParseError(opt.kir_file, err).c_str());
    }
    return 2;
  }
  const analysis::ModuleAnalysis result = analysis::Analyze(parsed.module);
  std::vector<analysis::Finding> findings =
      analysis::Lint(parsed.module, result);
  std::string report;
  if (opt.dag) {
    const analysis::TaskGraph graph = analysis::BuildTaskGraph(
        parsed.module, analysis::Summarize(parsed.module));
    std::vector<analysis::Finding> dep = analysis::LintDependences(
        parsed.module, graph, hm::HmSpec::PaperOptane());
    if (opt.dot) {
      report = analysis::DagDotReport(parsed.module, graph);
    } else if (opt.json) {
      report = analysis::DagJsonReport(opt.kir_file, parsed.module, graph,
                                       dep);
    } else {
      report = analysis::DagTextReport(opt.kir_file, parsed.module, graph,
                                       dep);
    }
    // Dependence errors gate the exit code together with the lint's.
    findings.insert(findings.end(), dep.begin(), dep.end());
  } else {
    report = opt.json ? analysis::JsonReport(opt.kir_file, parsed.module,
                                             result, findings)
                      : analysis::TextReport(opt.kir_file, parsed.module,
                                             result, findings);
  }
  std::fputs(report.c_str(), stdout);
  return analysis::HasErrors(findings) ? 1 : 0;
}

/// Answer requests through a remote merchd (server or router) over the
/// binary wire protocol. Output mirrors `sweep` so the two are diffable.
int RemoteCommand(const Options& opt) {
  if (opt.port == 0) {
    std::fprintf(stderr, "merchctl: remote needs --port\n");
    return 2;
  }
  net::Client client;
  std::string err;
  if (!client.Connect(opt.host, opt.port, &err)) {
    std::fprintf(stderr, "merchctl: %s\n", err.c_str());
    return 1;
  }
  if (opt.ping) {
    net::PongPayload pong;
    if (client.Ping(&err, &pong) != net::Client::Status::kOk) {
      std::fprintf(stderr, "merchctl: ping failed: %s\n", err.c_str());
      return 1;
    }
    if (pong.pid != 0) {
      std::printf("pong from %s:%u (%s, pid %llu)\n", opt.host.c_str(),
                  static_cast<unsigned>(opt.port), pong.process_name.c_str(),
                  static_cast<unsigned long long>(pong.pid));
    } else {
      std::printf("pong from %s:%u\n", opt.host.c_str(),
                  static_cast<unsigned>(opt.port));
    }
    return 0;
  }

  // Under --trace, measure the server's trace-clock offset first (so
  // trace_merge can put both timelines on one axis), then give every
  // request its own trace context: the server and its workers attach
  // their spans to the id we send.
  obs::TraceRecorder& rec = obs::TraceRecorder::Instance();
  if (rec.enabled()) {
    obs::PeerClock peer;
    if (EstimatePeerClock(client, 8, &peer, &err)) {
      g_peer_clocks.push_back(peer);
    } else {
      std::fprintf(stderr,
                   "merchctl: warning: clock sync failed (%s); the merged "
                   "trace will not be time-aligned\n",
                   err.c_str());
    }
  }

  std::vector<service::PlacementRequest> requests;
  if (!opt.file.empty()) {
    if (!service::LoadRequestFile(opt.file, &requests, &err)) {
      std::fprintf(stderr, "merchctl: %s\n", err.c_str());
      return 2;
    }
  } else {
    requests.push_back({opt.app, opt.policy == "all" ? "pm" : opt.policy,
                        opt.scale, opt.work, opt.train_regions, opt.seed});
  }
  if (requests.empty()) {
    std::fprintf(stderr, "merchctl: remote has no requests\n");
    return 2;
  }
  // Validate locally before paying a round trip — the server would reject
  // these with the same message anyway.
  for (auto& req : requests) {
    if (!ValidateRequest(req)) return 2;
  }

  int failures = 0;
  for (const auto& req : requests) {
    service::PlacementResult result;
    net::ErrorCode code;
    // One trace per request: a fresh root context rides to the server in
    // the v2 payload, and the local "remote.call" span anchors the
    // client's side of the timeline.
    obs::TraceContext ctx;
    std::uint64_t call_t0 = 0;
    if (rec.enabled()) {
      ctx.trace_id = obs::NewTraceId();
      ctx.parent_span_id = obs::NewSpanId();
      call_t0 = rec.NowNs();
    }
    obs::TraceContextScope scope(ctx);
    const net::Client::Status status =
        client.Call(req, opt.deadline_ms, &result, &code, &err);
    if (ctx.valid() && rec.enabled()) {
      const std::uint64_t now = rec.NowNs();
      rec.RecordSpan(obs::Category::kNet, "remote.call", call_t0,
                     now > call_t0 ? now - call_t0 : 0, "ok",
                     status == net::Client::Status::kOk ? 1 : 0);
    }
    if (status == net::Client::Status::kTransportError) {
      std::fprintf(stderr, "merchctl: %s\n", err.c_str());
      return 1;
    }
    if (status == net::Client::Status::kRemoteError) {
      ++failures;
      std::printf("%-10s %-9s scale %-7.9g %s: %s\n", req.app.c_str(),
                  req.policy.c_str(), req.scale, net::ErrorCodeName(code),
                  err.c_str());
      continue;
    }
    if (!result.ok()) {
      ++failures;
      std::printf("%-10s %-9s scale %-7.9g ERROR: %s\n", req.app.c_str(),
                  req.policy.c_str(), req.scale, result.error.c_str());
      continue;
    }
    std::printf("%-10s %-9s scale %-7.9g makespan %9.2fs  task-CoV %.3f  "
                "migrated %s\n",
                result.request.app.c_str(), result.request.policy.c_str(),
                result.request.scale, result.makespan_seconds, result.task_cov,
                FormatBytes(result.migrated_bytes).c_str());
    if (opt.show_placements) {
      for (const auto& p : result.placements) {
        std::printf("    %-24s %-10s DRAM %.0f%%\n", p.object.c_str(),
                    FormatBytes(p.bytes).c_str(), 100.0 * p.dram_fraction);
      }
    }
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (argc < 2) return Usage();
  opt.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        Usage();
        std::exit(2);
      }
      return argv[++i];
    };
    // Numeric flags parse strictly: a malformed or out-of-range value
    // exits 2, naming the flag, before anything is built or started.
    auto integer = [&](std::uint64_t min, std::uint64_t max) {
      std::uint64_t v = 0;
      std::string err;
      if (!service::ParseU64Flag(arg, next(), min, max, &v, &err)) {
        std::fprintf(stderr, "merchctl: %s\n", err.c_str());
        std::exit(2);
      }
      return v;
    };
    auto number = [&] {
      double v = 0;
      std::string err;
      if (!service::ParseDoubleFlag(arg, next(), &v, &err)) {
        std::fprintf(stderr, "merchctl: %s\n", err.c_str());
        std::exit(2);
      }
      return v;
    };
    constexpr std::uint64_t kAny = std::numeric_limits<std::uint64_t>::max();
    if (arg == "--app") {
      opt.app = next();
    } else if (arg == "--policy") {
      opt.policy = next();
    } else if (arg == "--scale") {
      opt.scale = number();
    } else if (arg == "--work") {
      opt.work = number();
    } else if (arg == "--train-regions") {
      opt.train_regions = integer(1, service::kMaxTrainRegions);
    } else if (arg == "--seed") {
      opt.seed = integer(0, kAny);
    } else if (arg == "--tasks") {
      opt.show_tasks = true;
    } else if (arg == "--bandwidth") {
      opt.show_bandwidth = true;
    } else if (arg == "--apps") {
      opt.apps = next();
    } else if (arg == "--policies") {
      opt.policies = next();
    } else if (arg == "--scales") {
      opt.scales = next();
    } else if (arg == "--file") {
      opt.file = next();
    } else if (arg == "--threads") {
      opt.threads = integer(1, service::kMaxThreads);
    } else if (arg == "--cache") {
      opt.cache = integer(0, kAny);
    } else if (arg == "--repeat") {
      opt.repeat = integer(1, kAny);
    } else if (arg == "--placements") {
      opt.show_placements = true;
    } else if (arg == "--out") {
      opt.out = next();
    } else if (arg == "--host") {
      opt.host = next();
    } else if (arg == "--port") {
      opt.port = static_cast<std::uint16_t>(integer(0, 65535));
    } else if (arg == "--deadline-ms") {
      opt.deadline_ms = static_cast<std::uint32_t>(
          integer(0, std::numeric_limits<std::uint32_t>::max()));
    } else if (arg == "--ping") {
      opt.ping = true;
    } else if (arg == "--json") {
      opt.json = true;
    } else if (arg == "--dag") {
      opt.dag = true;
    } else if (arg == "--dot") {
      opt.dot = true;
    } else if (arg == "--trace") {
      opt.trace_file = next();
    } else if (arg == "--metrics") {
      opt.metrics_file = next();
    } else if (arg == "--log-level") {
      const char* value = next();
      LogLevel level;
      if (!ParseLogLevel(value, &level)) {
        std::fprintf(stderr, "merchctl: unknown log level '%s'\n", value);
        return 2;
      }
      SetLogLevel(level);
    } else if (opt.command == "analyze" && arg.rfind("--", 0) != 0 &&
               opt.kir_file.empty()) {
      opt.kir_file = arg;
    } else {
      std::fprintf(stderr, "merchctl: unknown flag '%s'\n", arg.c_str());
      return Usage();
    }
  }

  if (opt.command == "list") {
    std::printf("applications:\n");
    for (const auto& name : apps::AppNames()) {
      std::printf("  %s\n", name.c_str());
    }
    std::printf("policies: pm mm mo merch sparta warpx-pm all\n");
    return 0;
  }

  const bool tracing = !opt.trace_file.empty();
#if !defined(MERCH_OBS_ENABLED)
  if (tracing && opt.command == "remote") {
    // A distributed trace without span hooks is an empty timeline; fail
    // loudly instead of shipping a useless file into trace_merge.
    std::fprintf(stderr,
                 "merchctl: remote --trace needs observability compiled in; "
                 "this binary was built with -DMERCH_OBS=OFF\n");
    return 2;
  }
#endif
  if (tracing) obs::TraceRecorder::Instance().Start();

  int rc;
  if (opt.command == "run") {
    rc = RunCommand(opt);
  } else if (opt.command == "train") {
    rc = TrainCommand(opt);
  } else if (opt.command == "sweep") {
    rc = SweepCommand(opt);
  } else if (opt.command == "analyze") {
    rc = AnalyzeCommand(opt);
  } else if (opt.command == "remote") {
    rc = RemoteCommand(opt);
  } else {
    std::fprintf(stderr, "merchctl: unknown command '%s'\n",
                 opt.command.c_str());
    return Usage();
  }

  if (tracing) {
    obs::TraceRecorder& rec = obs::TraceRecorder::Instance();
    rec.Stop();
    obs::ProcessExportMeta meta;
    meta.process_name = "merchctl";
    meta.peers = g_peer_clocks;
    std::string err;
    if (!obs::WriteProcessTrace(rec, opt.trace_file, meta, &err)) {
      std::fprintf(stderr, "merchctl: %s\n", err.c_str());
      return rc != 0 ? rc : 1;
    }
    std::fprintf(stderr, "merchctl: wrote %zu trace events to %s (%llu "
                 "dropped)\n",
                 rec.Snapshot().size(), opt.trace_file.c_str(),
                 static_cast<unsigned long long>(rec.dropped()));
  }
  if (!opt.metrics_file.empty()) {
    const auto& registry = obs::MetricsRegistry::Instance();
    const bool as_json =
        opt.metrics_file.size() >= 5 &&
        opt.metrics_file.rfind(".json") == opt.metrics_file.size() - 5;
    const std::string text =
        as_json ? registry.Json() : registry.PrometheusText();
    std::FILE* f = std::fopen(opt.metrics_file.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "merchctl: cannot write metrics file '%s'\n",
                   opt.metrics_file.c_str());
      return rc != 0 ? rc : 1;
    }
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
  }
  return rc;
}
