// merchd — the Merchandiser placement daemon.
//
// Three modes:
//
//   Batch (the original driver): answer a newline-delimited request file
//   through the concurrent PlacementService and print one line per result.
//
//     merchd --file requests.txt [--threads N] [--cache N] [--repeat R]
//            [--placements] [--quiet]
//
//   Server: serve the binary wire protocol (src/net) on a TCP socket.
//
//     merchd --listen [--host H] [--port P] [--port-file F]
//            [--threads N] [--cache N] [--max-conns N] [--max-inflight N]
//            [--max-queue-depth N] [--deadline-ms D]
//            [--snapshot-load F] [--snapshot-save F]
//
//   Router: spawn N `merchd --listen` worker processes and route requests
//   to shards by hashing the canonical request key (restart-on-crash).
//
//     merchd --router [--shards N] [--host H] [--port P] [--port-file F]
//            [--threads N] [--cache N] [--snapshot-load F]
//            [--snapshot-save F] [--max-conns N]
//
// Common: [--log-level debug|info|warn|error] [--trace FILE.json]
//         [--metrics-file FILE.prom] [--metrics-interval SECONDS]
//
// All modes handle SIGINT/SIGTERM gracefully: in-flight requests drain,
// the final --metrics-file snapshot is flushed (the periodic writer alone
// could lose the last interval), servers save their cache snapshot, and
// the router SIGTERMs its workers so they do the same.
#include <poll.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/log.h"
#include "common/table.h"
#include "net/router.h"
#include "net/server.h"
#include "net/socket.h"
#include "obs/distributed/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/batch.h"
#include "service/placement_service.h"

namespace {

using namespace merch;

int Usage() {
  std::fprintf(
      stderr,
      "usage: merchd --file requests.txt [--threads N] [--cache N]"
      " [--repeat R] [--placements] [--quiet]\n"
      "       merchd --listen [--host H] [--port P] [--port-file F]"
      " [--threads N] [--cache N]\n"
      "              [--max-conns N] [--max-inflight N]"
      " [--max-queue-depth N] [--deadline-ms D]\n"
      "              [--snapshot-load F] [--snapshot-save F]\n"
      "       merchd --router [--shards N] [--host H] [--port P]"
      " [--port-file F] [--threads N]\n"
      "              [--cache N] [--snapshot-load F] [--snapshot-save F]"
      " [--max-conns N]\n"
      "common: [--log-level debug|info|warn|error] [--trace FILE.json]\n"
      "        [--metrics-file FILE.prom] [--metrics-interval SECONDS]\n"
      "        [--metrics-aggregate]  # router: write the federated fleet "
      "export\n"
      "        [--process-name NAME]  # identity in traces/pongs/metrics\n");
  return 2;
}

/// Writes `text` to `path` via a temp file + rename so readers never
/// observe a torn snapshot.
bool WriteMetricsFile(const std::string& path, const std::string& text) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return false;
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

/// Background periodic metrics-snapshot writer. Writes once immediately
/// (so short-lived runs still leave a file before the first interval
/// elapses), then every interval; the destructor (and, on signal,
/// FlushFinal) writes one last snapshot so the tail interval is never
/// lost. The text source defaults to the local registry and can be
/// swapped (SetProducer) for e.g. the router's federated export.
class MetricsWriter {
 public:
  using Producer = std::function<std::string()>;

  MetricsWriter(std::string path, double interval_seconds)
      : path_(std::move(path)), interval_(interval_seconds) {
    thread_ = std::thread([this] { Loop(); });
  }
  ~MetricsWriter() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
    FlushFinal();
  }

  /// Swap the text source; writes a snapshot immediately so the file
  /// reflects the new producer without waiting out an interval. Pass
  /// nullptr to fall back to the local registry (do this before the
  /// producer's captures die).
  void SetProducer(Producer producer) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      producer_ = std::move(producer);
    }
    if (!flushed_.load()) WriteSnapshot();
  }

  /// Idempotent final snapshot (signal paths call this before _exit-style
  /// returns; the destructor calls it again harmlessly).
  void FlushFinal() {
    if (flushed_.exchange(true)) return;
    if (!WriteSnapshot()) {
      std::fprintf(stderr, "merchd: cannot write metrics file '%s'\n",
                   path_.c_str());
    }
  }

 private:
  std::string Render() {
    Producer producer;
    {
      std::lock_guard<std::mutex> lock(mu_);
      producer = producer_;
    }
    return producer ? producer()
                    : obs::MetricsRegistry::Instance().PrometheusText();
  }

  bool WriteSnapshot() { return WriteMetricsFile(path_, Render()); }

  void Loop() {
    WriteSnapshot();  // first interval: a file exists from the start
    std::unique_lock<std::mutex> lock(mu_);
    const auto period = std::chrono::duration<double>(interval_);
    while (!cv_.wait_for(lock, period, [this] { return stop_; })) {
      lock.unlock();
      WriteSnapshot();
      lock.lock();
    }
  }

  std::string path_;
  double interval_;
  std::mutex mu_;
  std::condition_variable cv_;
  Producer producer_;
  bool stop_ = false;
  std::atomic<bool> flushed_{false};
  std::thread thread_;
};

struct Options {
  // mode
  bool listen = false;
  bool router = false;
  std::string file;
  // shared service knobs
  std::size_t threads = 1;
  std::size_t cache = 128;
  // batch
  std::size_t repeat = 1;
  bool placements = false;
  bool quiet = false;
  // net
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::string port_file;
  std::size_t shards = 2;
  std::size_t max_conns = 256;
  std::size_t max_inflight = 128;
  std::size_t max_queue_depth = 256;
  std::uint32_t deadline_ms = 30000;
  std::string snapshot_load;
  std::string snapshot_save;
  // observability
  std::string trace_file;
  std::string metrics_file;
  double metrics_interval = 1.0;
  bool metrics_aggregate = false;
  std::string process_name;  // "" = per-mode default (merchd / router)
};

bool WritePortFile(const std::string& path, std::uint16_t port) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  std::fprintf(f, "%u\n", static_cast<unsigned>(port));
  std::fclose(f);
  return true;
}

/// Block until SIGINT/SIGTERM (via the ShutdownSignal self-pipe).
void WaitForShutdownSignal() {
  for (;;) {
    pollfd pfd{net::ShutdownSignal::fd(), POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 500);
    if (net::ShutdownSignal::requested()) return;
    if (ready < 0 && errno != EINTR) return;
  }
}

int BatchMode(const Options& opt, MetricsWriter* metrics_writer) {
  std::vector<service::PlacementRequest> requests;
  std::string err;
  if (!service::LoadRequestFile(opt.file, &requests, &err)) {
    std::fprintf(stderr, "merchd: %s\n", err.c_str());
    return 2;
  }
  if (requests.empty()) {
    std::fprintf(stderr, "merchd: %s contains no requests\n",
                 opt.file.c_str());
    return 2;
  }
  for (auto& req : requests) {
    if (std::string cerr = service::CanonicalizeRequest(req); !cerr.empty()) {
      std::fprintf(stderr, "merchd: %s\n", cerr.c_str());
      return 2;
    }
  }

  service::PlacementService svc(
      {.threads = opt.threads, .cache_capacity = opt.cache});

  // Graceful SIGINT/SIGTERM: drain everything the pool accepted, flush the
  // final metrics interval, exit 130. The watcher owns the exit so a
  // signal mid-batch cannot lose the tail snapshot; it is joined before
  // `svc` is destroyed so it never races teardown.
  std::atomic<bool> batch_done{false};
  std::thread signal_watcher([&svc, &batch_done, metrics_writer] {
    while (!batch_done.load(std::memory_order_acquire)) {
      pollfd pfd{net::ShutdownSignal::fd(), POLLIN, 0};
      ::poll(&pfd, 1, 200);
      if (net::ShutdownSignal::requested()) {
        std::fprintf(stderr, "merchd: signal received, draining in-flight "
                             "requests...\n");
        svc.Shutdown();
        if (metrics_writer != nullptr) metrics_writer->FlushFinal();
        std::fflush(nullptr);
        std::_Exit(130);
      }
    }
  });

  int failures = 0;
  for (std::size_t pass = 0; pass < opt.repeat; ++pass) {
    const service::BatchReport report = service::RunBatch(svc, requests);
    std::size_t pass_hits = 0;
    for (std::size_t i = 0; i < report.results.size(); ++i) {
      const auto& r = report.results[i];
      if (report.cache_hits[i]) ++pass_hits;
      if (!r.ok()) {
        if (pass == 0) ++failures;
        std::printf("%-10s %-9s scale %-7.9g ERROR: %s\n",
                    r.request.app.c_str(), r.request.policy.c_str(),
                    r.request.scale, r.error.c_str());
        continue;
      }
      if (opt.quiet || pass > 0) continue;
      std::printf("%-10s %-9s scale %-7.9g seed %-6llu makespan %9.2fs  "
                  "task-CoV %.3f  migrated %s\n",
                  r.request.app.c_str(), r.request.policy.c_str(),
                  r.request.scale,
                  static_cast<unsigned long long>(r.request.seed),
                  r.makespan_seconds, r.task_cov,
                  FormatBytes(r.migrated_bytes).c_str());
      if (opt.placements) {
        for (const auto& p : r.placements) {
          std::printf("    %-24s %-10s DRAM %.0f%%\n", p.object.c_str(),
                      FormatBytes(p.bytes).c_str(), 100.0 * p.dram_fraction);
        }
      }
    }
    std::printf("pass %zu: %zu requests in %.2fs  (%.2f jobs/s, %zu served "
                "from cache)\n",
                pass + 1, requests.size(), report.wall_seconds,
                report.jobs_per_second, pass_hits);
  }
  const service::ServiceStats stats = svc.Stats();
  std::printf("service: threads %zu  simulated %llu  coalesced %llu  app "
              "builds %llu  cache hits %llu / misses %llu / evictions %llu\n",
              stats.threads,
              static_cast<unsigned long long>(stats.simulated),
              static_cast<unsigned long long>(stats.coalesced),
              static_cast<unsigned long long>(stats.app_builds),
              static_cast<unsigned long long>(stats.cache.hits),
              static_cast<unsigned long long>(stats.cache.misses),
              static_cast<unsigned long long>(stats.cache.evictions));

  // Join the workers before the final snapshot: a job's future resolves
  // before its worker updates the post-job gauges, so writing the exit
  // snapshot while threads still run could freeze `merch_pool_active` at
  // a non-zero value.
  svc.Shutdown();
  batch_done.store(true, std::memory_order_release);
  signal_watcher.join();
  return failures == 0 ? 0 : 1;
}

int ListenMode(const Options& opt) {
  net::ServerConfig cfg;
  cfg.host = opt.host;
  cfg.port = opt.port;
  cfg.threads = opt.threads;
  cfg.cache_capacity = opt.cache;
  cfg.max_connections = opt.max_conns;
  cfg.max_inflight = opt.max_inflight;
  cfg.max_queue_depth = opt.max_queue_depth;
  cfg.default_deadline_ms = opt.deadline_ms;
  cfg.snapshot_load = opt.snapshot_load;
  cfg.snapshot_save = opt.snapshot_save;
  if (!opt.process_name.empty()) cfg.process_name = opt.process_name;

  net::PlacementServer server(cfg);
  std::string err;
  if (!server.Start(&err)) {
    std::fprintf(stderr, "merchd: %s\n", err.c_str());
    return 1;
  }
  if (!opt.port_file.empty() && !WritePortFile(opt.port_file, server.port())) {
    std::fprintf(stderr, "merchd: cannot write port file '%s'\n",
                 opt.port_file.c_str());
    return 1;
  }
  std::printf("merchd: listening on %s:%u (threads %zu, cache %zu, "
              "max-inflight %zu)\n",
              opt.host.c_str(), server.port(), opt.threads, opt.cache,
              opt.max_inflight);
  std::fflush(stdout);

  WaitForShutdownSignal();
  std::fprintf(stderr, "merchd: signal received, draining...\n");
  server.Stop();

  const net::ServerStats stats = server.stats();
  std::printf("server: conns %llu  requests %llu  responses %llu  shed %llu"
              "  timeouts %llu  protocol-errors %llu\n",
              static_cast<unsigned long long>(stats.connections),
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.responses),
              static_cast<unsigned long long>(stats.shed),
              static_cast<unsigned long long>(stats.timeouts),
              static_cast<unsigned long long>(stats.protocol_errors));
  return 0;
}

int RouterMode(const Options& opt, const char* self,
               MetricsWriter* metrics_writer,
               std::vector<obs::PeerClock>* peer_clocks) {
  net::RouterConfig cfg;
  cfg.host = opt.host;
  cfg.port = opt.port;
  cfg.shards = opt.shards;
  cfg.max_client_connections = opt.max_conns;
  if (!opt.process_name.empty()) cfg.process_name = opt.process_name;
  // Distributed tracing: the shards inherit the router's trace path with
  // a per-shard suffix, and the router ping-syncs their clocks so
  // tools/trace_merge can align all the exports afterwards.
  if (!opt.trace_file.empty()) cfg.worker_trace_prefix = opt.trace_file;

  // Workers re-exec this binary in --listen mode. A shared --snapshot-load
  // pre-warms every shard from one file; --snapshot-save gets a per-shard
  // suffix so workers never clobber each other.
  cfg.worker_command = {self, "--threads", std::to_string(opt.threads),
                        "--cache", std::to_string(opt.cache),
                        "--max-inflight", std::to_string(opt.max_inflight),
                        "--max-queue-depth",
                        std::to_string(opt.max_queue_depth),
                        "--deadline-ms", std::to_string(opt.deadline_ms)};
  if (!opt.snapshot_load.empty()) {
    cfg.worker_command.insert(cfg.worker_command.end(),
                              {"--snapshot-load", opt.snapshot_load});
  }
  cfg.worker_snapshot_save_prefix = opt.snapshot_save;

  net::ShardRouter router(cfg);
  std::string err;
  if (!router.Start(&err)) {
    std::fprintf(stderr, "merchd: %s\n", err.c_str());
    return 1;
  }
  if (!opt.port_file.empty() && !WritePortFile(opt.port_file, router.port())) {
    std::fprintf(stderr, "merchd: cannot write port file '%s'\n",
                 opt.port_file.c_str());
    return 1;
  }
  std::printf("merchd: routing %s:%u across %zu shards\n", opt.host.c_str(),
              router.port(), opt.shards);
  std::fflush(stdout);

  if (opt.metrics_aggregate && metrics_writer != nullptr) {
    metrics_writer->SetProducer([&router] {
      std::string text, ferr;
      if (router.FederatedPrometheus(&text, &ferr)) return text;
      MERCH_LOG(kWarn) << "router: metrics federation failed: " << ferr;
      return obs::MetricsRegistry::Instance().PrometheusText();
    });
  }

  WaitForShutdownSignal();
  std::fprintf(stderr, "merchd: signal received, stopping router...\n");
  if (peer_clocks != nullptr) *peer_clocks = router.worker_clocks();
  if (opt.metrics_aggregate && metrics_writer != nullptr) {
    // Final federated snapshot while the shards can still answer, then
    // detach the producer before the router object goes away.
    metrics_writer->FlushFinal();
    metrics_writer->SetProducer(nullptr);
  }
  router.Stop();

  const net::RouterStats stats = router.stats();
  std::printf("router: conns %llu  forwarded %llu  worker-errors %llu  "
              "restarts %llu\n",
              static_cast<unsigned long long>(stats.connections),
              static_cast<unsigned long long>(stats.forwarded),
              static_cast<unsigned long long>(stats.worker_errors),
              static_cast<unsigned long long>(stats.restarts));
  return 0;
}

}  // namespace

/// Ceilings on the counts that start processes or threads: --shards spawns
/// one worker process per shard, and a router's --max-conns starts one
/// forwarding thread per connection. Constants, not knobs.
constexpr std::uint64_t kMaxShards = 64;
constexpr std::uint64_t kMaxConnections = 1024;

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) std::exit(Usage());
      return argv[++i];
    };
    // Numeric flags parse strictly: a malformed or out-of-range value
    // exits 2, naming the flag, before anything is built or started.
    auto integer = [&](std::uint64_t min, std::uint64_t max) {
      std::uint64_t v = 0;
      std::string err;
      if (!service::ParseU64Flag(arg, next(), min, max, &v, &err)) {
        std::fprintf(stderr, "merchd: %s\n", err.c_str());
        std::exit(2);
      }
      return v;
    };
    constexpr std::uint64_t kAny = std::numeric_limits<std::uint64_t>::max();
    if (arg == "--file") {
      opt.file = next();
    } else if (arg == "--listen") {
      opt.listen = true;
    } else if (arg == "--router") {
      opt.router = true;
    } else if (arg == "--host") {
      opt.host = next();
    } else if (arg == "--port") {
      opt.port = static_cast<std::uint16_t>(integer(0, 65535));
    } else if (arg == "--port-file") {
      opt.port_file = next();
    } else if (arg == "--shards") {
      opt.shards = integer(1, kMaxShards);
    } else if (arg == "--max-conns") {
      opt.max_conns = integer(1, kMaxConnections);
    } else if (arg == "--max-inflight") {
      opt.max_inflight = integer(0, kAny);
    } else if (arg == "--max-queue-depth") {
      opt.max_queue_depth = integer(0, kAny);
    } else if (arg == "--deadline-ms") {
      opt.deadline_ms = static_cast<std::uint32_t>(
          integer(0, std::numeric_limits<std::uint32_t>::max()));
    } else if (arg == "--snapshot-load") {
      opt.snapshot_load = next();
    } else if (arg == "--snapshot-save") {
      opt.snapshot_save = next();
    } else if (arg == "--threads") {
      opt.threads = integer(1, service::kMaxThreads);
    } else if (arg == "--cache") {
      opt.cache = integer(0, kAny);
    } else if (arg == "--repeat") {
      opt.repeat = integer(1, kAny);
    } else if (arg == "--placements") {
      opt.placements = true;
    } else if (arg == "--quiet") {
      opt.quiet = true;
    } else if (arg == "--trace") {
      opt.trace_file = next();
    } else if (arg == "--metrics-file") {
      opt.metrics_file = next();
    } else if (arg == "--metrics-aggregate") {
      opt.metrics_aggregate = true;
    } else if (arg == "--process-name") {
      opt.process_name = next();
    } else if (arg == "--metrics-interval") {
      std::string err;
      if (!service::ParseDoubleFlag(arg, next(), &opt.metrics_interval,
                                    &err)) {
        std::fprintf(stderr, "merchd: %s\n", err.c_str());
        return 2;
      }
      if (!std::isfinite(opt.metrics_interval) || opt.metrics_interval <= 0) {
        std::fprintf(stderr,
                     "merchd: --metrics-interval must be finite and > 0\n");
        return 2;
      }
    } else if (arg == "--log-level") {
      const std::string value = next();
      if (value == "debug") SetLogLevel(LogLevel::kDebug);
      else if (value == "info") SetLogLevel(LogLevel::kInfo);
      else if (value == "warn") SetLogLevel(LogLevel::kWarn);
      else if (value == "error") SetLogLevel(LogLevel::kError);
      else {
        std::fprintf(stderr, "merchd: unknown log level '%s'\n",
                     value.c_str());
        return 2;
      }
    } else {
      std::fprintf(stderr, "merchd: unknown flag '%s'\n", arg.c_str());
      return Usage();
    }
  }
  const int modes = (opt.file.empty() ? 0 : 1) + (opt.listen ? 1 : 0) +
                    (opt.router ? 1 : 0);
  if (modes != 1) {
    std::fprintf(stderr,
                 "merchd: pick exactly one of --file, --listen, --router\n");
    return Usage();
  }
  if (opt.metrics_aggregate && (!opt.router || opt.metrics_file.empty())) {
    std::fprintf(stderr,
                 "merchd: --metrics-aggregate needs --router and "
                 "--metrics-file\n");
    return 2;
  }

  net::ShutdownSignal::Install();
  if (!opt.trace_file.empty()) obs::TraceRecorder::Instance().Start();
  std::unique_ptr<MetricsWriter> metrics_writer;
  if (!opt.metrics_file.empty()) {
    metrics_writer = std::make_unique<MetricsWriter>(opt.metrics_file,
                                                     opt.metrics_interval);
  }

  int rc;
  std::vector<obs::PeerClock> peer_clocks;
  if (opt.listen) {
    rc = ListenMode(opt);
  } else if (opt.router) {
    rc = RouterMode(opt, argv[0], metrics_writer.get(), &peer_clocks);
  } else {
    rc = BatchMode(opt, metrics_writer.get());
  }

  metrics_writer.reset();  // final metrics snapshot
  if (!opt.trace_file.empty()) {
    obs::TraceRecorder& rec = obs::TraceRecorder::Instance();
    rec.Stop();
    obs::ProcessExportMeta meta;
    meta.process_name = !opt.process_name.empty()
                            ? opt.process_name
                            : (opt.router ? "router" : "merchd");
    meta.peers = std::move(peer_clocks);
    std::string werr;
    if (!obs::WriteProcessTrace(rec, opt.trace_file, meta, &werr)) {
      std::fprintf(stderr, "merchd: %s\n", werr.c_str());
      return 1;
    }
  }
  return rc;
}
