#include "net/router.h"

#include <errno.h>
#include <poll.h>
#include <signal.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>
#include <unordered_set>
#include <utility>

#include "common/log.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/socket.h"
#include "obs/distributed/context.h"
#include "obs/distributed/federation.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/request.h"
#include "service/serialization.h"
#include "service/thread_pool.h"

namespace merch::net {

namespace {

using Clock = std::chrono::steady_clock;

/// Read a decimal port from `path`; 0 until the worker has written it.
std::uint16_t ReadPortFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return 0;
  char buf[16] = {0};
  const std::size_t n = std::fread(buf, 1, sizeof buf - 1, f);
  std::fclose(f);
  if (n == 0) return 0;
  const long port = std::atol(buf);
  return (port > 0 && port <= 65535) ? static_cast<std::uint16_t>(port) : 0;
}

}  // namespace

std::uint64_t Fnv1a64(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

struct ShardRouter::Impl {
  RouterConfig cfg;

  /// One spawned `merchd --listen` process. `generation` bumps on every
  /// respawn so forwarders know their cached connection is stale.
  struct Worker {
    int pid = -1;
    std::uint16_t port = 0;
    std::uint64_t generation = 0;
    std::string port_file;
    obs::PeerClock clock;  // pid == 0 until a ping sync succeeded
  };

  mutable std::mutex mu;  // guards workers + stats + client_fds
  std::vector<Worker> workers;
  RouterStats stats;
  std::unordered_set<int> client_fds;

  // Atomic: Stop() closes it to nudge the accept thread's poll.
  std::atomic<int> listen_fd{-1};
  std::uint16_t port = 0;
  std::atomic<bool> stopping{false};
  bool started = false;
  bool stopped = false;
  std::thread accept_thread;
  std::thread monitor_thread;
  std::unique_ptr<service::ThreadPool> forwarders;
  std::uint64_t spawn_counter = 0;

  ~Impl() {
    for (Worker& w : workers) {
      if (!w.port_file.empty()) ::unlink(w.port_file.c_str());
    }
  }

  void Bump(std::uint64_t RouterStats::* field) {
    std::lock_guard<std::mutex> lock(mu);
    stats.*field += 1;
  }

  bool SpawnWorker(std::size_t shard, std::string* error) {
    Worker& w = workers[shard];
    if (!w.port_file.empty()) ::unlink(w.port_file.c_str());
    char path[128];
    std::snprintf(path, sizeof path, "/tmp/merchd.router.%d.s%zu.g%llu.port",
                  static_cast<int>(::getpid()), shard,
                  static_cast<unsigned long long>(spawn_counter++));
    w.port_file = path;

    std::vector<std::string> argv_s = cfg.worker_command;
    argv_s.insert(argv_s.end(), {"--listen", "--port", "0", "--port-file",
                                 w.port_file});
    if (!cfg.worker_snapshot_save_prefix.empty()) {
      argv_s.insert(argv_s.end(),
                    {"--snapshot-save", cfg.worker_snapshot_save_prefix +
                                            ".shard" + std::to_string(shard)});
    }
    if (!cfg.worker_trace_prefix.empty()) {
      // Distributed tracing: each shard records its own timeline and
      // identifies itself, so trace_merge can stitch all exports.
      argv_s.insert(argv_s.end(),
                    {"--process-name", "shard" + std::to_string(shard),
                     "--trace", cfg.worker_trace_prefix + ".shard" +
                                    std::to_string(shard) + ".json"});
    }
    std::vector<char*> argv;
    argv.reserve(argv_s.size() + 1);
    for (std::string& a : argv_s) argv.push_back(a.data());
    argv.push_back(nullptr);

    const int pid = ::fork();
    if (pid < 0) {
      if (error != nullptr) *error = "fork failed";
      return false;
    }
    if (pid == 0) {
      ::execv(argv[0], argv.data());
      // exec failed: nothing sane to do in the child but report and die.
      std::fprintf(stderr, "merchd router: cannot exec '%s': %s\n", argv[0],
                   std::strerror(errno));
      ::_exit(127);
    }
    w.pid = pid;
    w.port = 0;
    ++w.generation;

    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               cfg.worker_start_timeout_seconds));
    while (Clock::now() < deadline) {
      const std::uint16_t p = ReadPortFile(w.port_file);
      if (p != 0) {
        w.port = p;
        MERCH_LOG(kInfo) << "router: shard " << shard << " up (pid " << pid
                         << ", port " << p << ")";
        return true;
      }
      int status = 0;
      if (::waitpid(pid, &status, WNOHANG) == pid) {
        w.pid = -1;
        if (error != nullptr) {
          *error = "worker for shard " + std::to_string(shard) +
                   " exited during startup";
        }
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    if (error != nullptr) {
      *error = "worker for shard " + std::to_string(shard) +
               " did not publish a port in time";
    }
    return false;
  }

  /// Snapshot of (port, generation) for a shard, for forwarders.
  std::pair<std::uint16_t, std::uint64_t> ShardEndpoint(std::size_t shard) {
    std::lock_guard<std::mutex> lock(mu);
    return {workers[shard].port, workers[shard].generation};
  }

  /// Ping-sync one worker's trace clock against the local recorder (the
  /// minimum-RTT sample dates the worker clock; see obs/distributed).
  /// Skipped when the local recorder is not running — there is no clock
  /// to measure against; any stale estimate is cleared either way.
  void SyncWorkerClock(std::size_t shard) {
    std::uint16_t wport;
    {
      std::lock_guard<std::mutex> lock(mu);
      workers[shard].clock = obs::PeerClock{};
      wport = workers[shard].port;
    }
    if (wport == 0 || !obs::TraceRecorder::Instance().enabled()) return;
    Client client;
    std::string err;
    obs::PeerClock clock;
    if (!client.Connect(cfg.host, wport, &err) ||
        !EstimatePeerClock(client, cfg.clock_sync_samples, &clock, &err)) {
      MERCH_LOG(kWarn) << "router: clock sync with shard " << shard
                       << " failed: " << err;
      return;
    }
    MERCH_LOG(kInfo) << "router: shard " << shard << " clock offset "
                     << clock.offset_ns << "ns (pid " << clock.pid << ")";
    std::lock_guard<std::mutex> lock(mu);
    workers[shard].clock = clock;
  }

  /// One fleet-level export: the router's own registry plus a live pull
  /// from every shard, merged by obs::FederateMetrics.
  bool FederatedPrometheus(std::string* out, std::string* error) {
    std::vector<obs::ShardMetrics> shards;
    obs::ShardMetrics own;
    own.label = cfg.process_name;
    if (!obs::ParsePrometheusText(
            obs::MetricsRegistry::Instance().PrometheusText(), &own.metrics,
            error)) {
      if (error != nullptr) *error = "router export: " + *error;
      return false;
    }
    shards.push_back(std::move(own));
    for (std::size_t shard = 0; shard < workers.size(); ++shard) {
      const auto [wport, wgen] = ShardEndpoint(shard);
      (void)wgen;
      const std::string label = "shard" + std::to_string(shard);
      std::string err;
      Client client;
      MetricsReplyPayload reply;
      ErrorCode code;
      if (wport == 0 || !client.Connect(cfg.host, wport, &err) ||
          client.FetchMetrics(&reply, &code, &err) != Client::Status::kOk) {
        if (error != nullptr) {
          *error = label + " unreachable for metrics pull" +
                   (err.empty() ? "" : ": " + err);
        }
        return false;
      }
      obs::ShardMetrics sm;
      sm.label = label;
      if (!obs::ParsePrometheusText(reply.prometheus_text, &sm.metrics,
                                    error)) {
        if (error != nullptr) *error = label + " export: " + *error;
        return false;
      }
      shards.push_back(std::move(sm));
    }
    return obs::FederateMetrics(shards, out, error);
  }

  void MonitorLoop() {
    while (!stopping.load(std::memory_order_relaxed)) {
      for (std::size_t shard = 0; shard < workers.size(); ++shard) {
        int pid;
        {
          std::lock_guard<std::mutex> lock(mu);
          pid = workers[shard].pid;
        }
        if (pid <= 0) continue;
        int status = 0;
        if (::waitpid(pid, &status, WNOHANG) != pid) continue;
        if (stopping.load(std::memory_order_relaxed)) return;
        MERCH_LOG(kWarn) << "router: shard " << shard << " worker (pid "
                         << pid << ") died; "
                         << (cfg.restart_workers ? "restarting"
                                                 : "not restarting");
        {
          std::lock_guard<std::mutex> lock(mu);
          workers[shard].pid = -1;
          workers[shard].port = 0;
        }
        if (!cfg.restart_workers) continue;
        std::string err;
        bool respawned;
        {
          std::lock_guard<std::mutex> lock(mu);
          respawned = SpawnWorker(shard, &err);
          if (respawned) stats.restarts += 1;
        }
        if (respawned) {
          MERCH_METRIC_COUNT("merch_router_restarts_total", 1);
          SyncWorkerClock(shard);  // the respawned worker's clock is new
        } else {
          MERCH_LOG(kError) << "router: respawn of shard " << shard
                            << " failed: " << err;
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  }

  /// Serve one client connection end to end (runs on a forwarder thread).
  void ServeClient(int fd) {
    FrameParser parser(cfg.max_frame_bytes);
    // Lazy per-shard connections; generation-stamped so worker restarts
    // trigger a reconnect instead of writes into a dead socket.
    std::vector<std::unique_ptr<Client>> shard_clients(workers.size());
    std::vector<std::uint64_t> shard_generations(workers.size(), 0);

    char buf[1 << 16];
    bool alive = true;
    while (alive && !stopping.load(std::memory_order_relaxed)) {
      const long n = ReadSome(fd, buf, sizeof buf);
      if (n <= 0) break;
      parser.Feed(buf, static_cast<std::size_t>(n));
      for (;;) {
        Frame frame;
        std::string perr;
        bool bad_version = false;
        const FrameParser::Status st =
            parser.Next(&frame, &perr, &bad_version);
        if (st == FrameParser::Status::kNeedMore) break;
        if (st == FrameParser::Status::kBad) {
          Bump(&RouterStats::protocol_errors);
          const Frame err{FrameType::kError, 0,
                          EncodeErrorPayload(
                              bad_version ? ErrorCode::kUnsupportedVersion
                                          : ErrorCode::kMalformed,
                              perr)};
          const std::string bytes = EncodeFrame(err);
          WriteAll(fd, bytes.data(), bytes.size());
          alive = false;
          break;
        }
        if (!HandleClientFrame(fd, frame, shard_clients,
                               shard_generations)) {
          alive = false;
          break;
        }
      }
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      client_fds.erase(fd);
    }
    CloseFd(fd);
    MERCH_METRIC_GAUGE_ADD("merch_router_active_connections", -1);
  }

  bool SendFrame(int fd, const Frame& frame) {
    const std::string bytes = EncodeFrame(frame);
    return WriteAll(fd, bytes.data(), bytes.size());
  }

  bool HandleClientFrame(int fd, Frame& frame,
                         std::vector<std::unique_ptr<Client>>& shard_clients,
                         std::vector<std::uint64_t>& shard_generations) {
    if (frame.type == FrameType::kPing) {
      std::string payload;
      if (frame.version >= 2) {
        PongPayload pong;
        pong.now_ns = obs::TraceRecorder::Instance().NowNs();
        pong.pid = static_cast<std::uint64_t>(::getpid());
        pong.process_name = cfg.process_name;
        payload = EncodePongPayload(pong);
      }
      return SendFrame(fd, Frame{FrameType::kPong, frame.seq,
                                 std::move(payload), frame.version});
    }
    if (frame.type == FrameType::kMetrics) {
      // Metrics pull against the router aggregates the whole fleet.
      std::string text, merr;
      if (!FederatedPrometheus(&text, &merr)) {
        return SendFrame(fd, Frame{FrameType::kError, frame.seq,
                                   EncodeErrorPayload(ErrorCode::kInternal,
                                                      merr),
                                   frame.version});
      }
      MetricsReplyPayload reply;
      reply.process_name = cfg.process_name;
      reply.pid = static_cast<std::uint64_t>(::getpid());
      reply.prometheus_text = std::move(text);
      return SendFrame(fd, Frame{FrameType::kMetricsReply, frame.seq,
                                 EncodeMetricsReplyPayload(reply),
                                 frame.version});
    }
    if (frame.type != FrameType::kRequest) {
      Bump(&RouterStats::protocol_errors);
      return SendFrame(fd, Frame{FrameType::kError, frame.seq,
                                 EncodeErrorPayload(
                                     ErrorCode::kMalformed,
                                     "unexpected frame type from client"),
                                 frame.version});
    }

    // Decode just enough to shard: the canonical key (v2 payloads carry
    // the trace context between deadline and request). The worker re-runs
    // full validation; invalid requests are answered locally with the same
    // error-carrying PlacementResult the in-process service produces.
    service::WireReader r(frame.payload);
    std::uint32_t deadline_ms = 0;
    obs::TraceContext ctx;
    service::PlacementRequest req;
    r.U32(&deadline_ms);
    if (frame.version >= 2) ReadTraceContext(&r, &ctx);
    if (!service::DecodeRequest(&r, &req) || r.remaining() != 0) {
      Bump(&RouterStats::protocol_errors);
      return SendFrame(fd, Frame{FrameType::kError, frame.seq,
                                 EncodeErrorPayload(
                                     ErrorCode::kMalformed,
                                     "undecodable request payload"),
                                 frame.version});
    }
    service::PlacementRequest canonical = req;
    if (const std::string cerr = service::CanonicalizeRequest(canonical);
        !cerr.empty()) {
      service::PlacementResult bad;
      bad.request = req;
      bad.error = cerr;
      service::WireWriter w;
      if (frame.version >= 2) {
        w.U64(ctx.trace_id);
        w.U64(0);  // answered locally: no server span
      }
      service::EncodeResult(bad, &w);
      return SendFrame(fd, Frame{FrameType::kResponse, frame.seq, w.Take(),
                                 frame.version});
    }
    const std::size_t shard = static_cast<std::size_t>(
        Fnv1a64(service::CanonicalKey(canonical)) % workers.size());

    // The frame is relayed verbatim, so the client's trace context rides
    // through to the shard; the router's own forward span joins the same
    // trace via the scope installed here.
    obs::TraceContextScope scope(ctx);
    obs::TraceRecorder& rec = obs::TraceRecorder::Instance();
    const std::uint64_t fwd_t0 =
        ctx.valid() && rec.enabled() ? rec.NowNs() : 0;

    Frame reply;
    if (ForwardToShard(shard, frame, shard_clients, shard_generations,
                       &reply)) {
      Bump(&RouterStats::forwarded);
      MERCH_METRIC_COUNT("merch_router_forwarded_total", 1);
      if (fwd_t0 != 0 && rec.enabled()) {
        const std::uint64_t now = rec.NowNs();
        rec.RecordSpan(obs::Category::kNet, "router.forward", fwd_t0,
                       now > fwd_t0 ? now - fwd_t0 : 0, "shard",
                       static_cast<std::int64_t>(shard));
      }
      return SendFrame(fd, reply);
    }
    Bump(&RouterStats::worker_errors);
    MERCH_METRIC_COUNT("merch_router_worker_errors_total", 1);
    return SendFrame(
        fd, Frame{FrameType::kError, frame.seq,
                  EncodeErrorPayload(ErrorCode::kUnavailable,
                                     "shard worker unavailable, retry "
                                     "later"),
                  frame.version});
  }

  bool ForwardToShard(std::size_t shard, const Frame& frame,
                      std::vector<std::unique_ptr<Client>>& shard_clients,
                      std::vector<std::uint64_t>& shard_generations,
                      Frame* reply) {
    for (int attempt = 0; attempt < 2; ++attempt) {
      const auto [wport, wgen] = ShardEndpoint(shard);
      if (wport == 0) {
        // Worker is down; give the monitor a moment on the retry attempt.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        continue;
      }
      std::unique_ptr<Client>& client = shard_clients[shard];
      if (client == nullptr || !client->connected() ||
          shard_generations[shard] != wgen) {
        client = std::make_unique<Client>();
        std::string cerr;
        if (!client->Connect(cfg.host, wport, &cerr)) {
          client.reset();
          continue;
        }
        shard_generations[shard] = wgen;
      }
      std::string ferr;
      if (client->Forward(frame, reply, &ferr) == Client::Status::kOk) {
        return true;
      }
      client.reset();  // dead connection; retry reconnects
    }
    return false;
  }

  void AcceptLoop() {
    while (!stopping.load(std::memory_order_relaxed)) {
      pollfd pfd{listen_fd.load(), POLLIN, 0};
      const int ready = ::poll(&pfd, 1, 200);
      if (ready <= 0) continue;
      const int fd =
          ::accept4(listen_fd.load(), nullptr, nullptr, SOCK_CLOEXEC);
      if (fd < 0) continue;
      if (stopping.load(std::memory_order_relaxed)) {
        CloseFd(fd);
        break;
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        stats.connections += 1;
        client_fds.insert(fd);
      }
      MERCH_METRIC_COUNT("merch_router_connections_total", 1);
      MERCH_METRIC_GAUGE_ADD("merch_router_active_connections", 1);
      if (!forwarders->TrySubmit([this, fd] { ServeClient(fd); })) {
        // Connection-level shed: the forwarder pool is saturated.
        const Frame refuse{FrameType::kError, 0,
                           EncodeErrorPayload(ErrorCode::kRetryLater,
                                              "router connection limit "
                                              "reached, retry later")};
        const std::string bytes = EncodeFrame(refuse);
        WriteAll(fd, bytes.data(), bytes.size());
        {
          std::lock_guard<std::mutex> lock(mu);
          stats.refused_connections += 1;
          client_fds.erase(fd);
        }
        MERCH_METRIC_COUNT("merch_router_refused_connections_total", 1);
        MERCH_METRIC_GAUGE_ADD("merch_router_active_connections", -1);
        CloseFd(fd);
      }
    }
  }
};

ShardRouter::ShardRouter(RouterConfig config)
    : impl_(std::make_unique<Impl>()) {
  impl_->cfg = std::move(config);
  if (impl_->cfg.shards == 0) impl_->cfg.shards = 1;
}

ShardRouter::~ShardRouter() { Stop(); }

bool ShardRouter::Start(std::string* error) {
  Impl& im = *impl_;
  if (im.started) return true;
  if (im.cfg.worker_command.empty()) {
    if (error != nullptr) *error = "router needs a worker command";
    return false;
  }
  im.workers.resize(im.cfg.shards);
  for (std::size_t shard = 0; shard < im.cfg.shards; ++shard) {
    bool ok;
    {
      std::lock_guard<std::mutex> lock(im.mu);
      ok = im.SpawnWorker(shard, error);
    }
    if (!ok) {
      Stop();
      return false;
    }
    im.SyncWorkerClock(shard);
  }
  im.listen_fd = ListenOn(im.cfg.host, im.cfg.port, &im.port, error);
  if (im.listen_fd < 0) {
    Stop();
    return false;
  }
  im.forwarders = std::make_unique<service::ThreadPool>(
      im.cfg.max_client_connections, im.cfg.max_client_connections);
  im.started = true;
  im.accept_thread = std::thread([&im] { im.AcceptLoop(); });
  im.monitor_thread = std::thread([&im] { im.MonitorLoop(); });
  MERCH_LOG(kInfo) << "router: listening on " << im.cfg.host << ":"
                   << im.port << " with " << im.cfg.shards << " shards";
  return true;
}

std::uint16_t ShardRouter::port() const { return impl_->port; }

void ShardRouter::Stop() {
  Impl& im = *impl_;
  if (im.stopped) return;
  im.stopped = true;
  im.stopping.store(true, std::memory_order_relaxed);
  // Nudge the accept poll by closing the fd it watches.
  if (const int fd = im.listen_fd.exchange(-1); fd >= 0) CloseFd(fd);
  if (im.accept_thread.joinable()) im.accept_thread.join();
  {
    // Force forwarder reads to return so handler jobs drain.
    std::lock_guard<std::mutex> lock(im.mu);
    for (int fd : im.client_fds) ::shutdown(fd, SHUT_RDWR);
  }
  if (im.forwarders != nullptr) im.forwarders->Shutdown();
  if (im.monitor_thread.joinable()) im.monitor_thread.join();

  // Graceful worker shutdown: SIGTERM lets each worker drain and save its
  // snapshot; escalate to SIGKILL only if one wedges.
  for (Impl::Worker& w : im.workers) {
    if (w.pid > 0) ::kill(w.pid, SIGTERM);
  }
  const Clock::time_point deadline =
      Clock::now() + std::chrono::seconds(10);
  for (Impl::Worker& w : im.workers) {
    if (w.pid <= 0) continue;
    int status = 0;
    for (;;) {
      if (::waitpid(w.pid, &status, WNOHANG) == w.pid) break;
      if (Clock::now() >= deadline) {
        ::kill(w.pid, SIGKILL);
        ::waitpid(w.pid, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    w.pid = -1;
  }
}

RouterStats ShardRouter::stats() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->stats;
}

std::vector<int> ShardRouter::worker_pids() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  std::vector<int> pids;
  pids.reserve(impl_->workers.size());
  for (const Impl::Worker& w : impl_->workers) pids.push_back(w.pid);
  return pids;
}

std::vector<std::uint16_t> ShardRouter::worker_ports() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  std::vector<std::uint16_t> ports;
  ports.reserve(impl_->workers.size());
  for (const Impl::Worker& w : impl_->workers) ports.push_back(w.port);
  return ports;
}

std::vector<obs::PeerClock> ShardRouter::worker_clocks() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  std::vector<obs::PeerClock> clocks;
  clocks.reserve(impl_->workers.size());
  for (const Impl::Worker& w : impl_->workers) clocks.push_back(w.clock);
  return clocks;
}

bool ShardRouter::FederatedPrometheus(std::string* out, std::string* error) {
  return impl_->FederatedPrometheus(out, error);
}

}  // namespace merch::net
