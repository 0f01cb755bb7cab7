// Shard router: a multi-process scale-out front for the placement service.
//
// The router spawns N worker processes (each a `merchd --listen` server on
// an ephemeral port), monitors them (restart-on-crash), and forwards every
// client request to the shard chosen by hashing the request's canonical
// key (FNV-1a 64). Determinism makes this sound by construction: any
// worker answers any canonical request bit-identically, so shard placement
// only affects cache locality — a key always lands on the same shard, so
// each worker's ResultCache concentrates on its slice of the key space.
//
// Data path: client connections are handled by a bounded pool of forwarder
// threads (one per connection for its lifetime), started as connections
// arrive, so an idle router holds none. Up to max_client_connections
// connections are served and as many more wait for a forwarder; a
// connection beyond that is answered with RETRY_LATER and closed — the
// router sheds at the connection level, workers shed at the request
// level. Each
// forwarder keeps one lazy connection per shard and retries a failed
// forward once (covering worker restarts) before answering UNAVAILABLE.
//
// Worker bootstrap: the router appends `--listen --port 0 --port-file
// <tmp>` to `worker_command` and reads the ephemeral port from the file —
// no port races, no fixed ranges.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/distributed/export.h"

namespace merch::net {

struct RouterConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = ephemeral
  std::size_t shards = 2;
  /// Binary + base flags for one worker (e.g. {"./merchd", "--threads",
  /// "2"}); the router appends the --listen/--port/--port-file plumbing.
  std::vector<std::string> worker_command;
  /// When non-empty, each worker gets `--snapshot-save <prefix>.shard<i>`
  /// appended so shards persist their cache slice without clobbering each
  /// other (the FNV shard hash is build-stable, so a reload stays warm).
  std::string worker_snapshot_save_prefix;
  /// Forwarder pool width == concurrent client connections served; as many
  /// more may wait for a forwarder. Forwarder threads start on demand.
  std::size_t max_client_connections = 64;
  bool restart_workers = true;
  std::size_t max_frame_bytes = 4u << 20;
  /// Seconds to wait for a spawned worker to publish its port.
  double worker_start_timeout_seconds = 30.0;
  /// When non-empty, each worker gets `--trace <prefix>.shard<i>.json
  /// --process-name shard<i>` appended, and the router ping-syncs every
  /// worker's trace clock after spawn (see worker_clocks()) so
  /// tools/trace_merge can put all exports on one timeline.
  std::string worker_trace_prefix;
  /// Identity in v2 pongs / metrics replies and the `shard` label of the
  /// router's own series in federated exports.
  std::string process_name = "router";
  /// Ping round trips per clock-offset estimate (minimum-RTT sample wins).
  int clock_sync_samples = 8;
};

struct RouterStats {
  std::uint64_t connections = 0;
  std::uint64_t refused_connections = 0;
  std::uint64_t forwarded = 0;       // request frames relayed to a shard
  std::uint64_t worker_errors = 0;   // forwards that failed both attempts
  std::uint64_t restarts = 0;        // workers respawned after a crash
  std::uint64_t protocol_errors = 0;
};

/// Stable shard hash (not std::hash: must be identical across builds so
/// snapshot pre-sharding stays meaningful).
std::uint64_t Fnv1a64(const std::string& s);

class ShardRouter {
 public:
  explicit ShardRouter(RouterConfig config);
  ~ShardRouter();

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Spawn workers, wait for their ports, bind, start accept + monitor
  /// threads. False (with `*error`) if any worker fails to come up.
  bool Start(std::string* error);

  std::uint16_t port() const;

  /// Stop accepting, disconnect clients, SIGTERM workers (they drain
  /// gracefully), reap them. Idempotent.
  void Stop();

  RouterStats stats() const;

  /// Worker pids by shard (tests kill one to exercise restart-on-crash).
  std::vector<int> worker_pids() const;

  /// Worker ports by shard (tests pull per-shard metrics directly).
  std::vector<std::uint16_t> worker_ports() const;

  /// Measured worker trace-clock offsets (empty entries when the local
  /// recorder was not running at spawn time). Feed these to
  /// obs::WriteProcessTrace as `peers` so trace_merge can align shards.
  std::vector<obs::PeerClock> worker_clocks() const;

  /// One fleet-level Prometheus export: the router's own registry plus a
  /// live kMetrics pull from every shard, merged by obs::FederateMetrics.
  /// False (with `*error`) if a shard is unreachable or the shard exports
  /// disagree on histogram bucket layouts.
  bool FederatedPrometheus(std::string* out, std::string* error);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace merch::net
