// Real-TCP cluster assembly: the §5 substrate under the shared host wiring of
// node/cluster.h (SimCluster is the simulated counterpart).
//
// Each server's reactor r gets its OWN listen port + reactor thread (TcpHost
// via the reactor-aware HostMap{kGroupStride, reactors}) and its own
// fsync'ing FileWal, so a frame addressed to group g's endpoint lands
// directly on the loop that owns it (reactor g % reactors) — no cross-core
// handoff. The snapshot root (GroupedSnapshotStore) stays per-server. Large
// encodes go to one EC worker pool shared by every replica: min(4, cores)
// workers, started on demand. Client endpoints are separate hosts with their
// own ports (ids >= kClientBase never stride).
//
// Durable state lives under `<data_dir>/s<k>/` (reactor r > 0 appends `.r<r>`
// to the WAL file name); reopening the same directory with the SAME reactor
// count restarts the cluster from its WALs and snapshots; another reactor
// count would re-partition groups across logs and is not supported.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ec/ec_pool.h"
#include "kv/client.h"
#include "net/tcp_transport.h"
#include "node/cluster.h"
#include "node/node_host.h"
#include "obs/admin_server.h"
#include "snapshot/snapshot_store.h"
#include "storage/file_wal.h"

namespace rspaxos::node {

/// Shared fields in ClusterOptions; these are the TCP-only ones.
struct TcpClusterOptions : ClusterOptions {
  /// Client ports are reserved up front alongside the server ports (ports
  /// cannot be grown later without re-racing free_ports).
  int num_clients = 1;
  int64_t wal_group_commit_window_us = 200;
  /// Root of all durable state; server s uses `<data_dir>/s<s>/`. Required.
  std::string data_dir;
  /// Start a per-server admin HTTP endpoint serving GET /metrics, /status,
  /// /healthz, /traces/recent and /routing on 127.0.0.1 (ephemeral port
  /// unless admin_base_port is set; read back via admin_port(s)).
  bool admin = false;
  /// 0 = ephemeral; otherwise server s binds admin_base_port + s.
  uint16_t admin_base_port = 0;
};

/// Owns the transport, per-server WALs/snapshot stores and NodeHosts. start()
/// brings every server up; the destructor tears down in the safe order
/// (handlers detached, reactors stopped, servers and WALs freed, and the
/// transport's endpoints last).
class TcpCluster {
 public:
  /// Status::invalid when finalize_cluster_options() rejects `opts` or
  /// data_dir is empty.
  static StatusOr<std::unique_ptr<TcpCluster>> start(TcpClusterOptions opts);
  ~TcpCluster();

  TcpCluster(const TcpCluster&) = delete;
  TcpCluster& operator=(const TcpCluster&) = delete;

  const TcpClusterOptions& options() const { return opts_; }
  /// Reactor count per server, clamped to [1, num_groups] at start().
  int reactors() const { return opts_.reactors; }
  NodeHost& host(int s) { return *hosts_[static_cast<size_t>(s)]; }
  kv::KvServer* server(int s, uint32_t g) { return hosts_[static_cast<size_t>(s)]->server(g); }
  net::TcpNode* endpoint(int s, uint32_t g);
  /// Reactor r's multiplexed log on server s (its groups share the flushes).
  storage::FileWal& wal(int s, int r = 0) {
    return *wals_[static_cast<size_t>(s * opts_.reactors + r)];
  }
  /// The server's one snapshot root (per-group slots inside).
  snapshot::GroupedSnapshotStore& snap_store(int s) {
    return *snaps_[static_cast<size_t>(s)];
  }

  kv::RoutingTable routing() const { return cluster_routing(opts_); }
  /// Claims the next pre-reserved client endpoint (its own socket + loop).
  /// Fails after options().num_clients claims.
  StatusOr<net::TcpNode*> start_client();

  /// Which server currently leads group g (-1 when none); polls each
  /// replica on its own loop thread, so callable from any thread.
  int leader_server_of(uint32_t g);

  /// Bound admin port of server s (0 when options().admin is false).
  uint16_t admin_port(int s) const {
    size_t i = static_cast<size_t>(s);
    return i < admins_.size() && admins_[i] ? admins_[i]->port() : 0;
  }

 private:
  explicit TcpCluster(TcpClusterOptions opts) : opts_(std::move(opts)) {}
  Status boot();
  Status start_admin(int s);

  TcpClusterOptions opts_;
  std::unique_ptr<net::TcpTransport> transport_;
  /// Shared EC worker pool: destroyed after hosts stop (no new submissions)
  /// but before the transport (queued completions post onto live loops).
  std::unique_ptr<ec::EcWorkerPool> ec_pool_;
  std::vector<std::unique_ptr<storage::FileWal>> wals_;  // [s * reactors + r]
  std::vector<std::unique_ptr<snapshot::GroupedSnapshotStore>> snaps_;  // per server
  std::vector<std::unique_ptr<NodeHost>> hosts_;                        // per server
  std::vector<std::unique_ptr<obs::AdminServer>> admins_;               // per server
  std::map<NodeId, net::TcpNode*> endpoints_;  // every started server endpoint
  int next_client_ = 0;
};

}  // namespace rspaxos::node
