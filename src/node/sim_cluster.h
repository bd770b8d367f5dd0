// Simulated KV cluster assembly (§6.1's testbed in miniature): the shared
// host wiring of node/cluster.h over a simulated substrate. Per machine there
// is one simulated disk and, per reactor, ONE multiplexed SimWal shared by
// that reactor's groups — group commit batches flushes across shards,
// mirroring FileWal's shared-segment layout on the paper's EBS volumes. The
// sim stays single-threaded: reactors model only this storage split, so group
// commits of different reactors overlap at the disk instead of serializing
// behind one log's in-flight flush. Health probes run on sim timers, so lag
// values stay deterministic.
#pragma once

#include <memory>
#include <vector>

#include "kv/client.h"
#include "kv/server.h"
#include "node/balancer.h"
#include "node/cluster.h"
#include "node/node_host.h"
#include "sim/sim_disk.h"
#include "sim/sim_network.h"
#include "sim/sim_world.h"
#include "snapshot/sim_snapshot_store.h"
#include "storage/sim_wal.h"

namespace rspaxos::node {

/// Shared fields in ClusterOptions; these are the sim-only ones.
struct SimClusterOptions : ClusterOptions {
  sim::LinkParams link = sim::LinkParams::lan();
  sim::DiskParams disk = sim::DiskParams::ssd();
  /// false: WALs account durable bytes but keep no records (no replay);
  /// benchmarks that never restart servers use this to bound host memory.
  bool wal_retain = true;
  /// Run a background Balancer on every server (the meta-group leader's is
  /// the one that acts; see node/balancer.h).
  bool balancer = false;
  BalancerOptions balancer_opts;
};

/// Owns everything: network, disks, WALs, hosts. Crash/restart a whole
/// machine; rebuild state from the WALs like §4.5 describes.
class SimCluster {
 public:
  /// Asserts that finalize_cluster_options() accepts `opts`: a misconfigured
  /// geometry is a test-author error.
  SimCluster(sim::SimWorld* world, SimClusterOptions opts);

  /// Runs the simulation until every group has an elected leader.
  void wait_for_leaders(DurationMicros max_wait = 30 * kSeconds);

  kv::KvServer* server(int s, int g) {
    auto& h = hosts_[static_cast<size_t>(s)];
    return h ? h->server(static_cast<uint32_t>(g)) : nullptr;
  }
  NodeHost* host(int s) { return hosts_[static_cast<size_t>(s)].get(); }
  Balancer* balancer(int s) { return balancers_[static_cast<size_t>(s)].get(); }
  sim::SimNetwork& network() { return network_; }
  sim::SimDisk& disk(int s) { return *disks_[static_cast<size_t>(s)]; }
  /// Group g's view of its reactor's log on server s (the Wal the replica
  /// writes): reactor g % R, group-local index g / R.
  storage::Wal& wal(int s, int g) {
    int r = g % opts_.reactors;
    return *wals_[widx(s, r)]->group(static_cast<uint32_t>(g / opts_.reactors));
  }
  /// Reactor r's machine log on server s, multiplexed across its groups.
  storage::SimWal& host_wal(int s, int r = 0) { return *wals_[widx(s, r)]; }
  snapshot::SimSnapshotStore& snap_store(int s, int g) { return *snaps_[idx(s, g)]; }
  const SimClusterOptions& options() const { return opts_; }

  kv::RoutingTable routing() const { return cluster_routing(opts_); }

  /// Creates the next client endpoint (kClientBase, kClientBase + 1, ...)
  /// and a KvClient bound to it.
  std::unique_ptr<kv::KvClient> make_client(kv::KvClient::Options copts = {});

  /// Machine-level crash (§6.4): all groups on the server stop; unflushed
  /// WAL records are lost; volatile state is destroyed.
  void crash_server(int s);
  /// Restart: replay the WALs, rejoin all groups.
  void restart_server(int s);
  bool server_alive(int s) const { return alive_[static_cast<size_t>(s)]; }

  /// -1 if no (live) leader.
  int leader_server_of(int group) const;

  // Cost metrics across the whole cluster (the paper's two cost axes).
  uint64_t total_network_bytes() const;
  uint64_t total_flushed_bytes() const;
  uint64_t total_flush_ops() const;

 private:
  size_t idx(int s, int g) const {
    return static_cast<size_t>(s) * static_cast<size_t>(opts_.num_groups) +
           static_cast<size_t>(g);
  }
  size_t widx(int s, int r) const {
    return static_cast<size_t>(s) * static_cast<size_t>(opts_.reactors) +
           static_cast<size_t>(r);
  }
  void build_host(int s, bool restart);

  sim::SimWorld* world_;
  SimClusterOptions opts_;
  sim::SimNetwork network_;
  std::vector<std::unique_ptr<sim::SimDisk>> disks_;                // per server
  std::vector<std::unique_ptr<storage::SimWal>> wals_;              // [s * reactors + r]
  std::vector<std::unique_ptr<snapshot::SimSnapshotStore>> snaps_;  // per (s, g)
  std::vector<std::unique_ptr<NodeHost>> hosts_;                    // per server
  std::vector<std::unique_ptr<Balancer>> balancers_;                // per server
  std::vector<bool> alive_;
  int next_client_ = 0;
};

}  // namespace rspaxos::node
