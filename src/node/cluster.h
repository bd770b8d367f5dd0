// Host wiring shared by the two assemblies of §6.1's testbed, SimCluster
// (node/sim_cluster.h) and TcpCluster (node/tcp_cluster.h): `num_servers`
// machines, each a NodeHost with one replica of every Paxos group, endpoint
// s * kGroupStride + g (net/routing.h). Each assembly injects only its
// substrate — endpoints, logs, snapshot stores — into build_cluster_host().
#pragma once

#include <memory>
#include <vector>

#include "consensus/replica.h"
#include "ec/code_id.h"
#include "kv/client.h"
#include "kv/server.h"
#include "node/node_host.h"
#include "obs/health.h"
#include "storage/wal.h"
#include "util/status.h"

namespace rspaxos::node {

struct ClusterOptions {
  int num_servers = 5;
  int num_groups = 1;
  /// Key-space shards for elastic resharding. 0 = num_groups (the historical
  /// one-shard-per-group contract as epoch 0 of a live routing table).
  int num_shards = 0;
  /// Reactors (event loop + endpoints + WAL + watchdog) per server, clamped
  /// to [1, num_groups] by finalize_cluster_options(). Group g lives on
  /// reactor g % reactors.
  int reactors = 1;
  /// true: RS-Paxos with QR=QW=N-f, X=N-2f; false: classic majority Paxos.
  bool rs_mode = true;
  int f = 1;  // target fault tolerance for rs_mode
  /// Erasure-code policy for every group (rs_mode only). Non-rs codes must
  /// keep the quorum equation feasible for the derived θ(X,N) — hh is MDS
  /// and always qualifies; lrc only when its any-subset-decodable fits the
  /// quorums (finalize_cluster_options() rejects it otherwise).
  ec::CodeId code = ec::CodeId::kRs;
  consensus::ReplicaOptions replica;
  kv::KvServerOptions kv;
  /// true: group g's deterministic initial leader campaigns on server
  /// g % num_servers (distinct leaders per shard); false: server 0 leads
  /// every group.
  bool spread_leaders = false;
  /// Health watchdog configuration forwarded to every NodeHost.
  obs::HealthOptions health;
};

/// Clamps `reactors` to [1, num_groups] (an empty reactor would have no
/// endpoint to run on) and checks the geometry: at least one server and one
/// group, fewer groups than kGroupStride, and in rs_mode a θ(N-2f, N) config
/// that `code` can decode. Both assemblies call it once, before building
/// anything; every other function here assumes it passed.
Status finalize_cluster_options(ClusterOptions& o);

/// Epoch-0 routing table: fresh clients boot on the identity shard map and
/// self-heal from kWrongShard redirects / piggybacked epochs if shards have
/// since moved.
kv::RoutingTable cluster_routing(const ClusterOptions& o);

/// Server s's NodeHost, not yet started: every group's replica and KV
/// options, config and bootstrap flag come from `o`, which must outlive the
/// host. Group g's initial leader is server g % num_servers with
/// spread_leaders, else server 0; `restart` = the machine is rejoining, so no
/// group campaigns at boot. `wals` holds one MuxWal per reactor. `ec_pool`
/// (may be null) is the shared off-loop encoder; `post` as for NodeHost.
std::unique_ptr<NodeHost> build_cluster_host(const ClusterOptions& o, int s, bool restart,
                                             NodeHost::EndpointFn endpoints,
                                             std::vector<storage::MuxWal*> wals,
                                             NodeHost::SnapshotFn snaps,
                                             ec::EcWorkerPool* ec_pool = nullptr,
                                             NodeHost::PostFn post = {});

}  // namespace rspaxos::node
