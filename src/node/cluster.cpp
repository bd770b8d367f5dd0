#include "node/cluster.h"

#include <algorithm>
#include <cassert>
#include <string>

#include "consensus/config.h"
#include "net/routing.h"

namespace rspaxos::node {

using consensus::GroupConfig;

namespace {

std::vector<NodeId> group_members(const ClusterOptions& o, int g) {
  std::vector<NodeId> members;
  members.reserve(static_cast<size_t>(o.num_servers));
  for (int s = 0; s < o.num_servers; ++s) members.push_back(net::endpoint_id(s, g));
  return members;
}

/// Group g's members and quorums; finalize_cluster_options() checked that
/// the rs geometry is feasible.
GroupConfig cluster_group_config(const ClusterOptions& o, int g) {
  if (!o.rs_mode) return GroupConfig::majority(group_members(o, g));
  auto cfg = GroupConfig::rs_max_x(group_members(o, g), o.f);
  assert(cfg.is_ok());
  GroupConfig c = std::move(cfg).value();
  c.code = o.code;
  return c;
}

}  // namespace

Status finalize_cluster_options(ClusterOptions& o) {
  if (o.num_servers < 1 || o.num_groups < 1) {
    return Status::invalid("cluster: need at least one server and one group");
  }
  if (o.num_groups >= static_cast<int>(net::kGroupStride)) {
    return Status::invalid("cluster: num_groups exceeds kGroupStride");
  }
  o.reactors = std::clamp(o.reactors, 1, o.num_groups);
  if (o.rs_mode) {
    auto cfg = GroupConfig::rs_max_x(group_members(o, 0), o.f);
    Status st = cfg.status();
    if (st.is_ok()) {
      GroupConfig c = std::move(cfg).value();
      c.code = o.code;
      st = c.validate();
    }
    if (!st.is_ok()) {
      return Status::invalid("cluster: rs_mode with f=" + std::to_string(o.f) + " on " +
                             std::to_string(o.num_servers) + " servers: " + st.message());
    }
  }
  return Status::ok();
}

kv::RoutingTable cluster_routing(const ClusterOptions& o) {
  kv::RoutingTable rt;
  rt.group_members.resize(static_cast<size_t>(o.num_groups));
  for (int g = 0; g < o.num_groups; ++g) {
    rt.group_members[static_cast<size_t>(g)] = group_members(o, g);
  }
  int shards = o.num_shards > 0 ? o.num_shards : o.num_groups;
  rt.map = kv::ShardMap::identity(static_cast<uint32_t>(shards),
                                  static_cast<uint32_t>(o.num_groups));
  return rt;
}

std::unique_ptr<NodeHost> build_cluster_host(const ClusterOptions& o, int s, bool restart,
                                             NodeHost::EndpointFn endpoints,
                                             std::vector<storage::MuxWal*> wals,
                                             NodeHost::SnapshotFn snaps,
                                             ec::EcWorkerPool* ec_pool,
                                             NodeHost::PostFn post) {
  NodeHostOptions hopts;
  hopts.replica = o.replica;
  hopts.replica.ec_pool = ec_pool;
  hopts.kv = o.kv;
  hopts.health = o.health;
  hopts.num_shards = static_cast<uint32_t>(std::max(0, o.num_shards));
  NodeHost::BootstrapFn boot;  // a rejoining machine never campaigns at boot
  if (!restart) {
    boot = [&o, s](uint32_t g) {
      return o.spread_leaders ? static_cast<int>(g) % o.num_servers == s : s == 0;
    };
  }
  return std::make_unique<NodeHost>(
      s, static_cast<uint32_t>(o.num_groups), std::move(endpoints), std::move(wals),
      std::move(snaps),
      [&o](uint32_t g) { return cluster_group_config(o, static_cast<int>(g)); }, hopts,
      std::move(boot), std::move(post));
}

}  // namespace rspaxos::node
