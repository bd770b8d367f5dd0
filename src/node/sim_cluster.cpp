#include "node/sim_cluster.h"

#include <cassert>

#include "net/routing.h"
#include "util/logging.h"

namespace rspaxos::node {

SimCluster::SimCluster(sim::SimWorld* world, SimClusterOptions opts)
    : world_(world), opts_(std::move(opts)), network_(world) {
  [[maybe_unused]] Status st = finalize_cluster_options(opts_);
  assert(st.is_ok());
  const int R = opts_.reactors;
  network_.set_default_link(opts_.link);
  disks_.reserve(static_cast<size_t>(opts_.num_servers));
  for (int s = 0; s < opts_.num_servers; ++s) {
    disks_.push_back(std::make_unique<sim::SimDisk>(world_, opts_.disk));
  }
  wals_.resize(static_cast<size_t>(opts_.num_servers) * static_cast<size_t>(R));
  hosts_.resize(static_cast<size_t>(opts_.num_servers));
  balancers_.resize(static_cast<size_t>(opts_.num_servers));
  snaps_.resize(static_cast<size_t>(opts_.num_servers) *
                static_cast<size_t>(opts_.num_groups));
  alive_.assign(static_cast<size_t>(opts_.num_servers), true);
  for (int s = 0; s < opts_.num_servers; ++s) {
    for (int r = 0; r < R; ++r) {
      // All reactors of a machine share its one disk, so contention is
      // modeled — only the one-flush-in-flight-per-log serialization is gone.
      wals_[widx(s, r)] = std::make_unique<storage::SimWal>(
          disks_[static_cast<size_t>(s)].get(), opts_.wal_retain,
          NodeHost::groups_on_reactor(static_cast<uint32_t>(opts_.num_groups),
                                      static_cast<uint32_t>(R), static_cast<uint32_t>(r)));
    }
    for (int g = 0; g < opts_.num_groups; ++g) {
      snaps_[idx(s, g)] = std::make_unique<snapshot::SimSnapshotStore>(
          disks_[static_cast<size_t>(s)].get());
    }
    build_host(s, /*restart=*/false);
  }
}

void SimCluster::build_host(int s, bool restart) {
  std::vector<storage::MuxWal*> host_wals;
  for (int r = 0; r < opts_.reactors; ++r) host_wals.push_back(wals_[widx(s, r)].get());
  auto& host = hosts_[static_cast<size_t>(s)];
  // No PostFn: the sim is single-threaded, so inline bring-up is safe.
  host = build_cluster_host(
      opts_, s, restart, [this](NodeId id) -> NodeContext* { return network_.node(id); },
      std::move(host_wals), [this, s](uint32_t g) -> snapshot::SnapshotStore* {
        return snaps_[idx(s, static_cast<int>(g))].get();
      });
  host->start();
  if (opts_.balancer) {
    auto& bal = balancers_[static_cast<size_t>(s)];
    bal = std::make_unique<Balancer>(host.get(), opts_.balancer_opts);
    bal->start();
  }
}

void SimCluster::wait_for_leaders(DurationMicros max_wait) {
  TimeMicros deadline = world_->now() + max_wait;
  while (world_->now() < deadline) {
    bool all = true;
    for (int g = 0; g < opts_.num_groups; ++g) {
      if (leader_server_of(g) < 0) {
        all = false;
        break;
      }
    }
    if (all) return;
    world_->run_for(10 * kMillis);
  }
  RSP_WARN << "wait_for_leaders: timed out";
}

std::unique_ptr<kv::KvClient> SimCluster::make_client(kv::KvClient::Options copts) {
  sim::SimNode* node = network_.node(net::kClientBase + static_cast<NodeId>(next_client_++));
  auto client = std::make_unique<kv::KvClient>(node, routing(), copts);
  node->set_handler(client.get());
  return client;
}

void SimCluster::crash_server(int s) {
  alive_[static_cast<size_t>(s)] = false;
  balancers_[static_cast<size_t>(s)].reset();  // holds the host pointer
  for (int g = 0; g < opts_.num_groups; ++g) {
    network_.crash(net::endpoint_id(s, g));
    snaps_[idx(s, g)]->drop_unflushed();  // in-flight snapshot saves gone
  }
  hosts_[static_cast<size_t>(s)].reset();  // volatile state gone (all groups)
  // Power failure: un-synced records on every one of the machine's logs gone.
  for (int r = 0; r < opts_.reactors; ++r) wals_[widx(s, r)]->drop_unflushed();
}

void SimCluster::restart_server(int s) {
  alive_[static_cast<size_t>(s)] = true;
  for (int g = 0; g < opts_.num_groups; ++g) {
    network_.restart(net::endpoint_id(s, g));
  }
  build_host(s, /*restart=*/true);  // WAL replay happens in start()
}

int SimCluster::leader_server_of(int group) const {
  for (int s = 0; s < opts_.num_servers; ++s) {
    if (!alive_[static_cast<size_t>(s)]) continue;
    const auto& host = hosts_[static_cast<size_t>(s)];
    kv::KvServer* srv = host ? host->server(static_cast<uint32_t>(group)) : nullptr;
    if (srv && srv->replica().is_leader()) return s;
  }
  return -1;
}

uint64_t SimCluster::total_network_bytes() const { return network_.total_bytes_sent(); }

uint64_t SimCluster::total_flushed_bytes() const {
  uint64_t total = 0;
  for (const auto& w : wals_) total += w->bytes_flushed();
  return total;
}

uint64_t SimCluster::total_flush_ops() const {
  uint64_t total = 0;
  for (const auto& w : wals_) total += w->flush_ops();
  return total;
}

}  // namespace rspaxos::node
