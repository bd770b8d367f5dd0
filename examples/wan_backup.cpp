// Scenario: an enterprise backup service replicating large objects across
// five sites over a 50±10 ms / 500 Mbps private WAN — the paper's LARGE-WRITE
// motivation (§6.3). Shows per-object commit latency and total WAN traffic
// for RS-Paxos vs Paxos on the same object stream.
//
// Build & run:   ./build/examples/wan_backup
#include <cstdio>

#include "node/sim_cluster.h"
#include "util/histogram.h"

using namespace rspaxos;

namespace {

struct Outcome {
  Histogram latency;
  uint64_t wan_bytes;
  DurationMicros elapsed;
};

Outcome run_backup(bool rs_mode) {
  sim::SimWorld world(555);
  node::SimClusterOptions opts;
  opts.num_servers = 5;
  opts.rs_mode = rs_mode;
  opts.f = 1;
  opts.link = sim::LinkParams::wan();
  opts.disk = sim::DiskParams::hdd();  // backup tier: cheap spinning disks
  opts.replica.heartbeat_interval = 150 * kMillis;
  opts.replica.election_timeout_min = 1200 * kMillis;
  opts.replica.election_timeout_max = 2000 * kMillis;
  opts.replica.lease_duration = 1000 * kMillis;
  node::SimCluster cluster(&world, opts);
  cluster.wait_for_leaders();

  // Client co-located with the leader site (zero-cost link), like a backup
  // agent running in the primary datacenter.
  sim::LinkParams free_link{0, 0, 0.0, 0.0, 1e15};
  for (int s = 0; s < 5; ++s) {
    cluster.network().set_link(net::kClientBase, net::endpoint_id(s, 0), free_link);
    cluster.network().set_link(net::endpoint_id(s, 0), net::kClientBase, free_link);
  }
  auto client = cluster.make_client();

  Outcome out{};
  uint64_t net0 = cluster.total_network_bytes();
  TimeMicros t0 = world.now();
  Rng rng(7);
  for (int i = 0; i < 12; ++i) {
    size_t size = static_cast<size_t>(rng.uniform(2, 8)) << 20;  // 2-8 MB objects
    Bytes object(size, static_cast<uint8_t>(i));
    bool done = false;
    TimeMicros begin = world.now();
    client->put("backup/chunk-" + std::to_string(i), std::move(object), [&](Status s) {
      if (s.is_ok()) out.latency.record(world.now() - begin);
      done = true;
    });
    TimeMicros deadline = world.now() + 300 * kSeconds;
    while (!done && world.now() < deadline) world.run_for(10 * kMillis);
  }
  out.wan_bytes = cluster.total_network_bytes() - net0;
  out.elapsed = world.now() - t0;
  return out;
}

}  // namespace

int main() {
  std::printf("WAN backup scenario — 5 sites, 50±10 ms, 500 Mbps, HDD tier\n");
  std::printf("12 objects of 2-8 MB committed through the replicated log\n\n");
  Outcome rs = run_backup(true);
  Outcome paxos = run_backup(false);

  std::printf("%-22s %14s %14s\n", "", "Paxos", "RS-Paxos");
  std::printf("%-22s %12.0fms %12.0fms\n", "mean commit latency",
              paxos.latency.mean() / 1000.0, rs.latency.mean() / 1000.0);
  std::printf("%-22s %12.0fms %12.0fms\n", "p99 commit latency",
              static_cast<double>(paxos.latency.value_at(0.99)) / 1000.0,
              static_cast<double>(rs.latency.value_at(0.99)) / 1000.0);
  std::printf("%-22s %13.1fMB %13.1fMB\n", "WAN bytes",
              static_cast<double>(paxos.wan_bytes) / 1e6,
              static_cast<double>(rs.wan_bytes) / 1e6);
  std::printf("%-22s %13.1fs %13.1fs\n", "total wall (sim)",
              static_cast<double>(paxos.elapsed) / 1e6,
              static_cast<double>(rs.elapsed) / 1e6);
  std::printf("\nWith theta(3,5), each accept carries 1/3 of the object — the WAN\n"
              "traffic and the serialization delay on the leader's uplink shrink\n"
              "accordingly (paper §6.2.1, wide area).\n");
  return 0;
}
