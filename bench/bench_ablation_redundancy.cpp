// Ablation: network bytes and disk-flush bytes per committed write as a
// function of X (the design choice DESIGN.md calls out). Sweeps the feasible
// max-X configurations for N=5 and N=7 and compares measured cost against the
// 1/X theory of §3.2, plus storage redundancy against n/x of §2.2.
#include <cstdio>

#include "common.h"

using namespace rspaxos;
using namespace rspaxos::bench;

namespace {

struct CostRow {
  int n, f, x;
  double net_bytes_per_write;
  double flush_bytes_per_write;
  double theory_factor;  // expected cost relative to full-copy Paxos
};

CostRow measure(int n, int f, size_t value_size, uint64_t writes) {
  auto world = std::make_unique<sim::SimWorld>(5);
  node::SimClusterOptions opts;
  opts.num_servers = n;
  opts.num_groups = 1;
  opts.rs_mode = true;
  opts.f = f;
  opts.link = sim::LinkParams::lan();
  opts.disk = sim::DiskParams::ssd();
  opts.replica = bench_replica_options(false);
  node::SimCluster cluster(world.get(), opts);
  cluster.wait_for_leaders();

  WorkloadSpec spec;
  spec.value_min = spec.value_max = value_size;
  spec.num_clients = 4;
  spec.key_space = 32;
  spec.total_ops = writes;
  WorkloadDriver driver(world.get(), &cluster, spec);
  RunResult r = driver.run();

  int x = n - 2 * f;
  CostRow row;
  row.n = n;
  row.f = f;
  row.x = x;
  // Subtract client -> leader ingress (one full value per write): the 1/X
  // claim is about the *replication* traffic of the accept phase.
  double ingress = static_cast<double>(r.value_bytes);
  row.net_bytes_per_write =
      (static_cast<double>(r.network_bytes) - ingress) / static_cast<double>(writes);
  row.flush_bytes_per_write = static_cast<double>(r.flushed_bytes) / writes;
  row.theory_factor = 1.0 / x;
  return row;
}

}  // namespace

int main() {
  constexpr size_t kValue = 512u << 10;
  constexpr uint64_t kWrites = 100;
  std::printf("=== Ablation: per-write network/disk cost vs X (value=512K) ===\n");
  std::printf("%3s %3s %3s %14s %14s %12s %12s\n", "N", "F", "X", "net B/write",
              "flush B/write", "net vs X=1", "theory 1/X");

  // Baselines: X=1 at each N (classic Paxos cost).
  double base5 = 0, base7 = 0;
  struct Item {
    int n, f;
  };
  for (Item it : {Item{5, 2}, Item{5, 1}, Item{7, 3}, Item{7, 2}, Item{7, 1}}) {
    CostRow row = measure(it.n, it.f, kValue, kWrites);
    double& base = (it.n == 5) ? base5 : base7;
    if (row.x == 1) base = row.net_bytes_per_write;
    double rel = base > 0 ? row.net_bytes_per_write / base : 0.0;
    std::printf("%3d %3d %3d %14.0f %14.0f %11.2fx %11.2fx\n", row.n, row.f, row.x,
                row.net_bytes_per_write, row.flush_bytes_per_write, rel,
                row.theory_factor);
  }
  std::printf("\npaper check (§1): dropping one tolerated failure (X=1 -> X>=2)\n"
              "saves over 50%% of network transmission and disk I/O; measured\n"
              "ratios above should track 1/X (plus small header overhead).\n");

  // Durable storage redundancy check against §2.2's r = n/x: bytes fsync'd
  // across the cluster per byte of committed value data ("both leader and
  // follower only need to flush the coded shares into disks", §1).
  std::printf("\n%3s %3s %3s %16s %12s\n", "N", "F", "X", "measured disk r",
              "theory n/x");
  for (Item it : {Item{5, 1}, Item{7, 2}, Item{7, 1}}) {
    auto world = std::make_unique<sim::SimWorld>(6);
    node::SimClusterOptions opts;
    opts.num_servers = it.n;
    opts.rs_mode = true;
    opts.f = it.f;
    opts.replica = bench_replica_options(false);
    node::SimCluster cluster(world.get(), opts);
    cluster.wait_for_leaders();
    WorkloadSpec spec;
    spec.value_min = spec.value_max = kValue;
    spec.num_clients = 2;
    spec.key_space = 16;
    spec.total_ops = 32;
    WorkloadDriver driver(world.get(), &cluster, spec);
    RunResult rr = driver.run();
    world->run_for(2 * kSeconds);
    double r = static_cast<double>(rr.flushed_bytes) / static_cast<double>(rr.value_bytes);
    int x = it.n - 2 * it.f;
    std::printf("%3d %3d %3d %16.3f %12.3f\n", it.n, it.f, x, r,
                static_cast<double>(it.n) / x);
  }
  return 0;
}
