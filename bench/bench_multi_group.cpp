// Multi-group node host: fsync amortization from multiplexing a machine log
// across Paxos groups, and the reactor sweep that bounds how far one log can
// be shared. Sweeps the shard count on the 5-node cluster; each cell runs the
// multi-reactor placement (R = min(G, 4), one multiplexed WAL per reactor,
// groups placed g % R) AND the single-reactor configuration (R = 1, the PR-6
// host: everything behind one log), plus a per-group-log baseline (emulated
// as G independent single-group runs with the same per-group client load).
// Writes BENCH_multi_group.json.
//
// Expected shape: a reactor's log folds its groups' appends into one
// group-commit stream, so fsync counts stay well below the per-group-log
// baseline; but ONE log for the whole machine serializes every group behind
// a single flush-in-flight, which is why the R=1 column's throughput decays
// as G grows while the per-reactor column scales. The amortization win is
// largest when per-group concurrency is low (each group alone can't fill a
// commit window) and on slow disks, where fsyncs dominate the write path.
//
// Honesty note (mirrored in DESIGN.md §10/§12): the baseline sums G
// *independent* runs, i.e. per-group logs on per-group spindles. Co-locating
// G separate logs on one physical disk would additionally contend for the
// device, so the fsync-count ratio reported here is a floor on the shared
// log's advantage in ops, not a full device-time model. The sim is
// single-threaded: the reactor dimension models the per-reactor storage
// split (independent flush pipelines on the shared device), not host-CPU
// parallelism — cores/io_backend metadata in the JSON records what the host
// actually had.
#include <cstdio>

#include "common.h"

using namespace rspaxos;
using namespace rspaxos::bench;

namespace {

constexpr int kServers = 5;
constexpr int kClients = 8;       // total closed-loop clients, spread over groups
constexpr uint64_t kTotalOps = 320;
constexpr size_t kValueBytes = 1024;
// Placement cap: models a 4-core machine, matching the default
// reactors = min(hosted groups, hw cores) policy in TcpCluster.
constexpr int kMaxReactors = 4;

int reactors_for(int groups) { return groups < kMaxReactors ? groups : kMaxReactors; }

struct Cell {
  int groups;
  int reactors;            // R used for the multi-reactor run
  double mbps;             // multi-reactor run throughput
  double r1_mbps;          // same cluster forced to one reactor (PR-6 host)
  double p50_ms, p99_ms;   // multi-reactor run write latency
  uint64_t ops;
  uint64_t shared_flushes;     // machine fsyncs, summed over the 5 servers
  uint64_t shared_flushed_mb;
  uint64_t split_flushes;      // per-group-log baseline, summed over G runs
  double amortization() const {
    return shared_flushes ? static_cast<double>(split_flushes) /
                                static_cast<double>(shared_flushes)
                          : 0.0;
  }
  double speedup() const { return r1_mbps > 0 ? mbps / r1_mbps : 0.0; }
};

node::SimClusterOptions cluster_options(const DiskKind& disk, int groups, int reactors) {
  node::SimClusterOptions opts;
  opts.num_servers = kServers;
  opts.num_groups = groups;
  opts.reactors = reactors;
  opts.rs_mode = true;
  opts.f = 1;  // theta(3,5) per group
  opts.link = sim::LinkParams::lan();
  opts.disk = disk.params;
  opts.replica = bench_replica_options(false);
  opts.wal_retain = false;  // no restarts in measurement runs
  // One leader per machine where possible, like a production placement;
  // otherwise server 0 fsyncs for every group and the others idle.
  opts.spread_leaders = true;
  return opts;
}

WorkloadSpec workload(int clients, uint64_t ops, uint64_t seed) {
  WorkloadSpec spec;
  spec.value_min = spec.value_max = kValueBytes;
  spec.read_ratio = 0.0;  // fsyncs only happen on the write path
  spec.num_clients = clients;
  spec.total_ops = ops;
  spec.key_space = 64;
  spec.seed = seed;
  return spec;
}

RunResult run_one(const DiskKind& disk, int groups, int reactors, int clients,
                  uint64_t ops, uint64_t seed) {
  auto world = std::make_unique<sim::SimWorld>(seed);
  node::SimCluster cluster(world.get(), cluster_options(disk, groups, reactors));
  cluster.wait_for_leaders();
  WorkloadDriver driver(world.get(), &cluster, workload(clients, ops, seed));
  return driver.run();
}

Cell measure(const DiskKind& disk, int groups, uint64_t seed) {
  int reactors = reactors_for(groups);
  // Multi-reactor host: groups placed g % R, one multiplexed WAL per reactor.
  RunResult shared = run_one(disk, groups, reactors, kClients, kTotalOps, seed);
  // Single-reactor comparison: the same cluster with every group behind one
  // machine log (the PR-6 host). Same seed so only R differs.
  RunResult one = reactors > 1
                      ? run_one(disk, groups, 1, kClients, kTotalOps, seed)
                      : RunResult{};

  // Per-group-log baseline: G single-group runs, each with the per-group
  // slice of the client pool and of the op budget. Their summed fsync count
  // is what G unshared logs would have issued for the same work.
  int per_group_clients = kClients / groups > 0 ? kClients / groups : 1;
  uint64_t per_group_ops = kTotalOps / static_cast<uint64_t>(groups);
  uint64_t split_flushes = 0;
  for (int g = 0; g < groups; ++g) {
    RunResult solo = run_one(disk, 1, 1, per_group_clients, per_group_ops,
                             seed + 101 + static_cast<uint64_t>(g));
    split_flushes += solo.flush_ops;
  }

  Cell cell;
  cell.groups = groups;
  cell.reactors = reactors;
  cell.mbps = shared.throughput_mbps();
  cell.r1_mbps = reactors > 1 ? one.throughput_mbps() : shared.throughput_mbps();
  cell.p50_ms = static_cast<double>(shared.write_latency_us.value_at(0.50)) / 1000.0;
  cell.p99_ms = static_cast<double>(shared.write_latency_us.value_at(0.99)) / 1000.0;
  cell.ops = shared.ops;
  cell.shared_flushes = shared.flush_ops;
  cell.shared_flushed_mb = shared.flushed_bytes >> 20;
  cell.split_flushes = split_flushes;
  return cell;
}

}  // namespace

int main() {
  const int group_counts[] = {1, 2, 4, 8};
  const DiskKind disks[] = {ssd(), hdd()};

  std::printf("=== Multi-group host: per-reactor logs vs one machine log vs per-group logs ===\n");
  std::printf("(5 nodes, theta(3,5) per group, LAN, %d clients, %lluB writes, %llu ops,"
              " R = min(G, %d))\n\n",
              kClients, static_cast<unsigned long long>(kValueBytes),
              static_cast<unsigned long long>(kTotalOps), kMaxReactors);
  std::printf("%-5s %-6s %-3s | %9s %9s %7s | %8s %8s | %10s %10s %7s\n", "disk",
              "groups", "R", "Mb/s", "R=1 Mb/s", "speedup", "p50 ms", "p99 ms",
              "shared fs", "split fs", "ratio");

  struct DiskRows {
    const char* disk;
    std::vector<Cell> cells;
  };
  std::vector<DiskRows> all;
  uint64_t seed = 41;
  for (const DiskKind& disk : disks) {
    DiskRows rows{disk.name, {}};
    for (int groups : group_counts) {
      Cell c = measure(disk, groups, seed);
      std::printf("%-5s %-6d %-3d | %9.2f %9.2f %6.2fx | %8.2f %8.2f | %10llu %10llu %6.2fx\n",
                  disk.name, c.groups, c.reactors, c.mbps, c.r1_mbps, c.speedup(),
                  c.p50_ms, c.p99_ms,
                  static_cast<unsigned long long>(c.shared_flushes),
                  static_cast<unsigned long long>(c.split_flushes), c.amortization());
      rows.cells.push_back(c);
      seed += 13;
    }
    all.push_back(std::move(rows));
    std::printf("\n");
  }

  std::FILE* f = std::fopen("BENCH_multi_group.json", "w");
  if (!f) {
    std::fprintf(stderr, "cannot write BENCH_multi_group.json\n");
    return 1;
  }
  std::fprintf(f,
               "{\n  \"servers\": %d,\n  \"clients\": %d,\n  \"total_ops\": %llu,\n"
               "  \"value_bytes\": %llu,\n  %s,\n"
               "  \"note\": \"sim-time results; reactors models the per-reactor "
               "WAL split (placement g %% R, R = min(G, %d)), not host-CPU "
               "parallelism. mbps_r1 is the same cluster forced to one machine "
               "log.\",\n  \"rows\": [\n",
               kServers, kClients, static_cast<unsigned long long>(kTotalOps),
               static_cast<unsigned long long>(kValueBytes),
               bench_meta_json(kMaxReactors).c_str(), kMaxReactors);
  bool first = true;
  for (const DiskRows& rows : all) {
    for (const Cell& c : rows.cells) {
      std::fprintf(f,
                   "%s    {\"disk\": \"%s\", \"groups\": %d, \"reactors\": %d, "
                   "\"mbps\": %.2f, \"mbps_r1\": %.2f, \"speedup_vs_r1\": %.2f,\n"
                   "     \"p50_ms\": %.2f, \"p99_ms\": %.2f, \"ops\": %llu,\n"
                   "     \"shared_flush_ops\": %llu, \"shared_flushed_mb\": %llu, "
                   "\"split_flush_ops\": %llu, \"amortization\": %.2f}",
                   first ? "" : ",\n", rows.disk, c.groups, c.reactors, c.mbps,
                   c.r1_mbps, c.speedup(), c.p50_ms, c.p99_ms,
                   static_cast<unsigned long long>(c.ops),
                   static_cast<unsigned long long>(c.shared_flushes),
                   static_cast<unsigned long long>(c.shared_flushed_mb),
                   static_cast<unsigned long long>(c.split_flushes), c.amortization());
      first = false;
    }
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("wrote BENCH_multi_group.json\n");
  return 0;
}
