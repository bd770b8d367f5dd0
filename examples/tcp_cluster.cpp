// Real-stack example: a multi-shard RS-Paxos deployment over actual TCP
// sockets on localhost. Each of the five "machines" is one node::NodeHost —
// ONE listen port, ONE I/O thread, ONE fsync'ing FileWal and ONE snapshot
// root — serving a replica of every Paxos group. Keys hash across the groups
// (kv::shard_of), so the shards commit independently while sharing each
// machine's group-commit stream.
//
// Every machine also exposes its live introspection plane — an admin HTTP
// endpoint on 127.0.0.1 serving GET /metrics (Prometheus), /status (per-group
// consensus state as JSON), /healthz (event-loop / fsync watchdog) and
// /traces/recent (span trees of recent commits). Pass a number of seconds to
// keep the cluster alive after the demo workload so you can poke it:
//
//   ./build/examples/tcp_cluster 60 &
//   curl localhost:<admin_port>/status     # ports are printed at startup
//
// Build & run:   ./build/examples/tcp_cluster [serve_seconds]
#include <unistd.h>

#include <cstdlib>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "kv/client.h"
#include "node/tcp_cluster.h"

using namespace rspaxos;

int main(int argc, char** argv) {
  constexpr int kServers = 5;
  constexpr uint32_t kGroups = 4;
  const int serve_seconds = argc > 1 ? std::atoi(argv[1]) : 0;

  auto dir = std::filesystem::temp_directory_path() /
             ("rspaxos_tcp_demo_" + std::to_string(::getpid()));

  node::TcpClusterOptions opts;
  opts.num_servers = kServers;
  opts.num_groups = kGroups;
  opts.f = 1;  // theta(3,5) per group
  opts.spread_leaders = true;  // group g first led by server g % kServers
  opts.data_dir = dir.string();
  opts.replica.heartbeat_interval = 30 * kMillis;
  opts.replica.election_timeout_min = 300 * kMillis;
  opts.replica.election_timeout_max = 600 * kMillis;
  opts.replica.lease_duration = 250 * kMillis;
  opts.admin = true;  // per-server introspection endpoints (ephemeral ports)

  auto started = node::TcpCluster::start(opts);
  if (!started.is_ok()) {
    std::fprintf(stderr, "cluster start: %s\n", started.status().to_string().c_str());
    return 1;
  }
  auto cluster = std::move(started).value();
  std::printf("%d servers x %u groups: one port, one I/O thread, one WAL and one\n"
              "snapshot root per server; every group replicated on all servers\n",
              kServers, kGroups);
  for (int s = 0; s < kServers; ++s) {
    std::printf("  server %d admin: curl http://127.0.0.1:%u/status   "
                "(also /metrics, /healthz, /traces/recent)\n",
                s, cluster->admin_port(s));
  }

  // Wait until every shard elected a leader (spread_leaders places group g's
  // initial leader on server g % kServers).
  for (uint32_t g = 0; g < kGroups; ++g) {
    while (cluster->leader_server_of(g) < 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    std::printf("group %u led by server %d\n", g, cluster->leader_server_of(g));
  }

  auto cnode = cluster->start_client();
  if (!cnode.is_ok()) {
    std::fprintf(stderr, "client node: %s\n", cnode.status().to_string().c_str());
    return 1;
  }
  kv::KvClient::Options copts;
  copts.request_timeout = 1000 * kMillis;
  kv::KvClient client(cnode.value(), cluster->routing(), copts);
  cnode.value()->loop().post([&] { cnode.value()->set_handler(&client); });

  // Writes scatter across shards by key hash. KvClient is loop-thread-only,
  // so every call is posted onto the client node's loop rather than issued
  // from main.
  constexpr int kOps = 32;
  constexpr size_t kValueBytes = 20'000;
  std::atomic<int> completed{0};
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kOps; ++i) {
    cnode.value()->loop().post([&, i] {
      Bytes value(kValueBytes, static_cast<uint8_t>(i));
      client.put("user/" + std::to_string(i), std::move(value), [&](Status s) {
        if (!s.is_ok()) std::fprintf(stderr, "put failed: %s\n", s.to_string().c_str());
        completed++;
      });
    });
  }
  while (completed.load() < kOps) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  auto write_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
          .count();
  std::printf("committed %d x 20KB writes across %u shards in %.1f ms (%.2f ms/op, "
              "real fsync)\n",
              kOps, kGroups, write_ms, write_ms / kOps);
  for (uint32_t g = 0; g < kGroups; ++g) {
    int n = 0;
    for (int i = 0; i < kOps; ++i) {
      if (kv::shard_of("user/" + std::to_string(i), kGroups) == g) n++;
    }
    std::printf("  shard %u took %d of the writes\n", g, n);
  }

  std::atomic<int> read_ok{0};
  completed = 0;
  for (int i = 0; i < kOps; ++i) {
    cnode.value()->loop().post([&, i] {
      client.get("user/" + std::to_string(i), [&, i](StatusOr<Bytes> r) {
        if (r.is_ok() && r.value().size() == kValueBytes &&
            r.value()[0] == static_cast<uint8_t>(i)) {
          read_ok++;
        }
        completed++;
      });
    });
  }
  while (completed.load() < kOps) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  std::printf("read back %d/%d values correctly via leased fast reads\n", read_ok.load(),
              kOps);

  // Every shard's records went through its machine's ONE log; flush counts
  // are machine-level, so cross-group group-commit amortizes the fsyncs.
  uint64_t flushed = 0, flushes = 0;
  for (int s = 0; s < kServers; ++s) {
    flushed += cluster->wal(s).bytes_flushed();
    flushes += cluster->wal(s).flush_ops();
  }
  std::printf("WAL totals across the %d machine logs: %llu bytes in %llu fsyncs\n"
              "(theta(3,5) flushes ~5/3 of the data instead of 5x; all %u groups\n"
              "share each machine's group-commit window)\n",
              kServers, static_cast<unsigned long long>(flushed),
              static_cast<unsigned long long>(flushes), kGroups);

  if (serve_seconds > 0) {
    std::printf("serving admin endpoints for %ds — try the curl lines above\n",
                serve_seconds);
    std::this_thread::sleep_for(std::chrono::seconds(serve_seconds));
  }

  cluster.reset();  // detaches handlers, joins I/O threads
  std::filesystem::remove_all(dir);
  return 0;
}
