// Reproduces Figure 8: fail-over timeline. The cluster runs fully loaded;
// the leader is killed at t=10 s and the next leader at t=20 s. Per-second
// throughput is reported for (a) write-intensive and (b) read-intensive
// workloads, Paxos vs RS-Paxos.
//
// Expected shape (paper §6.4):
//   - both protocols drop to zero for the lease/election window, identical
//     length ("RS-Paxos does not incur any overhead in design for view
//     change");
//   - write-intensive: recovery is immediate and throughput *rises* after
//     each crash (fewer replicas to talk to);
//   - read-intensive: RS-Paxos climbs back slower — the new leader must
//     perform a recovery read per missing object ("cost ... similar to a
//     write"); Paxos (full copies) resumes fast reads at once.
//
// After each crash the system reconfigures to drop the dead member (§4.6 /
// §6.1: "configured to change to a new quorum Q=3, and ... X=2"), which is
// what lets it absorb a second, later failure.
#include <cstdio>

#include <set>

#include "common.h"

using namespace rspaxos;
using namespace rspaxos::bench;

namespace {

constexpr int kBucketSeconds = 35;
constexpr size_t kValueSize = 256u << 10;
constexpr int kClients = 16;
constexpr int kKeys = 64;

struct Timeline {
  double mbps[kBucketSeconds] = {};
};

Timeline run_failover(bool rs_mode, double read_ratio, uint64_t seed) {
  Env env = wide_area();
  auto world = std::make_unique<sim::SimWorld>(seed);
  node::SimClusterOptions opts;
  opts.num_servers = 5;
  opts.num_groups = 2;
  opts.rs_mode = rs_mode;
  opts.f = 1;
  opts.link = env.link;
  opts.disk = sim::DiskParams::ssd();
  opts.replica = bench_replica_options(true);
  // Recovery reads (the whole point of Figure 8b) need the replicas' coded
  // shares: keep them all (values are 256 KB, memory stays bounded).
  opts.replica.share_cache_slots = 0;
  opts.replica.payload_cache_slots = 64;
  opts.wal_retain = false;
  node::SimCluster cluster(world.get(), opts);
  cluster.wait_for_leaders();

  make_client_links_free(cluster, kClients);
  kv::KvClient::Options copts;
  copts.request_timeout = 800 * kMillis;  // probe the next replica quickly
  copts.max_attempts = 10000;
  std::vector<std::unique_ptr<kv::KvClient>> clients;
  for (int i = 0; i < kClients; ++i) clients.push_back(cluster.make_client(copts));

  Rng rng(seed * 3 + 1);
  uint64_t bucket_bytes[kBucketSeconds] = {};
  TimeMicros t0 = world->now();

  // Preload so reads hit.
  {
    Bytes v(kValueSize, 0x42);
    for (int k = 0; k < kKeys; ++k) {
      bool done = false;
      clients[0]->put("obj-" + std::to_string(k), v, [&done](Status) { done = true; });
      TimeMicros deadline = world->now() + 60 * kSeconds;
      while (!done && world->now() < deadline) world->run_for(10 * kMillis);
    }
    t0 = world->now();
  }

  auto record = [&](size_t bytes) {
    int64_t sec = (world->now() - t0) / kSeconds;
    if (sec >= 0 && sec < kBucketSeconds) {
      bucket_bytes[sec] += bytes;
    }
  };

  // Closed-loop clients.
  std::function<void(size_t)> next_op = [&](size_t c) {
    if (world->now() - t0 > kBucketSeconds * kSeconds) return;
    std::string key = "obj-" + std::to_string(rng.next_below(kKeys));
    if (rng.next_double() < read_ratio) {
      clients[c]->get(key, [&, c](StatusOr<Bytes> r) {
        if (r.is_ok()) record(r.value().size());
        next_op(c);
      });
    } else {
      Bytes v(kValueSize, 0x17);
      clients[c]->put(key, std::move(v), [&, c](Status s) {
        if (s.is_ok()) record(kValueSize);
        next_op(c);
      });
    }
  };
  for (int c = 0; c < kClients; ++c) next_op(static_cast<size_t>(c));

  // Crash the leader at +10 s and the next leader at +20 s. After each crash
  // the system performs a view change dropping the dead member once a new
  // leader stands (§4.6 / §6.1's "change to a new quorum ... X=2" policy) —
  // driven here from the top level, interleaved with the client traffic.
  std::set<int> dead;
  auto crash_leader_and_reconfigure = [&] {
    int leader = cluster.leader_server_of(0);
    if (leader < 0) {
      for (int s = 0; s < opts.num_servers; ++s) {
        if (!dead.count(s)) {
          leader = s;
          break;
        }
      }
    }
    dead.insert(leader);
    cluster.crash_server(leader);
    // Wait (in sim time, clients still running) for new leaders, then shrink
    // each group's view.
    for (int g = 0; g < opts.num_groups; ++g) {
      TimeMicros deadline = world->now() + 8 * kSeconds;
      int nl = -1;
      while (world->now() < deadline) {
        nl = cluster.leader_server_of(g);
        if (nl >= 0 && !dead.count(nl)) break;
        world->run_for(20 * kMillis);
      }
      if (nl < 0 || dead.count(nl)) continue;
      auto& rep = cluster.server(nl, g)->replica();
      consensus::GroupConfig cur = rep.config();
      std::vector<NodeId> members;
      for (int s = 0; s < opts.num_servers; ++s) {
        if (!dead.count(s)) members.push_back(net::endpoint_id(s, g));
      }
      auto next =
          rs_mode ? consensus::GroupConfig::rs_max_x(members, 1, cur.epoch + 1)
                  : [&]() -> StatusOr<consensus::GroupConfig> {
            consensus::GroupConfig c = consensus::GroupConfig::majority(members);
            c.epoch = cur.epoch + 1;
            return c;
          }();
      if (next.is_ok()) rep.propose_config(next.value(), nullptr);
    }
  };

  world->run_until(t0 + 10 * kSeconds);
  crash_leader_and_reconfigure();
  world->run_until(t0 + 20 * kSeconds);
  crash_leader_and_reconfigure();
  world->run_until(t0 + kBucketSeconds * kSeconds);

  Timeline tl;
  for (int s = 0; s < kBucketSeconds; ++s) {
    tl.mbps[s] = static_cast<double>(bucket_bytes[s]) * 8.0 / 1e6;
  }
  return tl;
}

void print_timeline(const char* label, const Timeline& paxos, const Timeline& rs) {
  std::printf("\n--- Figure 8%s: %s workload (crashes at 10s and 20s) ---\n",
              label[0] == 'w' ? "a" : "b", label);
  std::printf("%5s %12s %12s\n", "t(s)", "Paxos Mbps", "RS-Paxos Mbps");
  for (int s = 0; s < kBucketSeconds; ++s) {
    std::printf("%5d %12.1f %12.1f\n", s, paxos.mbps[s], rs.mbps[s]);
  }
}

}  // namespace

int main() {
  std::printf("=== Figure 8: fail-over behaviour (paper §6.4, wide area) ===\n");
  Timeline paxos_w = run_failover(false, 0.1, 91);
  Timeline rs_w = run_failover(true, 0.1, 91);
  print_timeline("write-intensive", paxos_w, rs_w);

  Timeline paxos_r = run_failover(false, 0.9, 92);
  Timeline rs_r = run_failover(true, 0.9, 92);
  print_timeline("read-intensive", paxos_r, rs_r);

  std::printf("\nshape check: equal-length zero-throughput gaps after each crash;\n"
              "write workload rebounds immediately (often higher than before);\n"
              "read workload ramps slower for RS-Paxos (recovery reads).\n");
  return 0;
}
