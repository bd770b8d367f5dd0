// Ablation: recovery-read cost (§4.4 / §6.4). The paper claims "The cost of
// a recovery read is similar to a write" — a new leader holding only its own
// coded share must gather >= X shares over the network before serving the
// key, which is one quorum round trip carrying ~(X-1)/X of the value, vs a
// write's one round trip carrying (N-1)/X of it.
//
// Measures, per value size: normal write latency, fast-read latency (leased
// leader), and post-failover recovery-read latency, on the WAN environment
// where the effect matters most.
#include <cstdio>

#include "common.h"

using namespace rspaxos;
using namespace rspaxos::bench;

namespace {

struct Row {
  double write_ms;
  double fast_read_ms;
  double recovery_read_ms;
};

Row measure(size_t value_size, uint64_t seed) {
  Env env = wide_area();
  auto world = std::make_unique<sim::SimWorld>(seed);
  node::SimClusterOptions opts;
  opts.num_servers = 5;
  opts.rs_mode = true;
  opts.f = 1;
  opts.link = env.link;
  opts.disk = sim::DiskParams::ssd();
  opts.replica = bench_replica_options(true);
  // Keep every share resident: this bench exists to measure recovery reads.
  opts.replica.share_cache_slots = 0;
  opts.replica.payload_cache_slots = 64;
  // Per-server recovery-read baselines: registry totals are process-wide and
  // every row's cluster reuses the node ids.
  auto recovery_reads = [](int s) {
    return obs::MetricsRegistry::global().counter_sum(
        "rsp_kv_recovery_reads_total", {{"node", std::to_string(net::endpoint_id(s, 0))}});
  };
  std::vector<uint64_t> reads0;
  for (int s = 0; s < opts.num_servers; ++s) reads0.push_back(recovery_reads(s));
  node::SimCluster cluster(world.get(), opts);
  cluster.wait_for_leaders();
  make_client_links_free(cluster, 1);
  kv::KvClient::Options copts;
  copts.request_timeout = 2 * kSeconds;
  copts.max_attempts = 1000;
  auto client = cluster.make_client(copts);

  auto run_until = [&](auto done, DurationMicros max = 120 * kSeconds) {
    TimeMicros deadline = world->now() + max;
    while (!done() && world->now() < deadline) world->run_for(5 * kMillis);
  };

  constexpr int kKeys = 12;
  Histogram write_lat, fast_lat, rec_lat;
  Bytes value(value_size, 0x5e);
  {
    bool done = false;
    client->put("warmup", Bytes(64, 1), [&](Status) { done = true; });
    run_until([&] { return done; });
  }
  for (int k = 0; k < kKeys; ++k) {
    bool done = false;
    TimeMicros t0 = world->now();
    client->put("r" + std::to_string(k), value, [&](Status s) {
      if (s.is_ok()) write_lat.record(world->now() - t0);
      done = true;
    });
    run_until([&] { return done; });
  }
  // Fast reads on the standing leader.
  for (int k = 0; k < kKeys; ++k) {
    bool done = false;
    TimeMicros t0 = world->now();
    client->get("r" + std::to_string(k), [&](StatusOr<Bytes> r) {
      if (r.is_ok()) fast_lat.record(world->now() - t0);
      done = true;
    });
    run_until([&] { return done; });
  }
  // Fail the leader; commits have spread, so the new leader holds shares
  // only and every first read is a recovery read.
  world->run_for(2 * kSeconds);
  int old_leader = cluster.leader_server_of(0);
  cluster.crash_server(old_leader);
  run_until([&] {
    int l = cluster.leader_server_of(0);
    return l >= 0 && l != old_leader;
  });
  world->run_for(2 * kSeconds);  // lease re-established
  {
    // Unrecorded warm-up: pays the client's leader-rediscovery cost (dead
    // leader timeout + redirect) so the measured reads isolate the §4.4
    // recovery-read mechanism itself.
    bool done = false;
    client->get("warmup", [&](StatusOr<Bytes>) { done = true; });
    run_until([&] { return done; });
  }
  for (int k = 0; k < kKeys; ++k) {
    bool done = false;
    TimeMicros t0 = world->now();
    client->get("r" + std::to_string(k), [&](StatusOr<Bytes> r) {
      if (r.is_ok()) rec_lat.record(world->now() - t0);
      done = true;
    });
    run_until([&] { return done; });
  }
  int new_leader = cluster.leader_server_of(0);
  uint64_t recovered = new_leader >= 0 ? recovery_reads(new_leader) - reads0[new_leader] : 0;
  if (recovered < kKeys / 2) {
    std::fprintf(stderr, "warning: only %llu recovery reads triggered\n",
                 static_cast<unsigned long long>(recovered));
  }
  return Row{write_lat.mean() / 1000.0, fast_lat.mean() / 1000.0,
             rec_lat.mean() / 1000.0};
}

}  // namespace

int main() {
  std::printf("=== Recovery-read cost (paper §4.4/§6.4, wide area, SSD) ===\n");
  std::printf("%-6s %12s %14s %18s %22s\n", "size", "write ms", "fast read ms",
              "recovery read ms", "recovery/write ratio");
  for (size_t size : {64u << 10, 256u << 10, 1u << 20, 4u << 20}) {
    Row r = measure(size, 71);
    std::printf("%-6s %12.1f %14.2f %18.1f %21.2fx\n", size_label(size).c_str(),
                r.write_ms, r.fast_read_ms, r.recovery_read_ms,
                r.write_ms > 0 ? r.recovery_read_ms / r.write_ms : 0.0);
  }
  std::printf("\npaper check: \"The cost of a recovery read is similar to a write\" —\n"
              "the ratio should sit near 1x (one quorum round trip moving ~1/X-sized\n"
              "shares), while leased fast reads stay near zero.\n");
  return 0;
}
