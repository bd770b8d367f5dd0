// Whole-stack fault injection: seeded random schedules of follower/leader
// crashes and restarts (with WAL replay) while clients run a mixed workload.
// Invariant: every acknowledged write is durable and reads return the value
// of some acknowledged write that is at least as new as the last one the
// same client observed.
#include <gtest/gtest.h>

#include <map>

#include "node/sim_cluster.h"

namespace rspaxos::kv {
namespace {

struct NemesisKv : ::testing::TestWithParam<uint64_t> {};

TEST_P(NemesisKv, AcknowledgedWritesSurviveChaos) {
  const uint64_t seed = GetParam();
  sim::SimWorld world(seed);
  node::SimClusterOptions opts;
  opts.num_servers = 5;
  opts.rs_mode = true;
  opts.f = 1;
  opts.replica.heartbeat_interval = 20 * kMillis;
  opts.replica.election_timeout_min = 150 * kMillis;
  opts.replica.election_timeout_max = 300 * kMillis;
  opts.replica.lease_duration = 100 * kMillis;
  opts.replica.max_clock_drift = 10 * kMillis;
  // Mild link chaos on top of crashes.
  opts.link.drop_prob = 0.02;
  opts.link.dup_prob = 0.02;
  node::SimCluster cluster(&world, opts);
  cluster.wait_for_leaders();

  KvClient::Options copts;
  copts.request_timeout = 400 * kMillis;
  copts.max_attempts = 500;
  auto client = cluster.make_client(copts);

  Rng rng(seed * 1000 + 3);
  constexpr int kKeys = 8;
  // acknowledged[k] = highest acked version per key.
  std::map<int, int> acknowledged;
  int next_version = 1;

  // Nemesis: at most one server down at a time (the configuration's F).
  int down = -1;
  TimeMicros next_nemesis = 500 * kMillis;

  int ops_done = 0;
  constexpr int kOps = 60;
  std::function<void()> next_op = [&] {
    if (ops_done >= kOps) return;
    int k = static_cast<int>(rng.next_below(kKeys));
    if (rng.chance(0.65)) {
      int v = next_version++;
      client->put("n" + std::to_string(k), to_bytes("v" + std::to_string(v)),
                  [&, k, v](Status s) {
                    if (s.is_ok()) {
                      acknowledged[k] = std::max(acknowledged[k], v);
                    }
                    ops_done++;
                    next_op();
                  });
    } else {
      int floor = acknowledged.count(k) ? acknowledged[k] : -1;
      client->get("n" + std::to_string(k), [&, k, floor](StatusOr<Bytes> r) {
        if (r.is_ok()) {
          int got = std::stoi(to_string(r.value()).substr(1));
          // Read must be at least as new as the last acked write we issued
          // (single client: our writes are ordered).
          EXPECT_GE(got, floor) << "stale read on key " << k << " seed " << seed;
        } else if (floor > 0) {
          EXPECT_NE(r.status().code(), Code::kNotFound)
              << "acked key n" << k << " vanished, seed " << seed;
        }
        ops_done++;
        next_op();
      });
    }
  };
  next_op();

  TimeMicros deadline = world.now() + 180 * kSeconds;
  while (ops_done < kOps && world.now() < deadline) {
    world.run_for(50 * kMillis);
    if (world.now() >= next_nemesis) {
      next_nemesis = world.now() + 1 * kSeconds +
                     static_cast<DurationMicros>(rng.next_below(2000)) * kMillis;
      if (down >= 0) {
        cluster.restart_server(down);
        down = -1;
      } else {
        down = static_cast<int>(rng.next_below(5));
        cluster.crash_server(down);
      }
    }
  }
  if (down >= 0) cluster.restart_server(down);
  world.run_for(5 * kSeconds);
  EXPECT_EQ(ops_done, kOps) << "liveness: workload did not finish, seed " << seed;

  // Post-chaos audit: every acknowledged key readable with version >= acked.
  for (const auto& [k, v] : acknowledged) {
    std::optional<StatusOr<Bytes>> out;
    client->get("n" + std::to_string(k), [&](StatusOr<Bytes> r) { out = std::move(r); });
    TimeMicros d2 = world.now() + 30 * kSeconds;
    while (!out.has_value() && world.now() < d2) world.run_for(10 * kMillis);
    ASSERT_TRUE(out.has_value()) << "key n" << k << " seed " << seed;
    ASSERT_TRUE(out->is_ok()) << "key n" << k << ": " << out->status().to_string()
                              << " seed " << seed;
    int got = std::stoi(to_string(out->value()).substr(1));
    EXPECT_GE(got, v) << "key n" << k << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NemesisKv, ::testing::Range<uint64_t>(1, 26));

}  // namespace
}  // namespace rspaxos::kv
