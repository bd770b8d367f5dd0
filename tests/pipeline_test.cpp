// Pipelined client path: the bounded in-flight window, out-of-order
// completion across shards (one stalled shard must not head-of-line block
// the others), and definitive resolution of a full window through a leader
// failover.
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "node/sim_cluster.h"

namespace rspaxos::kv {
namespace {

/// The i-th key routed to shard `group` under the current hash contract.
std::string key_in_group(uint32_t group, uint32_t num_groups, int i) {
  int found = 0;
  for (int n = 0;; ++n) {
    std::string key = "pl/" + std::to_string(n);
    if (shard_of(key, num_groups) == group && found++ == i) return key;
  }
}

consensus::ReplicaOptions fast_elections() {
  consensus::ReplicaOptions r;
  r.heartbeat_interval = 20 * kMillis;
  r.election_timeout_min = 150 * kMillis;
  r.election_timeout_max = 300 * kMillis;
  r.lease_duration = 100 * kMillis;
  r.max_clock_drift = 10 * kMillis;
  return r;
}

TEST(Pipeline, WindowBoundsInflightAndDrainsQueue) {
  sim::SimWorld world(51);
  node::SimClusterOptions opts;
  opts.num_servers = 5;
  opts.rs_mode = true;
  opts.f = 1;
  node::SimCluster cluster(&world, opts);
  cluster.wait_for_leaders();

  KvClient::Options copts;
  copts.request_timeout = 1000 * kMillis;
  copts.max_inflight = 16;
  auto client = cluster.make_client(copts);

  constexpr int kOps = 100;
  uint64_t resolved = 0, ok = 0;
  for (int i = 0; i < kOps; ++i) {
    client->put("w-" + std::to_string(i), to_bytes("v" + std::to_string(i)),
                [&resolved, &ok](Status s) {
                  ++resolved;
                  if (s.is_ok()) ++ok;
                });
  }
  // Submission alone must not widen the window.
  EXPECT_LE(client->inflight(), 16u);
  EXPECT_EQ(client->queued(), kOps - client->inflight());

  size_t max_seen = 0;
  TimeMicros deadline = world.now() + 60 * kSeconds;
  while (resolved < kOps && world.now() < deadline) {
    world.run_for(1 * kMillis);
    max_seen = std::max(max_seen, client->inflight());
  }
  EXPECT_EQ(resolved, static_cast<uint64_t>(kOps));
  EXPECT_EQ(ok, static_cast<uint64_t>(kOps));
  EXPECT_LE(max_seen, 16u);
  EXPECT_EQ(client->inflight(), 0u);
  EXPECT_EQ(client->queued(), 0u);
}

TEST(Pipeline, StalledShardDoesNotHeadOfLineBlockOthers) {
  sim::SimWorld world(52);
  node::SimClusterOptions opts;
  opts.num_servers = 5;
  opts.num_groups = 4;
  opts.rs_mode = true;
  opts.f = 1;
  opts.spread_leaders = true;
  opts.replica = fast_elections();
  node::SimCluster cluster(&world, opts);
  cluster.wait_for_leaders();

  KvClient::Options copts;
  copts.request_timeout = 400 * kMillis;
  copts.max_attempts = 100;
  copts.max_inflight = 32;
  auto client = cluster.make_client(copts);

  // Prime the leader cache so the stall below is the election, not discovery.
  for (uint32_t g = 0; g < 4; ++g) {
    std::optional<Status> done;
    client->put(key_in_group(g, 4, 0), to_bytes("prime"),
                [&done](Status s) { done = s; });
    TimeMicros d = world.now() + 30 * kSeconds;
    while (!done.has_value() && world.now() < d) world.run_for(5 * kMillis);
    ASSERT_TRUE(done.has_value() && done->is_ok()) << "prime group " << g;
  }

  // Stall shard 0 by crashing its leader, then pipeline one op into the
  // stalled shard followed by a batch into the healthy shards.
  int lead0 = cluster.leader_server_of(0);
  ASSERT_GE(lead0, 0);
  cluster.crash_server(lead0);

  std::vector<std::string> completion_order;
  uint64_t resolved = 0;
  auto track = [&](const std::string& tag) {
    return [&completion_order, &resolved, tag](Status s) {
      EXPECT_TRUE(s.is_ok()) << tag << ": " << s.to_string();
      completion_order.push_back(tag);
      ++resolved;
    };
  };
  client->put(key_in_group(0, 4, 1), to_bytes("stalled"), track("g0"));
  constexpr int kFastPerGroup = 4;
  for (uint32_t g = 1; g < 4; ++g) {
    for (int i = 0; i < kFastPerGroup; ++i) {
      client->put(key_in_group(g, 4, 1 + i), to_bytes("fast"),
                  track("g" + std::to_string(g) + "-" + std::to_string(i)));
    }
  }
  const uint64_t kTotal = 1 + 3 * kFastPerGroup;
  TimeMicros deadline = world.now() + 60 * kSeconds;
  while (resolved < kTotal && world.now() < deadline) world.run_for(1 * kMillis);
  ASSERT_EQ(resolved, kTotal);

  // Every healthy-shard op must have completed before the stalled shard's op:
  // out-of-order completion, no head-of-line blocking on the shared window.
  ASSERT_FALSE(completion_order.empty());
  EXPECT_EQ(completion_order.back(), "g0");
  for (size_t i = 0; i + 1 < completion_order.size(); ++i) {
    EXPECT_NE(completion_order[i], "g0") << "g0 completed before healthy ops";
  }
}

TEST(Pipeline, LeaderFailoverWithFullWindowResolvesEveryOp) {
  sim::SimWorld world(53);
  node::SimClusterOptions opts;
  opts.num_servers = 5;
  opts.rs_mode = true;
  opts.f = 1;
  opts.replica = fast_elections();
  node::SimCluster cluster(&world, opts);
  cluster.wait_for_leaders();

  KvClient::Options copts;
  copts.request_timeout = 400 * kMillis;
  copts.max_attempts = 500;
  copts.max_inflight = 32;
  auto client = cluster.make_client(copts);

  constexpr int kOps = 64;
  std::set<int> acked;
  uint64_t resolved = 0;
  for (int i = 0; i < kOps; ++i) {
    client->put("fo-" + std::to_string(i), to_bytes("v" + std::to_string(i)),
                [&acked, &resolved, i](Status s) {
                  if (s.is_ok()) acked.insert(i);
                  ++resolved;
                });
  }
  // Let the window fill and some ops commit, then kill the leader under it.
  world.run_for(5 * kMillis);
  int lead = cluster.leader_server_of(0);
  ASSERT_GE(lead, 0);
  cluster.crash_server(lead);

  TimeMicros deadline = world.now() + 120 * kSeconds;
  while (resolved < kOps && world.now() < deadline) world.run_for(5 * kMillis);
  EXPECT_EQ(resolved, static_cast<uint64_t>(kOps))
      << "every windowed op must resolve definitively through the failover";
  EXPECT_FALSE(acked.empty());

  // Acked writes survived the crash: each reads back its exact value.
  for (int i : acked) {
    std::optional<StatusOr<Bytes>> out;
    client->get("fo-" + std::to_string(i),
                [&out](StatusOr<Bytes> r) { out = std::move(r); });
    TimeMicros d2 = world.now() + 30 * kSeconds;
    while (!out.has_value() && world.now() < d2) world.run_for(5 * kMillis);
    ASSERT_TRUE(out.has_value() && out->is_ok()) << "acked key fo-" << i;
    EXPECT_EQ(to_string(out->value()), "v" + std::to_string(i));
  }
}

}  // namespace
}  // namespace rspaxos::kv
