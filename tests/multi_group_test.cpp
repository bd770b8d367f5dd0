// Multi-group node host over the simulator: every machine is one NodeHost
// with ONE multiplexed SimWal serving a replica of each Paxos group. These
// tests pin the isolation and sharing contracts the host layer promises:
// per-group truncation/replay over a shared log, one group checkpointing
// while another keeps committing, whole-machine crash/restart recovering
// every group, and the accounting identity between the machine log and its
// per-group views.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "node/sim_cluster.h"

namespace rspaxos::kv {
namespace {

constexpr int kServers = 5;
constexpr int kGroups = 4;

struct MultiGroupFixture {
  sim::SimWorld world;
  node::SimCluster cluster;
  std::unique_ptr<KvClient> client;

  explicit MultiGroupFixture(node::SimClusterOptions opts = {}, uint64_t seed = 42)
      : world(seed), cluster(&world, tuned(opts)) {
    cluster.wait_for_leaders();
    KvClient::Options copts;
    copts.request_timeout = 500 * kMillis;
    client = cluster.make_client(copts);
  }

  static node::SimClusterOptions tuned(node::SimClusterOptions opts) {
    opts.num_groups = kGroups;
    opts.spread_leaders = true;
    opts.replica.heartbeat_interval = 20 * kMillis;
    opts.replica.election_timeout_min = 150 * kMillis;
    opts.replica.election_timeout_max = 300 * kMillis;
    opts.replica.lease_duration = 100 * kMillis;
    opts.replica.max_clock_drift = 10 * kMillis;
    return opts;
  }

  Status put(const std::string& key, Bytes value) {
    std::optional<Status> out;
    client->put(key, std::move(value), [&](Status s) { out = s; });
    run_until([&] { return out.has_value(); });
    return out.value_or(Status::timeout("sim ended"));
  }

  StatusOr<Bytes> get(const std::string& key) {
    std::optional<StatusOr<Bytes>> out;
    client->get(key, [&](StatusOr<Bytes> r) { out = std::move(r); });
    run_until([&] { return out.has_value(); });
    if (!out.has_value()) return Status::timeout("sim ended");
    return std::move(*out);
  }

  template <typename Pred>
  void run_until(Pred done, DurationMicros max = 60 * kSeconds) {
    TimeMicros deadline = world.now() + max;
    while (!done() && world.now() < deadline) world.run_for(5 * kMillis);
  }
};

/// The i-th key that routes to shard `group` under the current hash contract.
std::string key_in_group(int group, int i) {
  int found = 0;
  for (int n = 0;; ++n) {
    std::string key = "mg/" + std::to_string(n);
    if (shard_of(key, kGroups) == static_cast<size_t>(group) && found++ == i) return key;
  }
}

Bytes value_for(int i) { return Bytes(256, static_cast<uint8_t>('a' + (i % 26))); }

// One machine = one host = one log: the per-group Wal views are facades over
// the machine's SimWal, and their counters sum to the machine's counters.
TEST(MultiGroup, HostOwnsOneSharedWalWithPerGroupViews) {
  MultiGroupFixture f;
  for (int s = 0; s < kServers; ++s) {
    ASSERT_NE(f.cluster.host(s), nullptr);
    EXPECT_EQ(f.cluster.host(s)->num_groups(), static_cast<uint32_t>(kGroups));
    EXPECT_EQ(f.cluster.host_wal(s).num_groups(), static_cast<uint32_t>(kGroups));
    for (int g = 0; g < kGroups; ++g) {
      EXPECT_EQ(&f.cluster.wal(s, g), f.cluster.host_wal(s).group(static_cast<uint32_t>(g)));
      EXPECT_NE(f.cluster.server(s, g), nullptr);
    }
  }

  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(f.put("mg/" + std::to_string(i), value_for(i)).is_ok());
  }
  for (int s = 0; s < kServers; ++s) {
    uint64_t group_sum = 0;
    for (int g = 0; g < kGroups; ++g) group_sum += f.cluster.wal(s, g).bytes_flushed();
    EXPECT_EQ(group_sum, f.cluster.host_wal(s).bytes_flushed()) << "server " << s;
    // Device flushes are machine-level (shared across groups), so every view
    // reports the same count.
    EXPECT_EQ(f.cluster.wal(s, 0).flush_ops(), f.cluster.host_wal(s).flush_ops());
  }
}

// One group checkpoints and truncates its slice of the shared log while a
// second group keeps committing; the second group's view must see no
// truncation, and its writes must keep succeeding throughout.
TEST(MultiGroup, SnapshotOnOneGroupWhileAnotherCommits) {
  node::SimClusterOptions opts;
  opts.replica.checkpoint_interval_slots = 16;
  MultiGroupFixture f(opts);

  const int kHot = 0;   // driven past its checkpoint interval
  const int kCold = 1;  // stays far below it
  const int kHotKeys = 48;
  int cold_written = 0;
  for (int i = 0; i < kHotKeys; ++i) {
    ASSERT_TRUE(f.put(key_in_group(kHot, i), value_for(i)).is_ok()) << i;
    // Interleave a cold-group commit every few hot writes, so the cold group
    // is mid-traffic whenever the hot group snapshots.
    if (i % 8 == 7) {
      ASSERT_TRUE(f.put(key_in_group(kCold, cold_written), value_for(cold_written)).is_ok());
      cold_written++;
    }
  }
  f.run_until([&] {
    for (int s = 0; s < kServers; ++s) {
      if (f.cluster.wal(s, kHot).truncated_bytes() == 0) return false;
    }
    return true;
  });

  for (int s = 0; s < kServers; ++s) {
    EXPECT_GT(f.cluster.wal(s, kHot).truncated_bytes(), 0u) << "server " << s;
    // Logical truncation is per group: the cold group shares the log but
    // never checkpointed, so its view reclaimed nothing.
    EXPECT_EQ(f.cluster.wal(s, kCold).truncated_bytes(), 0u) << "server " << s;
  }

  // The cold group keeps committing after its neighbor compacted.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(f.put(key_in_group(kCold, cold_written), value_for(cold_written)).is_ok());
    cold_written++;
  }
  for (int i = 0; i < kHotKeys; ++i) {
    auto got = f.get(key_in_group(kHot, i));
    ASSERT_TRUE(got.is_ok()) << i;
    EXPECT_EQ(got.value(), value_for(i));
  }
  for (int i = 0; i < cold_written; ++i) {
    auto got = f.get(key_in_group(kCold, i));
    ASSERT_TRUE(got.is_ok()) << i;
    EXPECT_EQ(got.value(), value_for(i));
  }
}

// Machine-level crash/restart: one power failure takes down every group on
// the host; the restarted NodeHost replays each group's slice of the one
// shared log (post-snapshot suffix for the compacted group) and all groups
// converge.
TEST(MultiGroup, MachineRestartRecoversEveryGroupFromSharedLog) {
  node::SimClusterOptions opts;
  opts.replica.checkpoint_interval_slots = 16;
  MultiGroupFixture f(opts);

  const int kHot = 0, kCold = 2;
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(f.put(key_in_group(kHot, i), value_for(i)).is_ok());
    if (i % 10 == 9) ASSERT_TRUE(f.put(key_in_group(kCold, i / 10), value_for(i / 10)).is_ok());
  }
  f.run_until([&] {
    for (int s = 0; s < kServers; ++s) {
      if (f.cluster.wal(s, kHot).truncated_bytes() == 0) return false;
    }
    return true;
  });

  // Crash a machine that is currently follower for both probe groups.
  int victim = -1;
  for (int s = 0; s < kServers; ++s) {
    if (s != f.cluster.leader_server_of(kHot) && s != f.cluster.leader_server_of(kCold)) {
      victim = s;
      break;
    }
  }
  ASSERT_GE(victim, 0);
  std::vector<consensus::Slot> target(kGroups, 0);
  for (int g = 0; g < kGroups; ++g) {
    int l = f.cluster.leader_server_of(g);
    ASSERT_GE(l, 0);
    target[static_cast<size_t>(g)] = f.cluster.server(l, g)->replica().last_applied();
  }

  f.cluster.crash_server(victim);
  EXPECT_EQ(f.cluster.server(victim, 0), nullptr);  // whole host gone
  f.world.run_for(200 * kMillis);
  f.cluster.restart_server(victim);

  f.run_until([&] {
    for (int g = 0; g < kGroups; ++g) {
      auto* srv = f.cluster.server(victim, g);
      if (srv == nullptr || !srv->replica().state_ready() ||
          srv->replica().last_applied() < target[static_cast<size_t>(g)]) {
        return false;
      }
    }
    return true;
  });
  for (int g = 0; g < kGroups; ++g) {
    auto* srv = f.cluster.server(victim, g);
    ASSERT_NE(srv, nullptr) << "group " << g;
    EXPECT_TRUE(srv->replica().state_ready()) << "group " << g;
    EXPECT_GE(srv->replica().last_applied(), target[static_cast<size_t>(g)]) << "group " << g;
  }
}

}  // namespace
}  // namespace rspaxos::kv
