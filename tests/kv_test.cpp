// End-to-end KV store tests over the simulated cluster (§4): writes, the
// three read kinds, deletes, sharding, follower share storage, failover with
// recovery reads, and storage-cost accounting.
#include <gtest/gtest.h>

#include <array>

#include "node/sim_cluster.h"

namespace rspaxos::kv {
namespace {

struct KvFixture {
  sim::SimWorld world;
  node::SimCluster cluster;
  std::unique_ptr<KvClient> client;

  explicit KvFixture(node::SimClusterOptions opts = {}, uint64_t seed = 42)
      : world(seed), cluster(&world, tuned(opts)) {
    cluster.wait_for_leaders();
    KvClient::Options copts;
    copts.request_timeout = 500 * kMillis;
    client = cluster.make_client(copts);
  }

  static node::SimClusterOptions tuned(node::SimClusterOptions opts) {
    opts.replica.heartbeat_interval = 20 * kMillis;
    opts.replica.election_timeout_min = 150 * kMillis;
    opts.replica.election_timeout_max = 300 * kMillis;
    opts.replica.lease_duration = 100 * kMillis;
    opts.replica.max_clock_drift = 10 * kMillis;
    return opts;
  }

  // Synchronous wrappers driving the simulation.
  Status put(const std::string& key, Bytes value) {
    std::optional<Status> out;
    client->put(key, std::move(value), [&](Status s) { out = s; });
    run_until([&] { return out.has_value(); });
    return out.value_or(Status::timeout("sim ended"));
  }

  StatusOr<Bytes> get(const std::string& key, bool consistent = false) {
    std::optional<StatusOr<Bytes>> out;
    auto cb = [&](StatusOr<Bytes> r) { out = std::move(r); };
    if (consistent) {
      client->consistent_get(key, cb);
    } else {
      client->get(key, cb);
    }
    run_until([&] { return out.has_value(); });
    if (!out.has_value()) return Status::timeout("sim ended");
    return std::move(*out);
  }

  Status del(const std::string& key) {
    std::optional<Status> out;
    client->del(key, [&](Status s) { out = s; });
    run_until([&] { return out.has_value(); });
    return out.value_or(Status::timeout("sim ended"));
  }

  template <typename Pred>
  void run_until(Pred done, DurationMicros max = 30 * kSeconds) {
    TimeMicros deadline = world.now() + max;
    while (!done() && world.now() < deadline) world.run_for(5 * kMillis);
  }

  // Registry counter `name` of server s's group-0 endpoint. Earlier clusters
  // in this process reuse the node ids, so tests read deltas.
  static uint64_t counter(const char* name, int s) {
    return obs::MetricsRegistry::global().counter_sum(
        name, {{"node", std::to_string(net::endpoint_id(s, 0))}});
  }
};

TEST(Kv, PutThenFastGet) {
  KvFixture f;
  ASSERT_TRUE(f.put("alpha", to_bytes("value-1")).is_ok());
  auto got = f.get("alpha");
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(to_string(got.value()), "value-1");
}

TEST(Kv, GetMissingKeyIsNotFound) {
  KvFixture f;
  auto got = f.get("never-written");
  ASSERT_FALSE(got.is_ok());
  EXPECT_EQ(got.status().code(), Code::kNotFound);
}

TEST(Kv, OverwriteReturnsLatest) {
  KvFixture f;
  ASSERT_TRUE(f.put("k", to_bytes("v1")).is_ok());
  ASSERT_TRUE(f.put("k", to_bytes("v2")).is_ok());
  ASSERT_TRUE(f.put("k", to_bytes("v3")).is_ok());
  auto got = f.get("k");
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(to_string(got.value()), "v3");
}

TEST(Kv, ConsistentGetMatchesFastGet) {
  KvFixture f;
  ASSERT_TRUE(f.put("k", to_bytes("same")).is_ok());
  int leader = f.cluster.leader_server_of(0);
  ASSERT_GE(leader, 0);
  const uint64_t reads0 = f.counter("rsp_kv_consistent_reads_total", leader);
  auto fast = f.get("k", false);
  auto consistent = f.get("k", true);
  ASSERT_TRUE(fast.is_ok());
  ASSERT_TRUE(consistent.is_ok());
  EXPECT_EQ(fast.value(), consistent.value());
  // The consistent read committed a marker instance.
  ASSERT_EQ(f.cluster.leader_server_of(0), leader);
  EXPECT_GE(f.counter("rsp_kv_consistent_reads_total", leader) - reads0, 1u);
}

TEST(Kv, DeleteRemovesKey) {
  KvFixture f;
  ASSERT_TRUE(f.put("gone", to_bytes("x")).is_ok());
  ASSERT_TRUE(f.del("gone").is_ok());
  auto got = f.get("gone");
  ASSERT_FALSE(got.is_ok());
  EXPECT_EQ(got.status().code(), Code::kNotFound);
}

TEST(Kv, LargeValueRoundTrip) {
  KvFixture f;
  Rng rng(5);
  Bytes big(512 * 1024);
  rng.fill(big.data(), big.size());
  ASSERT_TRUE(f.put("big", big).is_ok());
  auto got = f.get("big");
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(got.value(), big);
}

TEST(Kv, EmptyValueRoundTrip) {
  KvFixture f;
  ASSERT_TRUE(f.put("empty", Bytes{}).is_ok());
  auto got = f.get("empty");
  ASSERT_TRUE(got.is_ok());
  EXPECT_TRUE(got.value().empty());
}

TEST(Kv, FollowersHoldOnlyShares) {
  KvFixture f;
  Bytes value(3000, 0xab);
  ASSERT_TRUE(f.put("shared", value).is_ok());
  f.world.run_for(500 * kMillis);  // let commits reach followers
  int leader = f.cluster.leader_server_of(0);
  ASSERT_GE(leader, 0);
  for (int s = 0; s < 5; ++s) {
    const LocalStore::Record* rec = f.cluster.server(s, 0)->store().find("shared");
    ASSERT_NE(rec, nullptr) << "server " << s;
    if (s == leader) {
      EXPECT_TRUE(rec->complete);
      EXPECT_EQ(rec->data().size(), 3000u);
    } else {
      EXPECT_FALSE(rec->complete);
      EXPECT_EQ(rec->data().size(), 1000u);  // X=3
      EXPECT_EQ(rec->full_len, 3000u);
    }
  }
}

TEST(Kv, StorageRedundancyMatchesTheory) {
  // Durable storage (§2.2): each replica flushes only its 1/X share, so the
  // on-disk redundancy is r = n/x = 5/3 (the paper's "both leader and
  // follower only need to flush the coded shares into disks"). The leader's
  // *in-memory* table additionally caches the full value, so residency is
  // 1 + (n-1)/x.
  KvFixture f;
  uint64_t flushed_before = f.cluster.total_flushed_bytes();
  Bytes value(30'000, 1);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(f.put("key-" + std::to_string(i), value).is_ok());
  }
  f.world.run_for(500 * kMillis);
  uint64_t flushed = f.cluster.total_flushed_bytes() - flushed_before;
  double disk_r = static_cast<double>(flushed) / (5.0 * 30'000.0);
  EXPECT_NEAR(disk_r, 5.0 / 3.0, 0.15);  // + small header/metadata overhead

  uint64_t resident = 0;
  for (int s = 0; s < 5; ++s) resident += f.cluster.server(s, 0)->store().resident_bytes();
  double mem_r = static_cast<double>(resident) / (5.0 * 30'000.0);
  EXPECT_NEAR(mem_r, 1.0 + 4.0 / 3.0, 0.05);
}

TEST(Kv, ShardsSpreadAcrossGroups) {
  node::SimClusterOptions opts;
  opts.num_groups = 8;
  KvFixture f(opts);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(f.put("key/" + std::to_string(i), to_bytes("v" + std::to_string(i))).is_ok());
  }
  for (int i = 0; i < 40; ++i) {
    auto got = f.get("key/" + std::to_string(i));
    ASSERT_TRUE(got.is_ok()) << i;
    EXPECT_EQ(to_string(got.value()), "v" + std::to_string(i));
  }
  // More than one group must actually hold data.
  int groups_used = 0;
  for (int g = 0; g < 8; ++g) {
    int leader = f.cluster.leader_server_of(g);
    ASSERT_GE(leader, 0);
    if (f.cluster.server(leader, g)->store().size() > 0) groups_used++;
  }
  EXPECT_GT(groups_used, 3);
}

TEST(Kv, DeterministicShardMapping) {
  EXPECT_EQ(shard_of("abc", 16), shard_of("abc", 16));
  size_t hits[4] = {0, 0, 0, 0};
  for (int i = 0; i < 1000; ++i) hits[shard_of("k" + std::to_string(i), 4)]++;
  for (size_t h : hits) EXPECT_GT(h, 100u);  // roughly uniform
}

// Golden vectors pinning the kShardHashVersion == 2 contract (FNV-1a 64 +
// fmix64 + Lemire reduction). Any change to these outputs reshards every
// key in a deployed cluster — see the contract comment in kv/client.h. The
// vectors cover the empty key, 1-byte, multi-byte, common prefixes, and
// power-of-two / prime / large shard counts.
TEST(Kv, ShardHashGoldenVectors) {
  ASSERT_EQ(kShardHashVersion, 2u) << "bumping the contract requires new vectors";
  struct Vector {
    const char* key;
    size_t num_shards;
    size_t shard;
  };
  constexpr Vector kVectors[] = {
      {"", 1, 0},           {"", 4, 3},           {"", 7, 6},
      {"", 16, 14},         {"", 4096, 3837},     {"a", 4, 2},
      {"a", 7, 3},          {"a", 16, 8},         {"a", 4096, 2090},
      {"abc", 4, 0},        {"abc", 7, 1},        {"abc", 16, 3},
      {"abc", 4096, 830},   {"key/0", 4, 3},      {"key/0", 7, 6},
      {"key/0", 16, 15},    {"key/0", 4096, 3856}, {"key/1", 4, 1},
      {"key/1", 7, 2},      {"key/1", 16, 6},     {"key/1", 4096, 1701},
      {"user/42", 4, 2},    {"user/42", 7, 4},    {"user/42", 16, 10},
      {"user/42", 4096, 2741}, {"the-quick-brown-fox", 4, 0},
      {"the-quick-brown-fox", 7, 0}, {"the-quick-brown-fox", 16, 0},
      {"the-quick-brown-fox", 4096, 221},
  };
  for (const auto& v : kVectors) {
    EXPECT_EQ(shard_of(v.key, v.num_shards), v.shard)
        << "key=\"" << v.key << "\" shards=" << v.num_shards;
  }
  // Every shard must be reachable (the v1 modulo never violated this, but
  // the reduction rewrite could have).
  for (size_t n : {2u, 3u, 5u, 8u}) {
    std::vector<bool> seen(n, false);
    for (int i = 0; i < 4096; ++i) seen[shard_of("probe" + std::to_string(i), n)] = true;
    for (size_t s = 0; s < n; ++s) EXPECT_TRUE(seen[s]) << n << "/" << s;
  }
}

// Failover on one shard must only disturb that shard's cached leader: the
// client keeps sending other shards' traffic to their unchanged leaders
// (§4.4's per-shard leader cache). spread_leaders puts each group's leader
// on a different machine, so killing shard 0's machine leaves the other
// shards' leaders alive.
TEST(Kv, LeaderCacheIsPerShardAcrossFailover) {
  node::SimClusterOptions opts;
  opts.num_groups = 4;
  opts.spread_leaders = true;
  KvFixture f(opts);
  // Touch every group once so the cache is warm for all shards.
  std::vector<std::string> shard_key(4);
  int covered = 0;
  for (int i = 0; covered < 4 && i < 4096; ++i) {
    std::string key = "warm/" + std::to_string(i);
    size_t g = shard_of(key, 4);
    if (!shard_key[g].empty()) continue;
    shard_key[g] = key;
    covered++;
    ASSERT_TRUE(f.put(key, to_bytes("v")).is_ok());
  }
  ASSERT_EQ(covered, 4);
  std::array<NodeId, 4> before{};
  for (size_t g = 0; g < 4; ++g) {
    before[g] = f.client->cached_leader(g);
    ASSERT_NE(before[g], kNoNode) << "shard " << g << " cache not warm";
  }

  int victim_server = f.cluster.leader_server_of(0);
  ASSERT_GE(victim_server, 0);
  // The point of the test: at least one other shard's leader lives elsewhere.
  int spread = 0;
  for (size_t g = 1; g < 4; ++g) {
    if (net::server_of_endpoint(before[g]) != victim_server) spread++;
  }
  ASSERT_GT(spread, 0) << "leaders all co-located; spread_leaders broken";

  f.cluster.crash_server(victim_server);
  f.run_until([&] {
    int l = f.cluster.leader_server_of(0);
    return l >= 0 && l != victim_server;
  });

  // Write to shard 0: its cache entry must move off the dead server.
  ASSERT_TRUE(f.put(shard_key[0], to_bytes("v2")).is_ok());
  EXPECT_NE(f.client->cached_leader(0), before[0]);
  EXPECT_EQ(net::server_of_endpoint(f.client->cached_leader(0)),
            f.cluster.leader_server_of(0));

  // Shards whose leader stayed on a live machine keep their entry untouched,
  // and a fresh write to them sticks with the cached leader (no redirects).
  for (size_t g = 1; g < 4; ++g) {
    if (net::server_of_endpoint(before[g]) == victim_server) continue;  // co-located
    EXPECT_EQ(f.client->cached_leader(g), before[g]) << "shard " << g;
    ASSERT_TRUE(f.put(shard_key[g], to_bytes("v3")).is_ok());
    EXPECT_EQ(f.client->cached_leader(g), before[g]) << "shard " << g;
  }
}

// Adopting a newer routing map must invalidate the leader cache of EXACTLY
// the shards whose owning group changed: moved shards must not keep sending
// to the old group's leader, and untouched shards must not be forced back
// through a round of kNotLeader discovery (the staleness bug this pins was a
// whole-cache flush on every epoch bump).
TEST(Kv, AdoptMapInvalidatesOnlyMovedShards) {
  node::SimClusterOptions opts;
  opts.num_groups = 4;
  opts.spread_leaders = true;
  KvFixture f(opts);
  // Warm every shard's cache entry.
  std::vector<std::string> shard_key(4);
  for (int i = 0, covered = 0; covered < 4 && i < 4096; ++i) {
    std::string key = "warm/" + std::to_string(i);
    size_t g = shard_of(key, 4);
    if (!shard_key[g].empty()) continue;
    shard_key[g] = key;
    covered++;
    ASSERT_TRUE(f.put(key, to_bytes("v")).is_ok());
  }
  std::array<NodeId, 4> before{};
  for (size_t s = 0; s < 4; ++s) {
    before[s] = f.client->cached_leader(s);
    ASSERT_NE(before[s], kNoNode) << "shard " << s;
  }

  // Epoch 1: shard 2 moves from group 2 to group 0; everything else stays.
  ShardMap next = f.client->routing().map;
  next.epoch += 1;
  next.shard_group[2] = 0;
  f.client->adopt_map(next);
  EXPECT_EQ(f.client->routing_epoch(), next.epoch);
  EXPECT_EQ(f.client->cached_leader(2), kNoNode) << "moved shard must drop its entry";
  for (size_t s : {0u, 1u, 3u}) {
    EXPECT_EQ(f.client->cached_leader(s), before[s]) << "shard " << s << " disturbed";
  }

  // A stale map (same epoch, different placement) must be ignored outright.
  ShardMap stale = next;
  stale.shard_group[1] = 0;
  f.client->adopt_map(stale);
  EXPECT_EQ(f.client->cached_leader(1), before[1]);
  EXPECT_EQ(f.client->routing().map.group_of(1), 1u);
}

TEST(Kv, FailoverServesOldDataViaRecoveryRead) {
  KvFixture f;
  Bytes value(6000, 0x2d);
  ASSERT_TRUE(f.put("precious", value).is_ok());
  f.world.run_for(500 * kMillis);

  int old_leader = f.cluster.leader_server_of(0);
  ASSERT_GE(old_leader, 0);
  f.cluster.crash_server(old_leader);

  // Wait for failover, then read: the new leader only has a share and must
  // perform a recovery read (§4.4).
  f.run_until([&] {
    int l = f.cluster.leader_server_of(0);
    return l >= 0 && l != old_leader;
  });
  int new_leader = f.cluster.leader_server_of(0);
  ASSERT_GE(new_leader, 0);

  const uint64_t reads0 = f.counter("rsp_kv_recovery_reads_total", new_leader);
  auto got = f.get("precious");
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(got.value(), value);
  EXPECT_GE(f.counter("rsp_kv_recovery_reads_total", new_leader) - reads0, 1u);
}

TEST(Kv, WritesContinueAfterFailover) {
  KvFixture f;
  ASSERT_TRUE(f.put("a", to_bytes("1")).is_ok());
  int old_leader = f.cluster.leader_server_of(0);
  f.cluster.crash_server(old_leader);
  f.run_until([&] {
    int l = f.cluster.leader_server_of(0);
    return l >= 0 && l != old_leader;
  });
  // "When a new write request arrives, the leader can simply issue a new
  // RS-Paxos instance ... even if it has not observed the previous value"
  // (§4.5).
  ASSERT_TRUE(f.put("a", to_bytes("2")).is_ok());
  auto got = f.get("a");
  ASSERT_TRUE(got.is_ok()) << got.status().to_string();
  EXPECT_EQ(to_string(got.value()), "2");
}

TEST(Kv, CrashedServerRecoversAndCatchesUp) {
  KvFixture f;
  ASSERT_TRUE(f.put("k1", to_bytes("v1")).is_ok());
  int leader = f.cluster.leader_server_of(0);
  int victim = (leader + 1) % 5;
  f.cluster.crash_server(victim);
  ASSERT_TRUE(f.put("k2", to_bytes("v2")).is_ok());
  ASSERT_TRUE(f.put("k3", to_bytes("v3")).is_ok());
  f.cluster.restart_server(victim);
  f.world.run_for(5 * kSeconds);
  // The restarted follower holds shares for all three keys.
  const auto& store = f.cluster.server(victim, 0)->store();
  EXPECT_NE(store.find("k1"), nullptr);
  EXPECT_NE(store.find("k2"), nullptr);
  EXPECT_NE(store.find("k3"), nullptr);
}

TEST(Kv, ToleratesFMinusOneFailuresTransparently) {
  KvFixture f;
  ASSERT_TRUE(f.put("k", to_bytes("before")).is_ok());
  int leader = f.cluster.leader_server_of(0);
  // Crash one non-leader: QW=4 of 5 still reachable, service continues.
  f.cluster.crash_server((leader + 2) % 5);
  ASSERT_TRUE(f.put("k", to_bytes("after")).is_ok());
  auto got = f.get("k");
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(to_string(got.value()), "after");
}

TEST(Kv, ManyClientsInterleave) {
  KvFixture f;
  std::vector<std::unique_ptr<KvClient>> clients;
  KvClient::Options copts;
  copts.request_timeout = 500 * kMillis;
  for (int i = 0; i < 10; ++i) clients.push_back(f.cluster.make_client(copts));
  int done = 0;
  for (int i = 0; i < 10; ++i) {
    clients[static_cast<size_t>(i)]->put(
        "c" + std::to_string(i), Bytes(100, static_cast<uint8_t>(i)),
        [&](Status s) {
          EXPECT_TRUE(s.is_ok());
          done++;
        });
  }
  f.run_until([&] { return done == 10; });
  EXPECT_EQ(done, 10);
  for (int i = 0; i < 10; ++i) {
    auto got = f.get("c" + std::to_string(i));
    ASSERT_TRUE(got.is_ok()) << i;
    EXPECT_EQ(got.value(), Bytes(100, static_cast<uint8_t>(i)));
  }
}

TEST(Kv, PaxosModeClusterWorksIdentically) {
  node::SimClusterOptions opts;
  opts.rs_mode = false;
  KvFixture f(opts);
  ASSERT_TRUE(f.put("p", to_bytes("classic")).is_ok());
  auto got = f.get("p");
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(to_string(got.value()), "classic");
  // In full-copy mode followers hold complete values.
  f.world.run_for(500 * kMillis);
  int leader = f.cluster.leader_server_of(0);
  for (int s = 0; s < 5; ++s) {
    const auto* rec = f.cluster.server(s, 0)->store().find("p");
    if (rec == nullptr) continue;
    if (s != leader) {
      EXPECT_EQ(rec->data().size(), 7u);
    }
  }
}

}  // namespace
}  // namespace rspaxos::kv
