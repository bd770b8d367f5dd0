// Client-visible consistency tests over the full KV stack: read-your-writes,
// monotonic reads, acknowledged-write durability across failures, and
// agreement under concurrent writers — the end-to-end face of the paper's
// §3.1 safety guarantees.
#include <gtest/gtest.h>

#include "node/sim_cluster.h"

namespace rspaxos::kv {
namespace {

struct Fixture {
  sim::SimWorld world;
  node::SimCluster cluster;
  std::unique_ptr<KvClient> client;

  explicit Fixture(uint64_t seed = 11, int groups = 1)
      : world(seed), cluster(&world, options(groups)) {
    cluster.wait_for_leaders();
    KvClient::Options copts;
    copts.request_timeout = 400 * kMillis;
    client = cluster.make_client(copts);
  }

  static node::SimClusterOptions options(int groups) {
    node::SimClusterOptions o;
    o.num_groups = groups;
    o.replica.heartbeat_interval = 20 * kMillis;
    o.replica.election_timeout_min = 150 * kMillis;
    o.replica.election_timeout_max = 300 * kMillis;
    o.replica.lease_duration = 100 * kMillis;
    o.replica.max_clock_drift = 10 * kMillis;
    return o;
  }

  template <typename Pred>
  bool run_until(Pred done, DurationMicros max = 30 * kSeconds) {
    TimeMicros deadline = world.now() + max;
    while (!done() && world.now() < deadline) world.run_for(2 * kMillis);
    return done();
  }
};

Bytes version_value(int v) {
  return to_bytes("version-" + std::to_string(1000 + v));
}

int parse_version(const Bytes& b) {
  std::string s = to_string(b);
  return std::stoi(s.substr(s.size() - 4)) - 1000;
}

TEST(Consistency, ReadYourWrites) {
  Fixture f;
  for (int v = 0; v < 20; ++v) {
    bool acked = false;
    f.client->put("k", version_value(v), [&](Status s) {
      ASSERT_TRUE(s.is_ok());
      acked = true;
    });
    ASSERT_TRUE(f.run_until([&] { return acked; }));
    // The very next read must observe this write (the ack fires only after
    // the leader applied the entry).
    std::optional<int> got;
    f.client->get("k", [&](StatusOr<Bytes> r) {
      ASSERT_TRUE(r.is_ok());
      got = parse_version(r.value());
    });
    ASSERT_TRUE(f.run_until([&] { return got.has_value(); }));
    EXPECT_EQ(*got, v);
  }
}

TEST(Consistency, MonotonicReadsWhileWriting) {
  Fixture f;
  // Writer: 40 sequential versions. Reader: interleaved fast reads. The
  // observed versions must never go backwards.
  int next_version = 0;
  bool writer_done = false;
  std::function<void()> write_next = [&] {
    if (next_version >= 40) {
      writer_done = true;
      return;
    }
    int v = next_version++;
    f.client->put("mono", version_value(v), [&](Status s) {
      ASSERT_TRUE(s.is_ok());
      write_next();
    });
  };
  write_next();

  auto reader = f.cluster.make_client();
  std::vector<int> observed;
  bool reader_stop = false;
  std::function<void()> read_next = [&] {
    if (reader_stop) return;
    reader->get("mono", [&](StatusOr<Bytes> r) {
      if (r.is_ok()) observed.push_back(parse_version(r.value()));
      read_next();
    });
  };
  read_next();

  ASSERT_TRUE(f.run_until([&] { return writer_done; }));
  reader_stop = true;
  f.world.run_for(500 * kMillis);

  ASSERT_GT(observed.size(), 5u);
  for (size_t i = 1; i < observed.size(); ++i) {
    EXPECT_GE(observed[i], observed[i - 1])
        << "monotonic-read violation at read " << i;
  }
  EXPECT_EQ(observed.back(), 39);
}

TEST(Consistency, AcknowledgedWritesSurviveLeaderCrash) {
  Fixture f;
  constexpr int kKeys = 15;
  for (int i = 0; i < kKeys; ++i) {
    bool acked = false;
    f.client->put("key-" + std::to_string(i), version_value(i),
                  [&](Status s) { acked = s.is_ok(); });
    ASSERT_TRUE(f.run_until([&] { return acked; }));
  }
  f.world.run_for(300 * kMillis);  // commits spread to followers

  int old_leader = f.cluster.leader_server_of(0);
  f.cluster.crash_server(old_leader);
  ASSERT_TRUE(f.run_until([&] {
    int l = f.cluster.leader_server_of(0);
    return l >= 0 && l != old_leader;
  }));

  // Every acknowledged write must be readable with its exact value — these
  // reads exercise the recovery-read path on the new leader.
  for (int i = 0; i < kKeys; ++i) {
    std::optional<int> got;
    f.client->get("key-" + std::to_string(i), [&](StatusOr<Bytes> r) {
      ASSERT_TRUE(r.is_ok()) << "key-" << i << ": " << r.status().to_string();
      got = parse_version(r.value());
    });
    ASSERT_TRUE(f.run_until([&] { return got.has_value(); })) << "key-" << i;
    EXPECT_EQ(*got, i) << "key-" << i;
  }
}

TEST(Consistency, ImmediateCrashAfterAckNeverLosesTheWrite) {
  // The harshest §4.5 case: the ack races the crash — a write acknowledged
  // a moment before the leader dies must survive, because QW replicas logged
  // their shares durably before acking.
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Fixture f(seed);
    bool acked = false;
    f.client->put("flash", version_value(7), [&](Status s) { acked = s.is_ok(); });
    ASSERT_TRUE(f.run_until([&] { return acked; }));
    int old_leader = f.cluster.leader_server_of(0);
    f.cluster.crash_server(old_leader);  // immediately, no grace period

    ASSERT_TRUE(f.run_until([&] {
      int l = f.cluster.leader_server_of(0);
      return l >= 0 && l != old_leader;
    })) << "seed " << seed;

    std::optional<int> got;
    f.client->get("flash", [&](StatusOr<Bytes> r) {
      if (r.is_ok()) got = parse_version(r.value());
    });
    ASSERT_TRUE(f.run_until([&] { return got.has_value(); })) << "seed " << seed;
    EXPECT_EQ(*got, 7) << "seed " << seed;
  }
}

TEST(Consistency, ConcurrentWritersConverge) {
  Fixture f;
  constexpr int kWriters = 6;
  std::vector<std::unique_ptr<KvClient>> writers;
  std::vector<bool> acked(kWriters, false);
  for (int w = 0; w < kWriters; ++w) {
    writers.push_back(f.cluster.make_client());
  }
  for (int w = 0; w < kWriters; ++w) {
    writers[static_cast<size_t>(w)]->put("contended", version_value(w),
                                         [&acked, w](Status s) {
                                           EXPECT_TRUE(s.is_ok());
                                           acked[static_cast<size_t>(w)] = true;
                                         });
  }
  ASSERT_TRUE(f.run_until([&] {
    for (bool a : acked) {
      if (!a) return false;
    }
    return true;
  }));

  // All replicas' logs agree; repeated consistent reads return the same
  // final value, and it is one of the written ones.
  std::optional<int> first;
  for (int trial = 0; trial < 3; ++trial) {
    std::optional<int> got;
    f.client->consistent_get("contended", [&](StatusOr<Bytes> r) {
      ASSERT_TRUE(r.is_ok());
      got = parse_version(r.value());
    });
    ASSERT_TRUE(f.run_until([&] { return got.has_value(); }));
    EXPECT_GE(*got, 0);
    EXPECT_LT(*got, kWriters);
    if (!first.has_value()) {
      first = got;
    } else {
      EXPECT_EQ(*got, *first);
    }
  }
}

TEST(Consistency, FollowerRestartObservesSamePrefix) {
  Fixture f;
  for (int i = 0; i < 10; ++i) {
    bool acked = false;
    f.client->put("p" + std::to_string(i), version_value(i),
                  [&](Status s) { acked = s.is_ok(); });
    ASSERT_TRUE(f.run_until([&] { return acked; }));
  }
  int leader = f.cluster.leader_server_of(0);
  int victim = (leader + 1) % 5;
  f.cluster.crash_server(victim);
  for (int i = 10; i < 20; ++i) {
    bool acked = false;
    f.client->put("p" + std::to_string(i), version_value(i),
                  [&](Status s) { acked = s.is_ok(); });
    ASSERT_TRUE(f.run_until([&] { return acked; }));
  }
  f.cluster.restart_server(victim);
  f.world.run_for(5 * kSeconds);

  // The restarted follower's store covers all 20 keys (WAL replay + §4.5
  // catch-up), each tracking the key's last write slot.
  const auto& store = f.cluster.server(victim, 0)->store();
  for (int i = 0; i < 20; ++i) {
    const auto* rec = store.find("p" + std::to_string(i));
    ASSERT_NE(rec, nullptr) << "p" << i;
    EXPECT_GT(rec->slot, 0u);
  }
}

TEST(Consistency, AtMostOneValidLeaseAtAnyInstant) {
  // The §4.3 lease argument: with drift bound δ respected, no two replicas
  // can both believe they hold the leadership lease — that exclusivity is
  // what makes fast reads safe. Step the simulation in small increments
  // through elections, partitions and heals, asserting the invariant at
  // every step.
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Fixture f(seed);
    auto check = [&] {
      int holders = 0;
      for (int s = 0; s < 5; ++s) {
        auto* srv = f.cluster.server(s, 0);
        if (srv != nullptr && f.cluster.server_alive(s) &&
            srv->replica().lease_valid()) {
          holders++;
        }
      }
      ASSERT_LE(holders, 1) << "two lease holders, seed " << seed << " t="
                            << f.world.now();
    };
    // Background load so leases are actively maintained.
    bool stop = false;
    std::function<void()> loop = [&] {
      if (stop) return;
      f.client->put("lease-k", to_bytes("x"), [&](Status) { loop(); });
    };
    loop();

    // Phase 1: steady state.
    for (int i = 0; i < 100; ++i) {
      f.world.run_for(5 * kMillis);
      check();
    }
    // Phase 2: isolate the current leader (it must lose its lease before a
    // rival gains one).
    int leader = f.cluster.leader_server_of(0);
    ASSERT_GE(leader, 0);
    std::set<NodeId> a{net::endpoint_id(leader, 0)}, b;
    for (int s = 0; s < 5; ++s) {
      if (s != leader) b.insert(net::endpoint_id(s, 0));
    }
    f.cluster.network().partition(a, b);
    for (int i = 0; i < 300; ++i) {
      f.world.run_for(5 * kMillis);
      check();
    }
    // Phase 3: heal; the old leader must step down, still never two leases.
    f.cluster.network().heal_partitions();
    for (int i = 0; i < 300; ++i) {
      f.world.run_for(5 * kMillis);
      check();
    }
    stop = true;
    f.world.run_for(200 * kMillis);
  }
}

TEST(Consistency, MultiGroupIndependence) {
  // A crash in one group's leader must not disturb other groups' data.
  Fixture f(3, /*groups=*/4);
  for (int i = 0; i < 24; ++i) {
    bool acked = false;
    f.client->put("mg" + std::to_string(i), version_value(i),
                  [&](Status s) { acked = s.is_ok(); });
    ASSERT_TRUE(f.run_until([&] { return acked; }));
  }
  int victim = f.cluster.leader_server_of(0);
  f.cluster.crash_server(victim);
  ASSERT_TRUE(f.run_until([&] {
    for (int g = 0; g < 4; ++g) {
      int l = f.cluster.leader_server_of(g);
      if (l < 0 || l == victim) return false;
    }
    return true;
  }));
  for (int i = 0; i < 24; ++i) {
    std::optional<int> got;
    f.client->get("mg" + std::to_string(i), [&](StatusOr<Bytes> r) {
      ASSERT_TRUE(r.is_ok()) << "mg" << i << ": " << r.status().to_string();
      got = parse_version(r.value());
    });
    ASSERT_TRUE(f.run_until([&] { return got.has_value(); })) << "mg" << i;
    EXPECT_EQ(*got, i);
  }
}

}  // namespace
}  // namespace rspaxos::kv
