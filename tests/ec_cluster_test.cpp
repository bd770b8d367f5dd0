// Cluster-level coverage for the pluggable erasure-code policy layer: a
// simulated 5-server cluster runs Hitchhiker (hh) shares end to end — normal
// writes, catch-up of a lagging replica served through plan-driven share
// repair, and degraded reads after the only full-copy holder (the proposing
// leader) dies. hh is MDS, so the rs quorums (QR = QW = N - f, X = N - 2f)
// carry over unchanged; what changes is every byte on the wire.
#include <gtest/gtest.h>

#include <string>

#include "node/sim_cluster.h"

namespace rspaxos::kv {
namespace {

struct EcFixture {
  sim::SimWorld world;
  node::SimCluster cluster;
  std::unique_ptr<KvClient> client;

  explicit EcFixture(node::SimClusterOptions opts = {}, uint64_t seed = 42)
      : world(seed), cluster(&world, tuned(opts)) {
    cluster.wait_for_leaders();
    KvClient::Options copts;
    copts.request_timeout = 500 * kMillis;
    client = cluster.make_client(copts);
  }

  static node::SimClusterOptions tuned(node::SimClusterOptions opts) {
    opts.code = ec::CodeId::kHh;
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
  void run_until(Pred done, DurationMicros max = 30 * kSeconds) {
    TimeMicros deadline = world.now() + max;
    while (!done() && world.now() < deadline) world.run_for(5 * kMillis);
  }

  int leader() const { return cluster.leader_server_of(0); }
  consensus::Replica& replica(int s) { return cluster.server(s, 0)->replica(); }

  // Registry counter `name` of server s's group-0 endpoint. Earlier clusters
  // in this process reuse the node ids, so tests read deltas.
  static uint64_t counter(const char* name, int s) {
    return obs::MetricsRegistry::global().counter_sum(
        name, {{"node", std::to_string(net::endpoint_id(s, 0))}});
  }
};

Bytes value_for(int i) {
  return Bytes(256, static_cast<uint8_t>('a' + (i % 26)));
}

TEST(EcClusterSim, HitchhikerSharesCommitAndRead) {
  EcFixture f;
  ASSERT_EQ(f.cluster.server(f.leader(), 0)->replica().config().code, ec::CodeId::kHh);

  const int kKeys = 30;
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(f.put("k" + std::to_string(i), value_for(i)).is_ok()) << i;
  }
  for (int i = 0; i < kKeys; ++i) {
    auto got = f.get("k" + std::to_string(i));
    ASSERT_TRUE(got.is_ok()) << "k" << i << ": " << got.status().to_string();
    EXPECT_EQ(got.value(), value_for(i));
  }
  // Acceptors persisted hh shares, not full copies: every follower's WAL is
  // a fraction of the leader's total value bytes (x = 3 here).
  int l = f.leader();
  for (int s = 0; s < 5; ++s) {
    if (s == l) continue;
    EXPECT_LT(f.cluster.host_wal(s).bytes_flushed(),
              static_cast<uint64_t>(kKeys) * 256)
        << "server " << s << " stored full copies, not shares";
  }
}

// The hard path: a follower misses writes whose proposer then dies. The new
// leader holds only its own hh share of those slots, so serving catch-up to
// the restarted follower forces the plan-driven share repair (fetch the
// cheapest share set from peers, rebuild the requester's share), and client
// reads of those keys decode from a gathered share set (degraded reads).
TEST(EcClusterSim, RepairServesCatchupAndDegradedReadsAfterLeaderLoss) {
  EcFixture f;
  const int kPhase1 = 10, kPhase2 = 24;
  for (int i = 0; i < kPhase1; ++i) {
    ASSERT_TRUE(f.put("k" + std::to_string(i), value_for(i)).is_ok()) << i;
  }

  int old_leader = f.leader();
  ASSERT_GE(old_leader, 0);
  int lagger = (old_leader + 4) % 5;  // any non-leader
  f.cluster.crash_server(lagger);

  // QW = 4 of 5: writes still commit with exactly the other four alive.
  for (int i = kPhase1; i < kPhase2; ++i) {
    ASSERT_TRUE(f.put("k" + std::to_string(i), value_for(i)).is_ok()) << i;
  }

  // Repair traffic of every server that survives the next step, from here on.
  auto fetched = [&] {
    uint64_t sum = 0;
    for (int s = 0; s < 5; ++s) {
      if (s != old_leader) sum += f.counter("rsp_repair_bytes_total", s);
    }
    return sum;
  };
  const uint64_t fetched0 = fetched();

  // Kill the proposer: phase-2 values now exist ONLY as hh shares.
  f.cluster.crash_server(old_leader);
  f.cluster.restart_server(lagger);
  f.run_until([&] {
    int l = f.leader();
    return l >= 0 && l != old_leader;
  });
  int new_leader = f.leader();
  ASSERT_GE(new_leader, 0);
  ASSERT_NE(new_leader, old_leader);
  const uint64_t degraded0 = f.counter("rsp_ec_degraded_reads_total", new_leader);

  // Every key must still read correctly — phase-2 ones decode degraded.
  for (int i = 0; i < kPhase2; ++i) {
    auto got = f.get("k" + std::to_string(i));
    ASSERT_TRUE(got.is_ok()) << "k" << i << ": " << got.status().to_string();
    EXPECT_EQ(got.value(), value_for(i)) << "k" << i;
  }
  EXPECT_GT(f.counter("rsp_ec_degraded_reads_total", new_leader) - degraded0, 0u)
      << "phase-2 reads must have decoded from gathered shares";

  // The lagger converges to the cluster's applied frontier; closing its gap
  // required share fetches somewhere (catch-up repair or whole-value
  // recovery), which the repair-bytes stat accounts.
  consensus::Slot target = f.replica(new_leader).last_applied();
  f.run_until([&] { return f.replica(lagger).last_applied() >= target; });
  EXPECT_GE(f.replica(lagger).last_applied(), target);
  EXPECT_GT(fetched() - fetched0, 0u) << "no share bytes were ever fetched for repair";
}

}  // namespace
}  // namespace rspaxos::kv
