// Reconfiguration tests (§4.6): the re-encode planner's rules (including the
// paper's two worked examples), view-change validation, and end-to-end epoch
// switches through the replicated log.
#include <gtest/gtest.h>

#include "consensus/view.h"
#include "node/sim_cluster.h"

namespace rspaxos::consensus {
namespace {

GroupConfig make(std::vector<NodeId> members, int qr, int qw, int x, Epoch epoch) {
  GroupConfig c;
  c.members = std::move(members);
  c.qr = qr;
  c.qw = qw;
  c.x = x;
  c.epoch = epoch;
  return c;
}

TEST(ViewPlan, SameXSameMembersNeedsNothing) {
  // Paper example 1: (N=5, Q=4, θ(3,5)) -> θ'(3,3)-shaped change keeping X:
  // "there is no need to re-spread the data".
  GroupConfig oldc = make({1, 2, 3, 4, 5}, 4, 4, 3, 0);
  GroupConfig newc = make({1, 2, 3, 4, 5}, 4, 4, 3, 1);
  EXPECT_EQ(plan_reencode(oldc, newc), ReencodeAction::kNone);
}

TEST(ViewPlan, SameXNewMembersOnlySeedsNewReplicas) {
  GroupConfig oldc = make({1, 2, 3, 4, 5}, 4, 4, 3, 0);
  GroupConfig newc = make({1, 2, 3, 4, 5, 6}, 5, 4, 3, 1);
  EXPECT_EQ(plan_reencode(oldc, newc), ReencodeAction::kConfirmShares);
}

TEST(ViewPlan, QuorumAtLeastOldXConfirmsOnly) {
  // Paper example 2: old (N=5, Q=4, X=3), new (N'=4, Q'=3, X'=2):
  // "the system only needs to confirm every server holds its data shares".
  GroupConfig oldc = make({1, 2, 3, 4, 5}, 4, 4, 3, 0);
  GroupConfig newc = make({1, 2, 3, 4}, 3, 3, 2, 1);
  EXPECT_EQ(plan_reencode(oldc, newc), ReencodeAction::kConfirmShares);
}

TEST(ViewPlan, SmallQuorumForcesRecode) {
  // New quorum below old X: a quorum might not reach X old shares — recode.
  GroupConfig oldc = make({1, 2, 3, 4, 5, 6, 7}, 6, 6, 5, 0);
  GroupConfig newc = make({1, 2, 3}, 2, 2, 1, 1);
  EXPECT_EQ(plan_reencode(oldc, newc), ReencodeAction::kRecode);
}

TEST(ViewPlan, XChangeWithLargeQuorumStillConfirmOnly) {
  GroupConfig oldc = make({1, 2, 3, 4, 5}, 4, 4, 3, 0);
  GroupConfig newc = make({1, 2, 3, 4, 5}, 5, 3, 3, 1);
  // X unchanged -> none (same members).
  EXPECT_EQ(plan_reencode(oldc, newc), ReencodeAction::kNone);
  GroupConfig newc2 = make({1, 2, 3, 4, 5}, 4, 5, 4, 1);
  // X raised 3->4 but min quorum 4 >= old X 3 -> confirm only.
  EXPECT_EQ(plan_reencode(oldc, newc2), ReencodeAction::kConfirmShares);
}

TEST(ViewChange, ValidationRules) {
  GroupConfig oldc = make({1, 2, 3, 4, 5}, 4, 4, 3, 4);
  GroupConfig good = make({1, 2, 3, 4, 5}, 3, 3, 1, 5);
  EXPECT_TRUE(validate_view_change(oldc, good).is_ok());

  GroupConfig bad_epoch = make({1, 2, 3, 4, 5}, 3, 3, 1, 7);
  EXPECT_FALSE(validate_view_change(oldc, bad_epoch).is_ok());

  GroupConfig invalid = make({1, 2, 3, 4, 5}, 3, 3, 3, 5);  // equation broken
  EXPECT_FALSE(validate_view_change(oldc, invalid).is_ok());
}

TEST(ViewPlan, ToStringCoversAllActions) {
  EXPECT_STREQ(to_string(ReencodeAction::kNone), "none");
  EXPECT_STREQ(to_string(ReencodeAction::kConfirmShares), "confirm-shares");
  EXPECT_STREQ(to_string(ReencodeAction::kRecode), "recode");
}

}  // namespace
}  // namespace rspaxos::consensus

namespace rspaxos::kv {
namespace {

using consensus::GroupConfig;

struct Fixture {
  sim::SimWorld world{7};
  node::SimCluster cluster;

  Fixture() : cluster(&world, options()) { cluster.wait_for_leaders(); }

  static node::SimClusterOptions options() {
    node::SimClusterOptions o;
    o.replica.heartbeat_interval = 20 * kMillis;
    o.replica.election_timeout_min = 150 * kMillis;
    o.replica.election_timeout_max = 300 * kMillis;
    o.replica.lease_duration = 100 * kMillis;
    return o;
  }
};

TEST(ViewChangeE2E, EpochSwitchesOnAllReplicas) {
  Fixture f;
  int leader = f.cluster.leader_server_of(0);
  ASSERT_GE(leader, 0);
  auto& rep = f.cluster.server(leader, 0)->replica();

  GroupConfig newc = rep.config();
  newc.epoch = 1;
  // Flip from X=3 to full-copy X=1 with majority quorums (still N=5).
  newc.x = 1;
  newc.qr = 3;
  newc.qw = 3;
  bool committed = false;
  rep.propose_config(newc, [&](StatusOr<consensus::Slot> r) {
    ASSERT_TRUE(r.is_ok());
    committed = true;
  });
  f.world.run_for(2 * kSeconds);
  ASSERT_TRUE(committed);
  for (int s = 0; s < 5; ++s) {
    EXPECT_EQ(f.cluster.server(s, 0)->replica().config().epoch, 1u) << "server " << s;
    EXPECT_EQ(f.cluster.server(s, 0)->replica().config().x, 1);
  }
}

TEST(ViewChangeE2E, WritesUseNewCodingAfterSwitch) {
  Fixture f;
  auto client = f.cluster.make_client();
  // Write before the change: X=3 shares on followers.
  bool done = false;
  client->put("pre", Bytes(3000, 1), [&](Status s) {
    ASSERT_TRUE(s.is_ok());
    done = true;
  });
  while (!done) f.world.run_for(5 * kMillis);

  int leader = f.cluster.leader_server_of(0);
  auto& rep = f.cluster.server(leader, 0)->replica();
  GroupConfig newc = rep.config();
  newc.epoch = 1;
  newc.x = 1;
  newc.qr = 3;
  newc.qw = 3;
  rep.propose_config(newc, nullptr);
  f.world.run_for(2 * kSeconds);

  done = false;
  client->put("post", Bytes(3000, 2), [&](Status s) {
    ASSERT_TRUE(s.is_ok());
    done = true;
  });
  TimeMicros deadline = f.world.now() + 10 * kSeconds;
  while (!done && f.world.now() < deadline) f.world.run_for(5 * kMillis);
  ASSERT_TRUE(done);
  f.world.run_for(1 * kSeconds);

  leader = f.cluster.leader_server_of(0);
  for (int s = 0; s < 5; ++s) {
    if (s == leader) continue;
    const auto* rec = f.cluster.server(s, 0)->store().find("post");
    ASSERT_NE(rec, nullptr);
    // X=1: followers now hold full copies.
    EXPECT_EQ(rec->data().size(), 3000u) << "server " << s;
  }
}

TEST(ViewChangeE2E, RejectsSkippedEpoch) {
  Fixture f;
  int leader = f.cluster.leader_server_of(0);
  auto& rep = f.cluster.server(leader, 0)->replica();
  GroupConfig newc = rep.config();
  newc.epoch = 5;  // must be current + 1
  bool called = false;
  rep.propose_config(newc, [&](StatusOr<consensus::Slot> r) {
    called = true;
    EXPECT_FALSE(r.is_ok());
  });
  EXPECT_TRUE(called);
}

// The election-timeout stagger is a protocol input kept per Replica
// instance. Two identical clusters built one after the other in one process
// must fail over identically: nothing process-wide that outlives the first
// cluster (such as a registry counter shared by equal node ids) may feed it.
TEST(FailoverDeterminism, RebuiltClusterElectsSameLeaderAtSameTime) {
  struct Outcome {
    int leader = -1;
    TimeMicros elected_at = 0;
    consensus::Slot commit_index = 0;
  };
  auto run = [] {
    Outcome out;
    Fixture f;
    auto client = f.cluster.make_client();
    int acked = 0;
    for (int i = 0; i < 5; ++i) {
      client->put("det-" + std::to_string(i), Bytes(600, static_cast<uint8_t>(i)),
                  [&](Status s) { acked += s.is_ok() ? 1 : 0; });
    }
    f.world.run_for(1 * kSeconds);
    EXPECT_EQ(acked, 5);
    int old_leader = f.cluster.leader_server_of(0);
    EXPECT_GE(old_leader, 0);
    f.cluster.crash_server(old_leader);
    TimeMicros deadline = f.world.now() + 10 * kSeconds;
    while (f.world.now() < deadline) {
      int l = f.cluster.leader_server_of(0);
      if (l >= 0 && l != old_leader) break;
      f.world.run_for(1 * kMillis);
    }
    out.leader = f.cluster.leader_server_of(0);
    out.elected_at = f.world.now();
    EXPECT_GE(out.leader, 0);
    EXPECT_NE(out.leader, old_leader);
    if (out.leader < 0) return out;
    f.world.run_for(500 * kMillis);
    out.commit_index = f.cluster.server(out.leader, 0)->replica().commit_index();
    return out;
  };
  Outcome first = run();
  Outcome second = run();
  EXPECT_EQ(second.leader, first.leader);
  EXPECT_EQ(second.elected_at, first.elected_at);
  EXPECT_EQ(second.commit_index, first.commit_index);
  EXPECT_GT(first.commit_index, 0u);
}

}  // namespace
}  // namespace rspaxos::kv
