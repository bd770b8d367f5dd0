// Randomized property tests for the protocol's load-bearing pure functions:
//   - choose_phase1_value (§3.2 1c): the returned value is always decodable,
//     always the highest-ballot recoverable candidate, and any value that
//     *could have been chosen* (>= QW coded accepts, per Proposition 3
//     visible as >= X shares in any read quorum) is never skipped;
//   - Reed-Solomon: exhaustive any-m-of-n reconstruction for small codes;
//   - quorum algebra: every generated configuration keeps the intersection
//     invariant under membership arithmetic.
#include <gtest/gtest.h>

#include <map>

#include "consensus/config.h"
#include "consensus/single.h"
#include "ec/policy.h"
#include "util/rng.h"

namespace rspaxos::consensus {
namespace {

struct SeededCase : ::testing::TestWithParam<uint64_t> {};

TEST_P(SeededCase, Phase1ChoiceIsSoundAndMaximal) {
  Rng rng(GetParam());
  // Random group: N in [3, 9], RS-max-X config for random feasible F.
  int n = 3 + static_cast<int>(rng.next_below(7));
  int max_f = (n - 1) / 2;
  int f = 1 + static_cast<int>(rng.next_below(static_cast<uint64_t>(max_f)));
  int x = n - 2 * f;

  // Create up to 3 candidate values with random ballots and random subsets
  // of acceptors holding their shares.
  struct Candidate {
    ValueId vid;
    Ballot ballot;
    Bytes payload;
    std::vector<Bytes> shares;
    int shares_present = 0;
  };
  const ec::EcPolicy& code = ec::PolicyCache::get(ec::CodeId::kRs, x, n);
  int num_candidates = 1 + static_cast<int>(rng.next_below(3));
  std::vector<Candidate> cands;
  std::vector<PromiseEntry> entries;
  for (int c = 0; c < num_candidates; ++c) {
    Candidate cand;
    cand.vid = ValueId{static_cast<NodeId>(100 + c), rng.next_u64() | 1};
    cand.ballot = Ballot{static_cast<uint32_t>(1 + rng.next_below(50)),
                         static_cast<NodeId>(100 + c)};
    cand.payload.resize(1 + rng.next_below(300));
    rng.fill(cand.payload.data(), cand.payload.size());
    cand.shares = code.encode(cand.payload);
    // Each acceptor index independently holds this candidate's share with
    // probability 1/2 — but an acceptor can only hold ONE accepted value, so
    // later candidates overwrite earlier ones at the same index (higher
    // ballot wins like a real acceptor would).
    cands.push_back(std::move(cand));
  }
  // Assign per-acceptor accepted state: the candidate with the highest
  // ballot among those that "reached" the acceptor.
  for (int a = 0; a < n; ++a) {
    int best = -1;
    for (int c = 0; c < num_candidates; ++c) {
      if (rng.chance(0.5)) {
        if (best < 0 || cands[static_cast<size_t>(c)].ballot >
                            cands[static_cast<size_t>(best)].ballot) {
          best = c;
        }
      }
    }
    if (best < 0) continue;
    Candidate& cand = cands[static_cast<size_t>(best)];
    cand.shares_present++;
    PromiseEntry e;
    e.slot = 0;
    e.accepted_ballot = cand.ballot;
    e.share.vid = cand.vid;
    e.share.share_idx = static_cast<uint32_t>(a);
    e.share.x = static_cast<uint32_t>(x);
    e.share.n = static_cast<uint32_t>(n);
    e.share.value_len = cand.payload.size();
    e.share.data = cand.shares[static_cast<size_t>(a)];
    entries.push_back(std::move(e));
  }

  auto choice = choose_phase1_value(entries);
  ASSERT_TRUE(choice.is_ok());

  // Expected: the highest-ballot candidate with >= x shares present.
  const Candidate* expect = nullptr;
  for (const Candidate& c : cands) {
    if (c.shares_present >= x && (expect == nullptr || c.ballot > expect->ballot)) {
      expect = &c;
    }
  }
  if (expect == nullptr) {
    EXPECT_FALSE(choice.value().bound.has_value());
  } else {
    ASSERT_TRUE(choice.value().bound.has_value());
    EXPECT_EQ(choice.value().bound->vid, expect->vid);
    EXPECT_EQ(choice.value().bound->payload, expect->payload);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededCase, ::testing::Range<uint64_t>(1, 201));

TEST(RsExhaustive, EveryMSubsetOfSmallCodes) {
  Rng rng(99);
  for (int n = 2; n <= 6; ++n) {
    for (int m = 1; m <= n; ++m) {
      const ec::EcPolicy& code = ec::PolicyCache::get(ec::CodeId::kRs, m, n);
      Bytes value(57);
      rng.fill(value.data(), value.size());
      auto shares = code.encode(value);
      // Iterate all C(n, m) subsets via bitmask.
      for (unsigned mask = 0; mask < (1u << n); ++mask) {
        if (__builtin_popcount(mask) != m) continue;
        std::map<int, Bytes> in;
        for (int i = 0; i < n; ++i) {
          if (mask & (1u << i)) in.emplace(i, shares[static_cast<size_t>(i)]);
        }
        auto out = code.decode(in, value.size());
        ASSERT_TRUE(out.is_ok()) << "m=" << m << " n=" << n << " mask=" << mask;
        ASSERT_EQ(out.value(), value) << "m=" << m << " n=" << n << " mask=" << mask;
      }
    }
  }
}

TEST(QuorumProperty, GeneratedConfigsAlwaysIntersectInX) {
  Rng rng(7);
  for (int trial = 0; trial < 500; ++trial) {
    int n = 2 + static_cast<int>(rng.next_below(10));
    auto choices = enumerate_quorum_choices(n);
    for (const QuorumChoice& qc : choices) {
      // Worst-case overlap of a QR-set and a QW-set out of n elements.
      int overlap = qc.qr + qc.qw - n;
      EXPECT_GE(overlap, qc.x);
      // And the failure bound leaves a full write quorum alive.
      EXPECT_LE(qc.f + std::max(qc.qr, qc.qw), n);
    }
  }
}

TEST(QuorumProperty, RsMaxXDominatesRedundancy) {
  // Among all feasible configs with the same F, the rs_max_x choice has the
  // (weakly) smallest redundancy n/x.
  for (int n : {5, 7, 9, 11, 13}) {
    auto choices = enumerate_quorum_choices(n);
    for (const QuorumChoice& qc : choices) {
      if (n - 2 * qc.f < 1) continue;
      int best_x = n - 2 * qc.f;
      EXPECT_LE(qc.x, best_x) << "n=" << n << " f=" << qc.f;
    }
  }
}

}  // namespace
}  // namespace rspaxos::consensus
