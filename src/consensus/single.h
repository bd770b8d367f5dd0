// Single-decree RS-Paxos (§3.2), as standalone state machines.
//
// These classes implement exactly the two-phase protocol of the paper —
// including the phase-1(c) recoverable-value rule that fixes the naive
// combination's §2.3 bug — with no Multi-Paxos machinery. The nemesis/safety
// test-suite runs them under adversarial schedules; the Multi-Paxos Replica
// (replica.h) embeds the same per-slot rules.
#pragma once

#include <functional>
#include <map>
#include <optional>

#include "consensus/msg.h"
#include "net/transport.h"
#include "storage/wal.h"

namespace rspaxos::consensus {

/// Result of scanning a read quorum of promises (phase 1c).
struct Phase1Choice {
  // If engaged, the proposer is *bound*: it must re-propose this value.
  // Holds the decoded full payload plus identity/metadata.
  struct Bound {
    ValueId vid;
    EntryKind kind;
    Bytes header;
    Bytes payload;
  };
  std::optional<Bound> bound;
};

/// Implements §3.2 phase 1(c): group accepted shares by value id, order value
/// ids by their highest accepted ballot, and pick the highest-ballot
/// *recoverable* value (>= X distinct share indices decode it). If no value
/// is recoverable the proposer is free ("may also choose its own value") —
/// the quorum equation guarantees an unrecoverable value can never have been
/// (nor ever be) chosen in an earlier round (Proposition 3).
/// Each share carries its own θ(x, n) metadata, so the recoverability
/// threshold comes from the shares themselves.
StatusOr<Phase1Choice> choose_phase1_value(const std::vector<PromiseEntry>& entries);

/// Acceptor for one or many slots. All mutations are persisted to the WAL
/// *before* the reply callback runs (§4.5).
class SingleAcceptor {
 public:
  struct SlotState {
    Ballot promised;
    Ballot accepted;
    CodedShare share;  // valid iff !accepted.is_null()
  };

  explicit SingleAcceptor(storage::Wal* wal) : wal_(wal) {}

  /// Phase 1(b). `reply` fires after the promise is durable.
  void on_prepare(const PrepareMsg& msg, std::function<void(PromiseMsg)> reply);

  /// Phase 2(b). `reply` fires after the acceptance is durable.
  void on_accept(const AcceptMsg& msg, std::function<void(AcceptedMsg)> reply);

  /// Read-only view for learners / recovery reads.
  const SlotState* slot_state(Slot s) const;

  /// Rebuilds acceptor state from the WAL after a crash (§4.5: "it is able
  /// to recover all its states including the maximum ballots it replied to
  /// and all the values it accepted").
  void restore_from_wal();

  size_t slots_touched() const { return slots_.size(); }

 private:
  void persist(Slot s, const SlotState& st, std::function<void()> then);

  storage::Wal* wal_;
  std::map<Slot, SlotState> slots_;
};

/// Drives one proposal through both phases against a set of acceptors,
/// with retransmission (the paper's liveness mechanism: "Each replica keeps
/// sending message to one another until it gets response").
class SingleProposer final : public MessageHandler {
 public:
  /// Outcome: the decided value id (which may be a re-proposed earlier
  /// value, not the caller's), or an error after giving up.
  using DecideFn = std::function<void(StatusOr<ValueId>)>;

  struct Options {
    DurationMicros retransmit_interval = 100 * kMillis;
    int max_rounds = 64;  // give up (livelock guard) after this many ballots
    Slot slot = 0;
  };

  SingleProposer(NodeContext* ctx, GroupConfig cfg, Options opts);
  SingleProposer(NodeContext* ctx, GroupConfig cfg);

  /// Starts proposing. header/payload form the command; payload gets coded.
  void propose(Bytes header, Bytes payload, DecideFn on_decide);

  void on_message(NodeId from, MsgType type, BytesView payload) override;

  /// The value id this proposer ended up writing (set once decided).
  std::optional<ValueId> decided() const { return decided_; }

 private:
  void start_round();
  void send_prepares();
  void begin_phase2(Phase1Choice choice);
  void send_accepts();
  void arm_retransmit();

  NodeContext* ctx_;
  GroupConfig cfg_;
  Options opts_;
  DecideFn on_decide_;

  Bytes my_header_;
  Bytes my_payload_;
  ValueId my_vid_;

  enum class Phase { kIdle, kPrepare, kAccept, kDone } phase_ = Phase::kIdle;
  uint32_t round_ = 0;
  int rounds_used_ = 0;
  Ballot ballot_;
  std::map<NodeId, PromiseMsg> promises_;
  std::map<NodeId, bool> accept_acks_;
  // Phase-2 value (either ours or a recovered earlier one).
  ValueId active_vid_;
  EntryKind active_kind_ = EntryKind::kNormal;
  Bytes active_header_;
  Bytes active_payload_;
  std::vector<Bytes> active_shares_;
  std::optional<ValueId> decided_;
  NodeContext::TimerId retransmit_timer_ = 0;
};

}  // namespace rspaxos::consensus
