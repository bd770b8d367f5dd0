// In-process transport: each node's EventLoop runs on its own LoopThread;
// messages hop between loops through thread-safe queues.
//
// This is the "real execution" counterpart of the simulator — same
// NodeContext contract, actual concurrency. Tests use it to shake out
// ordering assumptions that a deterministic simulation can hide; examples use
// it to run a whole replica group inside one binary.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "net/transport.h"
#include "obs/transport_metrics.h"
#include "util/event_loop.h"
#include "util/logging.h"
#include "util/rng.h"

namespace rspaxos::net {

class LocalTransport;

/// One node endpoint: owns the node's loop thread.
class LocalNode final : public NodeContext {
 public:
  NodeId id() const override { return id_; }
  TimeMicros now() const override { return runner_.loop().now(); }
  void send(NodeId to, MsgType type, Bytes payload) override;
  TimerId set_timer(DurationMicros delay, TimerFn fn) override;
  bool cancel_timer(TimerId id) override;
  uint64_t bytes_sent() const override { return bytes_sent_.load(); }

  void set_handler(MessageHandler* handler) override { handler_ = handler; }
  EventLoop& loop() { return runner_.loop(); }

  /// Runs fn on the node's loop thread and waits for it (test helper).
  void run_sync(std::function<void()> fn);

 private:
  friend class LocalTransport;
  LocalNode(LocalTransport* t, NodeId id) : transport_(t), id_(id) {
    metrics_.init(id);
    // Tag the node's loop thread so its log lines carry node=<id>.
    loop().post([id] { set_log_node(id); });
  }

  LocalTransport* transport_;
  NodeId id_;
  std::atomic<MessageHandler*> handler_{nullptr};
  std::atomic<uint64_t> bytes_sent_{0};
  obs::TransportMetrics metrics_;
  LoopThread runner_;
};

/// Registry + fabric for LocalNodes. Optional artificial delay/loss lets
/// tests exercise retransmission paths over real threads.
class LocalTransport {
 public:
  LocalTransport() = default;

  LocalNode* node(NodeId id);

  /// Applies uniform delay in [min,max] us and drop probability to every
  /// subsequently sent message.
  void set_chaos(DurationMicros min_delay_us, DurationMicros max_delay_us, double drop_prob);

  /// Stops delivering to/from the node (crash emulation).
  void disconnect(NodeId id);
  void reconnect(NodeId id);

 private:
  friend class LocalNode;
  void route(NodeId from, NodeId to, MsgType type, Bytes payload);

  std::mutex mu_;
  std::unordered_map<NodeId, std::unique_ptr<LocalNode>> nodes_;
  std::unordered_map<NodeId, bool> disconnected_;
  DurationMicros min_delay_us_ = 0;
  DurationMicros max_delay_us_ = 0;
  double drop_prob_ = 0.0;
  Rng rng_{42};
};

}  // namespace rspaxos::net
