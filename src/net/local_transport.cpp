#include "net/local_transport.h"

#include <future>

#include "obs/trace.h"

namespace rspaxos::net {

void LocalNode::send(NodeId to, MsgType type, Bytes payload) {
  bytes_sent_.fetch_add(payload.size(), std::memory_order_relaxed);
  metrics_.on_send(type, payload.size());
  transport_->route(id_, to, type, std::move(payload));
}

NodeContext::TimerId LocalNode::set_timer(DurationMicros delay, TimerFn fn) {
  return loop().schedule(delay, std::move(fn));
}

bool LocalNode::cancel_timer(TimerId id) { return loop().cancel(id); }

void LocalNode::run_sync(std::function<void()> fn) {
  std::promise<void> done;
  loop().post([&] {
    fn();
    done.set_value();
  });
  done.get_future().wait();
}

LocalNode* LocalTransport::node(NodeId id) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = nodes_.find(id);
  if (it == nodes_.end()) {
    it = nodes_.emplace(id, std::unique_ptr<LocalNode>(new LocalNode(this, id))).first;
  }
  return it->second.get();
}

void LocalTransport::set_chaos(DurationMicros min_delay_us, DurationMicros max_delay_us,
                               double drop_prob) {
  std::lock_guard<std::mutex> lk(mu_);
  min_delay_us_ = min_delay_us;
  max_delay_us_ = max_delay_us;
  drop_prob_ = drop_prob;
}

void LocalTransport::disconnect(NodeId id) {
  std::lock_guard<std::mutex> lk(mu_);
  disconnected_[id] = true;
}

void LocalTransport::reconnect(NodeId id) {
  std::lock_guard<std::mutex> lk(mu_);
  disconnected_[id] = false;
}

void LocalTransport::route(NodeId from, NodeId to, MsgType type, Bytes payload) {
  LocalNode* dst;
  DurationMicros delay = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto df = disconnected_.find(from);
    if (df != disconnected_.end() && df->second) return;
    auto dt = disconnected_.find(to);
    if (dt != disconnected_.end() && dt->second) return;
    if (drop_prob_ > 0 && rng_.chance(drop_prob_)) return;
    if (max_delay_us_ > min_delay_us_) {
      delay = rng_.uniform(min_delay_us_, max_delay_us_);
    } else {
      delay = min_delay_us_;
    }
    auto it = nodes_.find(to);
    if (it == nodes_.end()) return;
    dst = it->second.get();
  }
  // Carry the sender's ambient span across the thread hop, exactly like the
  // TCP transport carries it in the frame header.
  auto deliver = [dst, from, type, msg = std::move(payload),
                  span = obs::current_span()] {
    MessageHandler* h = dst->handler_.load();
    if (h == nullptr) return;
    obs::SpanScope scope(span);
    h->on_message(from, type, msg);
  };
  if (delay > 0) {
    dst->loop().schedule(delay, std::move(deliver));
  } else {
    dst->loop().post(std::move(deliver));
  }
}

}  // namespace rspaxos::net
