#include "util/event_loop.h"

#include <algorithm>
#include <future>

namespace rspaxos {

EventLoop::EventLoop(Waker waker) : waker_(std::move(waker)) {}

bool EventLoop::post(Task task) {
  // Wake under the lock: once a poster has released mu_, stop() and then
  // the owner's destructor may run, and a deferred wake would touch a
  // destroyed owner.
  std::lock_guard<std::mutex> lk(mu_);
  if (stopping_) return false;
  bool was_empty = tasks_.empty();
  tasks_.push_back(std::move(task));
  if (was_empty && !on_loop_thread()) waker_();
  return true;
}

EventLoop::TimerId EventLoop::schedule(DurationMicros delay_us, Task task) {
  std::lock_guard<std::mutex> lk(mu_);
  if (stopping_) return 0;
  TimerId id = next_timer_id_++;
  TimeMicros deadline = clock_.now() + delay_us;
  bool earliest = timers_.empty() || deadline < timers_.top().deadline;
  timers_.push(Timer{deadline, id});
  timer_tasks_.emplace(id, std::move(task));
  if (earliest && !on_loop_thread()) waker_();
  return id;
}

bool EventLoop::cancel(TimerId id) {
  std::lock_guard<std::mutex> lk(mu_);
  return timer_tasks_.erase(id) > 0;  // stale heap entry is skipped on pop
}

void EventLoop::drain() {
  std::promise<void> done;
  // An accepted task runs even if the loop stops meanwhile (owners run the
  // pre-stop queue before exiting).
  if (post([&done] { done.set_value(); })) done.get_future().wait();
}

void EventLoop::stop() {
  std::lock_guard<std::mutex> lk(mu_);
  if (stopping_) return;
  stopping_ = true;
  waker_();
}

TimeMicros EventLoop::now() const { return clock_.now(); }

DurationMicros EventLoop::next_timer_delay_locked() {
  while (!timers_.empty() && timer_tasks_.count(timers_.top().id) == 0) {
    timers_.pop();  // cancelled
  }
  if (timers_.empty()) return -1;
  return std::max<DurationMicros>(0, timers_.top().deadline - clock_.now());
}

DurationMicros EventLoop::run_ready() {
  std::unique_lock<std::mutex> lk(mu_);
  TimeMicros now = clock_.now();
  while (!timers_.empty() && timers_.top().deadline <= now) {
    Timer t = timers_.top();
    timers_.pop();
    auto it = timer_tasks_.find(t.id);
    if (it == timer_tasks_.end()) continue;  // cancelled
    Task task = std::move(it->second);
    timer_tasks_.erase(it);
    lk.unlock();
    task();
    lk.lock();
  }
  running_.swap(tasks_);
  lk.unlock();
  for (Task& task : running_) task();
  running_.clear();
  lk.lock();
  if (!tasks_.empty()) return 0;
  return next_timer_delay_locked();
}

// ---------------------------------------------------------------------------

LoopThread::LoopThread()
    : loop_([this] {
        std::lock_guard<std::mutex> lk(mu_);
        woken_ = true;
        cv_.notify_one();
      }),
      thread_([this] { run(); }) {}

LoopThread::~LoopThread() {
  loop_.stop();
  {
    std::lock_guard<std::mutex> lk(mu_);
    stopping_ = true;
    cv_.notify_one();
  }
  thread_.join();
}

void LoopThread::run() {
  loop_.bind_owner();
  while (true) {
    DurationMicros wait_us = loop_.run_ready();
    std::unique_lock<std::mutex> lk(mu_);
    if (stopping_) break;
    if (!woken_ && wait_us != 0) {
      if (wait_us < 0) {
        cv_.wait(lk, [this] { return woken_ || stopping_; });
      } else {
        cv_.wait_for(lk, std::chrono::microseconds(wait_us),
                     [this] { return woken_ || stopping_; });
      }
    }
    woken_ = false;
  }
  // The loop is stopped: run what was queued before the stop.
  loop_.run_ready();
}

}  // namespace rspaxos
