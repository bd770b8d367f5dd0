// Single-threaded real-time event loop.
//
// An EventLoop is a passive timer + task queue: tasks and timers posted from
// any thread run one at a time on the loop's *owner* thread, which is what
// lets protocol code stay lock-free (the same property the discrete-event
// simulator provides in simulated runs). The loop owns no thread. A TcpHost's
// I/O thread drives its loop between IoDriver waits, so socket readiness,
// frame delivery, timers and tasks share one reactor thread; LoopThread
// drives a loop on a plain thread for the in-process transport and tests.
//
// Owner contract: call run_ready() whenever woken, then block for at most
// the time it returns. The loop calls its waker when work arrives from
// another thread that a blocked owner must see — the first task into an
// empty queue, or a timer earlier than every pending one. Posts from the
// owner thread itself never wake: the owner calls run_ready() again before
// it next blocks.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "util/clock.h"

namespace rspaxos {

class EventLoop final : public Clock {
 public:
  using Task = std::function<void()>;
  using TimerId = uint64_t;
  /// Wakes the owner. Called with the loop's lock held, from the posting
  /// thread; must not call back into the loop.
  using Waker = std::function<void()>;

  explicit EventLoop(Waker waker);

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Enqueues a task to run on the owner thread (thread-safe). Returns
  /// false, dropping the task, once the loop is stopped.
  bool post(Task task);

  /// Schedules a task after `delay_us`; returns an id usable with cancel(),
  /// or 0 once the loop is stopped.
  TimerId schedule(DurationMicros delay_us, Task task);

  /// Cancels a pending timer. Returns false if already fired or unknown.
  bool cancel(TimerId id);

  /// Blocks until all currently queued tasks have run (test helper). Never
  /// call it from the owner thread. Returns at once on a stopped loop.
  void drain();

  /// Refuses further tasks and timers and wakes the owner. Tasks queued
  /// before the call still run at the owner's next run_ready(). Idempotent.
  void stop();

  bool on_loop_thread() const {
    return std::this_thread::get_id() == owner_.load(std::memory_order_relaxed);
  }

  TimeMicros now() const override;

  // --- Owner side --------------------------------------------------------

  /// Makes the calling thread the loop's owner (on_loop_thread() true).
  void bind_owner() { owner_.store(std::this_thread::get_id()); }

  /// Runs every due timer, then every task queued at entry. Returns how long
  /// the owner may block before calling again: 0 when those tasks queued
  /// more, the delay to the earliest timer, or -1 when nothing is pending.
  DurationMicros run_ready();

 private:
  struct Timer {
    TimeMicros deadline;
    TimerId id;
    bool operator>(const Timer& o) const {
      return deadline != o.deadline ? deadline > o.deadline : id > o.id;
    }
  };

  /// Delay until the earliest live timer; -1 when none. Caller holds mu_.
  DurationMicros next_timer_delay_locked();

  const Waker waker_;
  SteadyClock clock_;
  std::atomic<std::thread::id> owner_{};

  mutable std::mutex mu_;
  std::vector<Task> tasks_;    // guarded by mu_
  std::vector<Task> running_;  // owner-private: the batch being run
  std::priority_queue<Timer, std::vector<Timer>, std::greater<>> timers_;
  std::map<TimerId, Task> timer_tasks_;
  TimerId next_timer_id_ = 1;
  bool stopping_ = false;
};

/// Drives one EventLoop on a dedicated thread, sleeping on a condition
/// variable between run_ready() calls. The destructor stops the loop, runs
/// the tasks queued before the stop, and joins.
class LoopThread {
 public:
  LoopThread();
  ~LoopThread();

  LoopThread(const LoopThread&) = delete;
  LoopThread& operator=(const LoopThread&) = delete;

  EventLoop& loop() { return loop_; }
  const EventLoop& loop() const { return loop_; }

 private:
  void run();

  std::mutex mu_;
  std::condition_variable cv_;
  bool woken_ = false;    // guarded by mu_
  bool stopping_ = false;  // guarded by mu_
  EventLoop loop_;
  std::thread thread_;
};

}  // namespace rspaxos
