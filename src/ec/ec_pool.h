// Worker pool for CPU-heavy erasure-coding jobs.
//
// The paper trades cheap CPU (coding) for scarce network and storage — but
// that CPU is real: θ(X,N) encoding a multi-MB value takes long enough to
// stall every other Paxos group sharing the proposer's reactor. The pool
// moves large encodes off the reactor thread: the replica builds the
// destination frames on its loop (cheap), submits the GF(2^8) matrix work
// here, and the completion is posted back to the owning reactor via its
// EventLoop — so coding of large values no longer serializes unrelated
// groups' consensus.
//
// Jobs run in submission order per pool but complete on arbitrary workers;
// callers own posting results back to their reactor (NodeContext::set_timer
// is thread-safe on every transport). Workers start on demand — a submit
// that finds no idle worker starts one, up to the cap — so a deployment
// whose values never need off-loop coding never pays for the threads.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rspaxos::ec {

class EcWorkerPool {
 public:
  /// Allows up to `threads` workers (clamped to >= 1); starts none.
  explicit EcWorkerPool(int threads);

  /// Drains the queue, then joins every worker. Callers must ensure the
  /// objects captured by still-queued jobs outlive the destructor (in
  /// practice: destroy the pool before the transport, after hosts stop).
  ~EcWorkerPool();

  /// Enqueues one job, starting a worker when more jobs are queued than
  /// workers are idle and the cap allows. Thread-safe; never blocks on job
  /// execution. Must not race the destructor.
  void submit(std::function<void()> job);

  /// Blocks until every submitted job has finished (test helper).
  void drain();

  /// The worker cap.
  int threads() const { return max_workers_; }

 private:
  void worker_loop();

  const int max_workers_;
  std::mutex mu_;
  std::condition_variable cv_;        // workers wait for jobs / stop
  std::condition_variable idle_cv_;   // drain() waits for quiescence
  std::deque<std::function<void()>> q_;
  int running_ = 0;                   // jobs currently executing
  int idle_ = 0;                      // workers waiting for a job
  bool stopping_ = false;
  std::vector<std::thread> workers_;  // guarded by mu_ until the destructor
};

}  // namespace rspaxos::ec
