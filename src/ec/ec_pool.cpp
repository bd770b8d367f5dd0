#include "ec/ec_pool.h"

#include <algorithm>

namespace rspaxos::ec {

EcWorkerPool::EcWorkerPool(int threads) : max_workers_(std::max(1, threads)) {}

EcWorkerPool::~EcWorkerPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  // Workers exit only once the queue is empty, so every queued job runs.
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
}

void EcWorkerPool::submit(std::function<void()> job) {
  std::lock_guard<std::mutex> lk(mu_);
  q_.push_back(std::move(job));
  if (q_.size() > static_cast<size_t>(idle_) &&
      workers_.size() < static_cast<size_t>(max_workers_)) {
    workers_.emplace_back([this] { worker_loop(); });
  } else {
    cv_.notify_one();
  }
}

void EcWorkerPool::drain() {
  std::unique_lock<std::mutex> lk(mu_);
  idle_cv_.wait(lk, [this] { return q_.empty() && running_ == 0; });
}

void EcWorkerPool::worker_loop() {
  std::unique_lock<std::mutex> lk(mu_);
  while (true) {
    idle_++;
    cv_.wait(lk, [this] { return stopping_ || !q_.empty(); });
    idle_--;
    if (q_.empty()) {
      if (stopping_) return;  // drained: stop only once the queue is empty
      continue;
    }
    std::function<void()> job = std::move(q_.front());
    q_.pop_front();
    running_++;
    lk.unlock();
    job();
    lk.lock();
    running_--;
    if (q_.empty() && running_ == 0) idle_cv_.notify_all();
  }
}

}  // namespace rspaxos::ec
