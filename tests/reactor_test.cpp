// The single-threaded TCP reactor: each TcpHost's I/O thread runs its
// EventLoop and hands frames to handlers inline. Checks the thread identity
// of delivery, in-order handling of one burst, sub-millisecond timer
// precision through the IoDriver wait, the thread budget of a whole cluster,
// the on-demand EC worker pool, and cluster teardown with a WAL append still
// in flight.
#include <dirent.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <future>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "ec/ec_pool.h"
#include "net/tcp_transport.h"
#include "node/tcp_cluster.h"

namespace rspaxos {
namespace {

using net::PeerAddr;
using net::TcpNode;
using net::TcpTransport;

/// Records, per frame, its first payload byte and whether the handler ran on
/// the receiving node's context thread.
struct Recorder final : MessageHandler {
  TcpNode* self = nullptr;
  std::mutex mu;
  std::condition_variable cv;
  std::vector<uint8_t> first_bytes;
  std::vector<std::thread::id> threads;
  bool all_on_context = true;

  void on_message(NodeId, MsgType, BytesView payload) override {
    bool on_ctx = self->on_context_thread();
    std::lock_guard<std::mutex> lk(mu);
    all_on_context = all_on_context && on_ctx;
    first_bytes.push_back(payload.empty() ? 0 : payload[0]);
    threads.push_back(std::this_thread::get_id());
    cv.notify_all();
  }

  bool wait_for(size_t n) {
    std::unique_lock<std::mutex> lk(mu);
    return cv.wait_for(lk, std::chrono::seconds(5), [&] { return first_bytes.size() >= n; });
  }
};

class ReactorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto ports = TcpTransport::free_ports(2);
    ASSERT_EQ(ports.size(), 2u);
    transport_ = std::make_unique<TcpTransport>(std::map<net::HostId, PeerAddr>{
        {1, PeerAddr{"127.0.0.1", ports[0]}}, {2, PeerAddr{"127.0.0.1", ports[1]}}});
    auto n1 = transport_->start_node(1);
    auto n2 = transport_->start_node(2);
    ASSERT_TRUE(n1.is_ok()) << n1.status().to_string();
    ASSERT_TRUE(n2.is_ok()) << n2.status().to_string();
    node1_ = n1.value();
    node2_ = n2.value();
  }

  /// Thread id of node's loop driver, read from a posted task.
  static std::thread::id loop_thread(TcpNode* node) {
    std::promise<std::thread::id> p;
    node->loop().post([&p] { p.set_value(std::this_thread::get_id()); });
    return p.get_future().get();
  }

  std::unique_ptr<TcpTransport> transport_;
  TcpNode* node1_ = nullptr;
  TcpNode* node2_ = nullptr;
};

TEST_F(ReactorTest, HandlerRunsOnTheHostsReactorThread) {
  Recorder rx;
  rx.self = node2_;
  node2_->set_handler(&rx);
  node1_->send(2, MsgType::kTestPing, Bytes{7});
  ASSERT_TRUE(rx.wait_for(1));
  std::lock_guard<std::mutex> lk(rx.mu);
  EXPECT_TRUE(rx.all_on_context);
  // Delivery, timers and posted tasks share the one reactor thread.
  EXPECT_EQ(rx.threads[0], loop_thread(node2_));
  EXPECT_NE(rx.threads[0], std::this_thread::get_id());
}

TEST_F(ReactorTest, FramesOfOneBurstAreHandledInOrder) {
  Recorder rx;
  rx.self = node2_;
  node2_->set_handler(&rx);
  constexpr int kFrames = 250;
  // Sent from the sender's reactor in one task, so every frame is queued
  // before the flush and they leave in one coalesced writev burst.
  node1_->loop().post([this] {
    for (int i = 0; i < kFrames; ++i) {
      node1_->send(2, MsgType::kTestPing, Bytes(64, static_cast<uint8_t>(i)));
    }
  });
  ASSERT_TRUE(rx.wait_for(kFrames));
  std::lock_guard<std::mutex> lk(rx.mu);
  ASSERT_EQ(rx.first_bytes.size(), static_cast<size_t>(kFrames));
  for (int i = 0; i < kFrames; ++i) {
    EXPECT_EQ(rx.first_bytes[static_cast<size_t>(i)], static_cast<uint8_t>(i)) << "frame " << i;
  }
  EXPECT_TRUE(rx.all_on_context);
}

// The reactor blocks in the I/O driver between timers; a wait rounded to
// whole milliseconds would fire a 200 µs batch timer ~1 ms late.
TEST_F(ReactorTest, SubMillisecondTimerFiresWellUnderOneMillisecond) {
  constexpr int kTrials = 21;
  std::vector<int64_t> late_us;
  for (int i = 0; i < kTrials; ++i) {
    std::promise<int64_t> fired;
    // Armed from the reactor itself, like a replica's batch timer.
    node1_->loop().post([this, &fired] {
      auto t0 = std::chrono::steady_clock::now();
      node1_->set_timer(200, [&fired, t0] {
        fired.set_value(std::chrono::duration_cast<std::chrono::microseconds>(
                            std::chrono::steady_clock::now() - t0)
                            .count());
      });
    });
    late_us.push_back(fired.get_future().get());
  }
  std::sort(late_us.begin(), late_us.end());
  EXPECT_GE(late_us.front(), 200);
  // Millisecond rounding would put every trial at >= 1000 us; the fastest
  // trial is immune to a loaded host descheduling the reactor now and then.
  EXPECT_LT(late_us.front(), 600) << "fastest of " << kTrials << " 200 us timers";
}

TEST(ReactorLoop, PostsFromOtherThreadsWakeABlockedReactor) {
  auto ports = TcpTransport::free_ports(1);
  ASSERT_EQ(ports.size(), 1u);
  TcpTransport t({{1, PeerAddr{"127.0.0.1", ports[0]}}});
  auto node = t.start_node(1);
  ASSERT_TRUE(node.is_ok());
  // Let the reactor park in its driver wait (no timers, no sockets busy).
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  for (int i = 0; i < 50; ++i) {
    auto t0 = std::chrono::steady_clock::now();
    node.value()->loop().drain();
    // Far below the 1 s backstop wait: the eventfd woke the reactor.
    EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::milliseconds(500));
  }
}

/// Ids of the threads this process started, from /proc/self/task. The
/// kernel's io_uring workers (comm "iou-*") also list there under the uring
/// backend; they are not ours, and an idle one may exit mid-scan (no comm to
/// read).
std::set<std::string> thread_ids() {
  std::set<std::string> ids;
  DIR* d = ::opendir("/proc/self/task");
  if (d == nullptr) return ids;
  while (dirent* e = ::readdir(d)) {
    if (e->d_name[0] == '.') continue;
    std::ifstream comm(std::string("/proc/self/task/") + e->d_name + "/comm");
    std::string name;
    if (std::getline(comm, name) && name.rfind("iou-", 0) != 0) ids.insert(e->d_name);
  }
  ::closedir(d);
  return ids;
}

/// Threads alive now that were not in `before`. Counting new ids, not a
/// total, ignores a joined thread that still lingers in /proc for a moment.
int threads_started_since(const std::set<std::string>& before) {
  int n = 0;
  for (const std::string& id : thread_ids()) n += before.count(id) == 0 ? 1 : 0;
  return n;
}

// One reactor thread per host and one flusher per WAL: 5 server reactors,
// 5 WAL flushers and the client's reactor. No EC worker starts before a
// value needs off-loop coding.
TEST(ReactorCluster, FiveServerClusterWithClientStartsElevenThreads) {
  auto dir = std::filesystem::temp_directory_path() /
             ("rspaxos_reactor_threads_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::set<std::string> before = thread_ids();
  ASSERT_FALSE(before.empty());
  {
    node::TcpClusterOptions opts;
    opts.num_servers = 5;
    opts.f = 1;
    opts.data_dir = dir.string();
    auto cluster = node::TcpCluster::start(opts);
    ASSERT_TRUE(cluster.is_ok()) << cluster.status().to_string();
    auto client = cluster.value()->start_client();
    ASSERT_TRUE(client.is_ok()) << client.status().to_string();
    EXPECT_EQ(threads_started_since(before), 11);
  }
  // Joined threads leave /proc/self/task shortly after the join returns.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (threads_started_since(before) != 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(threads_started_since(before), 0);
  std::filesystem::remove_all(dir);
}

TEST(EcWorkerPool, StartsNoThreadUntilAJobArrives) {
  std::set<std::string> before = thread_ids();
  ec::EcWorkerPool pool(4);
  EXPECT_EQ(pool.threads(), 4);
  EXPECT_EQ(threads_started_since(before), 0);
  std::atomic<int> ran{0};
  pool.submit([&ran] { ran++; });
  pool.drain();
  EXPECT_EQ(ran.load(), 1);
  EXPECT_EQ(threads_started_since(before), 1);  // the idle worker stays for the next job
}

TEST(EcWorkerPool, BurstStartsAtMostTheCap) {
  std::set<std::string> before = thread_ids();
  ec::EcWorkerPool pool(3);
  std::atomic<int> ran{0};
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  for (int i = 0; i < 40; ++i) {
    pool.submit([&ran, gate] {
      gate.wait();
      ran++;
    });
  }
  EXPECT_EQ(threads_started_since(before), 3);
  release.set_value();
  pool.drain();
  EXPECT_EQ(ran.load(), 40);
  EXPECT_EQ(threads_started_since(before), 3);
}

TEST(EcWorkerPool, DestructorRunsEveryQueuedJob) {
  std::atomic<int> ran{0};
  {
    ec::EcWorkerPool pool(2);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&ran] {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        ran++;
      });
    }
  }
  EXPECT_EQ(ran.load(), 100);
}

// Regression: ~TcpCluster used to free the transport's endpoints before the
// WALs, so a follower append completing during teardown posted its
// continuation onto a freed TcpNode (a use-after-free under the asan
// preset). The long group-commit window keeps the append staged until the
// WAL is destroyed; its continuation is the one Replica::persist_slot posts.
TEST(ReactorCluster, TeardownWithFollowerWalAppendInFlight) {
  auto dir = std::filesystem::temp_directory_path() /
             ("rspaxos_reactor_teardown_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::atomic<bool> completed{false};
  std::atomic<bool> continuation_ran{false};
  {
    node::TcpClusterOptions opts;
    opts.num_servers = 3;
    opts.f = 1;
    opts.data_dir = dir.string();
    opts.wal_group_commit_window_us = 2 * kSeconds;
    auto started = node::TcpCluster::start(opts);
    ASSERT_TRUE(started.is_ok()) << started.status().to_string();
    std::unique_ptr<node::TcpCluster> cluster = std::move(started).value();
    NodeContext* follower = cluster->endpoint(1, 0);
    ASSERT_NE(follower, nullptr);
    uint64_t flushes = cluster->wal(1).flush_ops();
    cluster->wal(1).append(Bytes(64, 0x5a), [follower, &completed, &continuation_ran](Status) {
      completed = true;
      follower->set_timer(0, [&continuation_ran] { continuation_ran = true; });
    });
    // Still staged: the window has not closed.
    EXPECT_EQ(cluster->wal(1).flush_ops(), flushes);
    EXPECT_FALSE(completed.load());
  }
  // The WAL completed the append during teardown, onto a stopped loop.
  EXPECT_TRUE(completed.load());
  EXPECT_FALSE(continuation_ran.load());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace rspaxos
