// Pipelined client over the real TCP stack: a deep burst through a narrow
// admission budget exercises the full window / kOverloaded / jittered-backoff
// loop across threads (loop-thread client, I/O-thread transport, fsync WAL).
// Every op must resolve, acked writes must read back, and the servers must
// have visibly shed rather than queued the excess.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <string>
#include <thread>

#include "kv/client.h"
#include "node/tcp_cluster.h"

namespace rspaxos {
namespace {

TEST(PipelineTcp, BurstThroughNarrowAdmissionResolvesEverything) {
  auto dir = std::filesystem::temp_directory_path() /
             ("rspaxos_pipe_tcp_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);

  node::TcpClusterOptions opts;
  opts.num_servers = 3;
  opts.num_groups = 1;
  opts.rs_mode = true;  // theta(1,3): RS degenerates to replication at N=3
  opts.f = 1;
  opts.data_dir = dir.string();
  opts.replica.heartbeat_interval = 30 * kMillis;
  opts.replica.election_timeout_min = 300 * kMillis;
  opts.replica.election_timeout_max = 600 * kMillis;
  opts.replica.lease_duration = 250 * kMillis;
  // Budget far below the client window: the burst MUST bounce through
  // kOverloaded + backoff, not drain in one admission.
  opts.kv.admission.max_inflight = 4;

  auto started = node::TcpCluster::start(opts);
  ASSERT_TRUE(started.is_ok()) << started.status().to_string();
  auto cluster = std::move(started).value();

  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (cluster->leader_server_of(0) < 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_GE(cluster->leader_server_of(0), 0) << "no leader elected";

  auto cnode = cluster->start_client();
  ASSERT_TRUE(cnode.is_ok()) << cnode.status().to_string();
  kv::KvClient::Options copts;
  copts.request_timeout = 5000 * kMillis;
  copts.max_attempts = 1000;
  copts.max_inflight = 32;
  kv::KvClient client(cnode.value(), cluster->routing(), copts);
  cnode.value()->loop().post([&] { cnode.value()->set_handler(&client); });

  // Registry counters are process-wide atomics: read deltas from this thread.
  auto& reg = obs::MetricsRegistry::global();
  const std::string client_node = std::to_string(cnode.value()->id());
  auto backoffs = [&] {
    return reg.counter_sum("rsp_client_overload_backoffs_total", {{"node", client_node}});
  };
  auto shed = [&] {
    uint64_t sum = 0;
    for (int s = 0; s < opts.num_servers; ++s) {
      sum += reg.counter_sum("rsp_admission_shed_total",
                             {{"node", std::to_string(net::endpoint_id(s, 0))}});
    }
    return sum;
  };
  const uint64_t backoffs0 = backoffs();
  const uint64_t shed0 = shed();

  constexpr int kOps = 200;
  std::atomic<int> resolved{0};
  std::atomic<int> ok{0};
  cnode.value()->loop().post([&] {
    for (int i = 0; i < kOps; ++i) {
      client.put("pt-" + std::to_string(i), Bytes(512, static_cast<uint8_t>(i)),
                 [&resolved, &ok](Status s) {
                   if (s.is_ok()) ok.fetch_add(1, std::memory_order_relaxed);
                   resolved.fetch_add(1, std::memory_order_relaxed);
                 });
    }
  });

  deadline = std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (resolved.load(std::memory_order_relaxed) < kOps &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(resolved.load(), kOps) << "every burst op must resolve";
  EXPECT_EQ(ok.load(), kOps) << "retries through backoff must all land";

  // The narrow budget was real: servers shed, the client backed off. The
  // client's own stats are read via the loop so they never race it.
  std::promise<uint64_t> stat_p;
  auto stat_f = stat_p.get_future();
  cnode.value()->loop().post([&] { stat_p.set_value(client.stats().completed); });
  ASSERT_EQ(stat_f.wait_for(std::chrono::seconds(10)), std::future_status::ready);
  EXPECT_GT(backoffs() - backoffs0, 0u) << "burst never tripped admission";
  EXPECT_GE(stat_f.get(), static_cast<uint64_t>(kOps));
  EXPECT_GT(shed() - shed0, 0u);

  // Spot-check durability through the real WAL path.
  for (int i : {0, kOps / 2, kOps - 1}) {
    std::promise<StatusOr<Bytes>> got_p;
    auto got_f = got_p.get_future();
    std::string key = "pt-" + std::to_string(i);
    cnode.value()->loop().post([&, key] {
      client.get(key, [&got_p](StatusOr<Bytes> r) { got_p.set_value(std::move(r)); });
    });
    ASSERT_EQ(got_f.wait_for(std::chrono::seconds(20)), std::future_status::ready);
    auto got = got_f.get();
    ASSERT_TRUE(got.is_ok()) << key << ": " << got.status().to_string();
    EXPECT_EQ(got.value(), Bytes(512, static_cast<uint8_t>(i)));
  }

  // Quiesce the client on its loop before teardown (transport dies first).
  std::promise<void> quiesced;
  auto qf = quiesced.get_future();
  cnode.value()->loop().post([&] {
    client.cancel_all(Status::timeout("test teardown"));
    cnode.value()->set_handler(nullptr);
    quiesced.set_value();
  });
  qf.wait();
  cluster.reset();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace rspaxos
