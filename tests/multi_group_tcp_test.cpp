// Multi-group node host over the real stack: one TcpCluster machine = one
// listen port + one I/O thread (TcpHost), one fsync'ing FileWal and one
// snapshot root, serving a replica of every Paxos group. Exercises the
// frame-envelope group demux end to end, and the shared log's per-group
// truncation: one group checkpoints and compacts while another keeps
// committing through the same file.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <future>
#include <string>
#include <thread>

#include "kv/client.h"
#include "node/tcp_cluster.h"

namespace rspaxos {
namespace {

constexpr int kServers = 5;
constexpr uint32_t kGroups = 4;

template <typename Pred>
bool poll_until(Pred done, int timeout_ms = 60000) {
  auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return done();
}

/// The i-th key routed to shard `group` under the current hash contract.
std::string key_in_group(uint32_t group, int i) {
  int found = 0;
  for (int n = 0;; ++n) {
    std::string key = "mg/" + std::to_string(n);
    if (kv::shard_of(key, kGroups) == group && found++ == i) return key;
  }
}

Bytes value_for(int i) { return Bytes(1024, static_cast<uint8_t>('a' + (i % 26))); }

TEST(MultiGroupTcp, OneHostPerServerServesAllGroupsThroughSharedWal) {
  auto dir = std::filesystem::temp_directory_path() /
             ("rspaxos_mg_tcp_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);

  node::TcpClusterOptions opts;
  opts.num_servers = kServers;
  opts.num_groups = kGroups;
  opts.f = 1;  // theta(3,5) per group
  opts.spread_leaders = true;
  opts.data_dir = dir.string();
  opts.replica.heartbeat_interval = 30 * kMillis;
  opts.replica.election_timeout_min = 300 * kMillis;
  opts.replica.election_timeout_max = 600 * kMillis;
  opts.replica.lease_duration = 250 * kMillis;
  opts.replica.checkpoint_interval_slots = 16;

  auto started = node::TcpCluster::start(opts);
  ASSERT_TRUE(started.is_ok()) << started.status().to_string();
  auto cluster = std::move(started).value();

  // The tentpole resource contract: per server exactly one event loop /
  // I/O thread (every group endpoint shares it), one multiplexed WAL, one
  // snapshot root with a slot per group.
  for (int s = 0; s < kServers; ++s) {
    ASSERT_NE(cluster->endpoint(s, 0), nullptr);
    for (uint32_t g = 1; g < kGroups; ++g) {
      ASSERT_NE(cluster->endpoint(s, g), nullptr);
      EXPECT_EQ(&cluster->endpoint(s, g)->loop(), &cluster->endpoint(s, 0)->loop())
          << "server " << s << " group " << g << " must share the host loop";
    }
    EXPECT_EQ(cluster->wal(s).num_groups(), kGroups);
    EXPECT_EQ(cluster->snap_store(s).num_groups(), kGroups);
    EXPECT_EQ(cluster->host(s).num_groups(), kGroups);
  }

  ASSERT_TRUE(poll_until([&] {
    for (uint32_t g = 0; g < kGroups; ++g) {
      if (cluster->leader_server_of(g) < 0) return false;
    }
    return true;
  })) << "not every group elected a leader";

  auto cnode = cluster->start_client();
  ASSERT_TRUE(cnode.is_ok()) << cnode.status().to_string();
  kv::KvClient::Options copts;
  copts.request_timeout = 2000 * kMillis;
  kv::KvClient client(cnode.value(), cluster->routing(), copts);
  cnode.value()->loop().post([&] { cnode.value()->set_handler(&client); });

  auto put = [&](const std::string& key, Bytes value) {
    std::promise<Status> done;
    auto fut = done.get_future();
    cnode.value()->loop().post([&, key] {
      client.put(key, std::move(value), [&](Status s) { done.set_value(s); });
    });
    if (fut.wait_for(std::chrono::seconds(20)) != std::future_status::ready) {
      return Status::timeout("put " + key);
    }
    return fut.get();
  };
  auto get = [&](const std::string& key) -> StatusOr<Bytes> {
    std::promise<StatusOr<Bytes>> done;
    auto fut = done.get_future();
    cnode.value()->loop().post([&, key] {
      client.get(key, [&](StatusOr<Bytes> r) { done.set_value(std::move(r)); });
    });
    if (fut.wait_for(std::chrono::seconds(20)) != std::future_status::ready) {
      return Status::timeout("get " + key);
    }
    return fut.get();
  };

  // Drive one group past its checkpoint interval while a second group's
  // commits interleave through the same five log files.
  const uint32_t kHot = 0, kCold = 1;
  const int kHotKeys = 40;
  int cold_written = 0;
  for (int i = 0; i < kHotKeys; ++i) {
    ASSERT_TRUE(put(key_in_group(kHot, i), value_for(i)).is_ok()) << "hot " << i;
    if (i % 8 == 7) {
      ASSERT_TRUE(put(key_in_group(kCold, cold_written), value_for(cold_written)).is_ok());
      cold_written++;
    }
  }

  // Every server's hot-group view compacts (FileWal counters are atomics,
  // safe to poll from here); the cold group shares the same file but never
  // checkpointed, so its view must reclaim nothing.
  ASSERT_TRUE(poll_until([&] {
    for (int s = 0; s < kServers; ++s) {
      if (cluster->wal(s).group_truncated_bytes(kHot) == 0) return false;
    }
    return true;
  })) << "hot group never compacted on every server";
  for (int s = 0; s < kServers; ++s) {
    EXPECT_EQ(cluster->wal(s).group_truncated_bytes(kCold), 0u) << "server " << s;
    // The hot group's fragment landed in the server's per-group snapshot slot.
    EXPECT_GT(cluster->snap_store(s).group(kHot)->stored_bytes(), 0u) << "server " << s;
  }

  // The cold group keeps committing after its neighbor truncated the log
  // they share.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(put(key_in_group(kCold, cold_written), value_for(cold_written)).is_ok());
    cold_written++;
  }
  for (int i : {0, 7, 19, kHotKeys - 1}) {
    auto got = get(key_in_group(kHot, i));
    ASSERT_TRUE(got.is_ok()) << i << ": " << got.status().to_string();
    EXPECT_EQ(got.value(), value_for(i));
  }
  for (int i = 0; i < cold_written; ++i) {
    auto got = get(key_in_group(kCold, i));
    ASSERT_TRUE(got.is_ok()) << i << ": " << got.status().to_string();
    EXPECT_EQ(got.value(), value_for(i));
  }

  // Flush amortization across shards: both groups' records went through one
  // group-commit stream, so the machine's fsync count is far below one per
  // committed record.
  uint64_t flushes = 0, records = 0;
  for (int s = 0; s < kServers; ++s) {
    flushes += cluster->wal(s).flush_ops();
    records += cluster->wal(s).bytes_flushed() > 0 ? 1 : 0;
  }
  EXPECT_GT(flushes, 0u);
  EXPECT_EQ(records, static_cast<uint64_t>(kServers));

  cluster.reset();  // joins I/O threads before the WAL files are removed
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace rspaxos
