// Elastic resharding over the real stack: an online shard migration between
// two Paxos groups on a TcpCluster (real sockets, fsync'ing WALs) while a
// client keeps writing into the moving shard. Pins the cross-thread half of
// the design: the RoutingView published from the meta group's apply path on
// one loop is read by every other reactor and by the client-facing check
// order, and the chunk protocol runs leader-loop to leader-loop.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <future>
#include <map>
#include <string>
#include <thread>

#include "kv/client.h"
#include "node/tcp_cluster.h"

namespace rspaxos {
namespace {

constexpr int kServers = 5;
constexpr uint32_t kGroups = 2;
constexpr uint32_t kShards = 4;

template <typename Pred>
bool poll_until(Pred done, int timeout_ms = 60000) {
  auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return done();
}

std::string key_in_shard(uint32_t shard, int i) {
  int found = 0;
  for (int n = 0;; ++n) {
    std::string key = "rs/" + std::to_string(n);
    if (kv::shard_of(key, kShards) == shard && found++ == i) return key;
  }
}

Bytes value_of(int version) {
  Bytes v(512, static_cast<uint8_t>('a' + version % 26));
  std::string tag = std::to_string(version);
  for (size_t i = 0; i < tag.size(); ++i) v[i] = static_cast<uint8_t>(tag[i]);
  return v;
}

TEST(ReshardTcp, MigrationUnderLoadOverRealSockets) {
  auto dir = std::filesystem::temp_directory_path() /
             ("rspaxos_reshard_tcp_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);

  node::TcpClusterOptions opts;
  opts.num_servers = kServers;
  opts.num_groups = kGroups;
  opts.num_shards = kShards;
  opts.f = 1;
  opts.spread_leaders = true;
  opts.data_dir = dir.string();
  opts.replica.heartbeat_interval = 30 * kMillis;
  opts.replica.election_timeout_min = 300 * kMillis;
  opts.replica.election_timeout_max = 600 * kMillis;
  opts.replica.lease_duration = 250 * kMillis;

  auto started = node::TcpCluster::start(opts);
  ASSERT_TRUE(started.is_ok()) << started.status().to_string();
  auto cluster = std::move(started).value();
  ASSERT_TRUE(poll_until([&] {
    for (uint32_t g = 0; g < kGroups; ++g) {
      if (cluster->leader_server_of(g) < 0) return false;
    }
    return true;
  })) << "leader election";

  auto cnode = cluster->start_client();
  ASSERT_TRUE(cnode.is_ok()) << cnode.status().to_string();
  kv::KvClient::Options copts;
  copts.request_timeout = 2000 * kMillis;
  copts.max_attempts = 200;
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

  // Shard 2 starts in group 0 under the identity map; move it to group 1.
  const uint32_t kShard = 2, kFrom = 0, kTo = 1;
  const int kKeys = 32;
  std::map<std::string, int> acked;
  int version = 0;
  for (int i = 0; i < kKeys; ++i) {
    std::string k = key_in_shard(kShard, i);
    ++version;
    ASSERT_TRUE(put(k, value_of(version)).is_ok()) << k;
    acked[k] = version;
  }

  int src = cluster->leader_server_of(kFrom);
  ASSERT_GE(src, 0);
  kv::KvServer* srv = cluster->server(src, kFrom);
  cluster->endpoint(src, kFrom)->loop().post(
      [srv] { srv->start_migration(kShard, kTo); });

  // Write through the move; the flip is visible once any host's RoutingView
  // reports the shard owned by the destination with no migration in flight.
  auto moved = [&] {
    auto m = cluster->host(0).routing()->snapshot();
    return m->group_of(kShard) == kTo && m->migrations.empty();
  };
  size_t during = 0;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  for (size_t i = 0; !moved() && std::chrono::steady_clock::now() < deadline; ++i) {
    std::string k = key_in_shard(kShard, static_cast<int>(i) % kKeys);
    ++version;
    if (put(k, value_of(version)).is_ok()) {
      acked[k] = version;
      ++during;
    }
  }
  ASSERT_TRUE(moved()) << "migration did not complete";
  EXPECT_GT(during, 0u);

  // Every machine converges onto the flipped map (follower RoutingViews are
  // fed by recover_payload of their coded "!routing" share).
  EXPECT_TRUE(poll_until([&] {
    for (int s = 0; s < kServers; ++s) {
      if (cluster->host(s).routing()->snapshot()->group_of(kShard) != kTo) return false;
    }
    return true;
  }));

  // Zero acked-write loss across the move, served by the new owner.
  for (const auto& [k, ver] : acked) {
    auto got = get(k);
    ASSERT_TRUE(got.is_ok()) << k;
    EXPECT_EQ(got.value(), value_of(ver)) << k;
  }

  // New writes land in the destination group directly.
  ++version;
  std::string fresh = key_in_shard(kShard, 0);
  ASSERT_TRUE(put(fresh, value_of(version)).is_ok());
  auto got = get(fresh);
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(got.value(), value_of(version));

  cnode.value()->loop().post([&] { client.cancel_all(Status::aborted("test over")); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  cluster.reset();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace rspaxos
