// Elastic resharding cost: what an online shard migration (DESIGN.md §14)
// costs in time and network bytes, idle and under a skewed write load.
//
// Each cell seeds one shard of a 2-group simulated cluster with a known
// number of keys, kicks off a migration of that shard to the other group,
// and measures:
//
//   - duration_s      sim time from start_migration() to the flip being
//                     visible (new owner, no migration record in flight)
//   - moved_bytes     chunk bytes acked by the destination (the
//                     rsp_reshard_moved_bytes_total counter delta), compared
//                     against the seeded payload bytes as copy amplification
//   - writes_during   writes acked while the move was in flight (under-load
//                     cells) and writes that failed — the availability story:
//                     the seal-drain window should reject briefly, not lose
//
// Writes BENCH_reshard.json. `--smoke` runs one small under-load cell
// (CI's scripts/check.sh --reshard).
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "net/routing.h"

using namespace rspaxos;
using namespace rspaxos::bench;

namespace {

constexpr int kServers = 5;
constexpr uint32_t kGroups = 2;
constexpr uint32_t kShards = 4;
// Identity map: shard 2 starts in group 0 (2 % 2); every cell moves it to 1.
constexpr uint32_t kShard = 2, kFrom = 0, kTo = 1;

struct Cell {
  const char* name = "";
  int keys = 0;
  size_t value_bytes = 0;
  bool under_load = false;

  // Measured.
  uint64_t seeded_bytes = 0;
  uint64_t moved_bytes = 0;
  double duration_s = 0;        // sim time, start_migration -> flip visible
  double amplification = 0;     // moved / seeded
  uint64_t writes_during = 0;   // acked while the migration was in flight
  uint64_t writes_failed = 0;   // rejected during the same window
  uint64_t final_epoch = 0;
};

/// The i-th distinct key (prefix "mig/") routing to kShard under kShards.
std::string key_in_shard(int i) {
  int found = 0;
  for (int n = 0;; ++n) {
    std::string key = "mig/" + std::to_string(n);
    if (kv::shard_of(key, kShards) == kShard && found++ == i) return key;
  }
}

/// Cluster-wide chunk bytes acked by destinations, read from the shared
/// registry (each KvServer registers its own {node, group} child).
uint64_t total_moved_bytes() {
  auto& fam = obs::MetricsRegistry::global().counter_family(
      "rsp_reshard_moved_bytes_total",
      "Shard-migration chunk bytes acknowledged by the destination",
      {"node", "group"});
  uint64_t total = 0;
  for (int s = 0; s < kServers; ++s) {
    for (uint32_t g = 0; g < kGroups; ++g) {
      total += fam.with({std::to_string(net::endpoint_id(s, static_cast<int>(g))),
                         std::to_string(g)})
                   .value();
    }
  }
  return total;
}

void run_cell(Cell& cell, uint64_t seed) {
  sim::SimWorld world(seed);
  node::SimClusterOptions opts;
  opts.num_servers = kServers;
  opts.num_groups = static_cast<int>(kGroups);
  opts.num_shards = kShards;
  opts.link = sim::LinkParams::lan();
  opts.disk = sim::DiskParams::ssd();
  opts.replica = bench_replica_options(false);
  node::SimCluster cluster(&world, opts);
  cluster.wait_for_leaders();
  make_client_links_free(cluster, 1);

  kv::KvClient::Options copts;
  copts.request_timeout = 500 * kMillis;
  copts.max_attempts = 400;
  auto client = cluster.make_client(copts);

  auto put = [&](const std::string& key, Bytes value) {
    std::optional<Status> out;
    client->put(key, std::move(value), [&](Status s) { out = s; });
    TimeMicros deadline = world.now() + 60 * kSeconds;
    while (!out.has_value() && world.now() < deadline) world.run_for(1 * kMillis);
    return out.value_or(Status::timeout("sim ended"));
  };
  auto newest_map = [&] {
    std::shared_ptr<const kv::ShardMap> best;
    for (int s = 0; s < kServers; ++s) {
      auto m = cluster.host(s)->routing()->snapshot();
      if (!best || m->epoch > best->epoch) best = std::move(m);
    }
    return best;
  };

  // Seed the moving shard.
  std::vector<std::string> keys;
  for (int i = 0; i < cell.keys; ++i) keys.push_back(key_in_shard(i));
  for (const auto& k : keys) {
    if (!put(k, Bytes(cell.value_bytes, 0x5a)).is_ok()) {
      std::fprintf(stderr, "%s: seed put failed, aborting cell\n", cell.name);
      return;
    }
  }
  cell.seeded_bytes =
      static_cast<uint64_t>(cell.keys) * static_cast<uint64_t>(cell.value_bytes);

  int src = cluster.leader_server_of(static_cast<int>(kFrom));
  if (src < 0) {
    std::fprintf(stderr, "%s: no source leader\n", cell.name);
    return;
  }
  uint64_t moved0 = total_moved_bytes();
  TimeMicros t0 = world.now();
  cluster.server(src, static_cast<int>(kFrom))->start_migration(kShard, kTo);

  auto moved = [&] {
    auto m = newest_map();
    return m && m->group_of(kShard) == kTo && m->migrations.empty();
  };
  TimeMicros deadline = world.now() + 300 * kSeconds;
  if (cell.under_load) {
    // Skewed write-through: a hot trio takes 3/4 of writes, the rest rotate
    // over the whole shard — the MigrationCompletesUnderLoad workload shape.
    for (size_t i = 0; !moved() && world.now() < deadline; ++i) {
      const std::string& k =
          (i % 4 != 3) ? keys[i % 3] : keys[i % keys.size()];
      if (put(k, Bytes(cell.value_bytes, 0x77)).is_ok()) {
        ++cell.writes_during;
      } else {
        ++cell.writes_failed;
      }
    }
  } else {
    while (!moved() && world.now() < deadline) world.run_for(1 * kMillis);
  }
  if (!moved()) {
    std::fprintf(stderr, "%s: migration did not complete\n", cell.name);
    return;
  }
  cell.duration_s = static_cast<double>(world.now() - t0) / 1e6;
  cell.moved_bytes = total_moved_bytes() - moved0;
  cell.amplification = cell.seeded_bytes > 0
                           ? static_cast<double>(cell.moved_bytes) /
                                 static_cast<double>(cell.seeded_bytes)
                           : 0.0;
  cell.final_epoch = newest_map()->epoch;

  std::fprintf(stderr,
               "%-18s keys %5d x %6zu B  ->  %.3f s  moved %8llu B (%.2fx)  "
               "during ok %llu fail %llu\n",
               cell.name, cell.keys, cell.value_bytes, cell.duration_s,
               static_cast<unsigned long long>(cell.moved_bytes),
               cell.amplification,
               static_cast<unsigned long long>(cell.writes_during),
               static_cast<unsigned long long>(cell.writes_failed));
}

void emit_json(const std::vector<Cell>& cells, bool smoke) {
  std::FILE* f = std::fopen("BENCH_reshard.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_reshard.json\n");
    return;
  }
  std::fprintf(f,
               "{\n  \"mode\": \"%s\",\n"
               "  \"cluster\": \"%d servers, %u groups, %u shards, LAN, SSD\",\n"
               "  \"scenario\": \"online migration of shard %u from group %u "
               "to group %u (DESIGN.md 14)\",\n"
               "  \"cells\": [\n",
               smoke ? "smoke" : "full", kServers, kGroups, kShards, kShard,
               kFrom, kTo);
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"keys\": %d, \"value_bytes\": %zu, "
                 "\"under_load\": %s, \"seeded_bytes\": %llu, "
                 "\"moved_bytes\": %llu, \"copy_amplification\": %.3f, "
                 "\"migration_s\": %.4f, \"writes_during\": %llu, "
                 "\"writes_failed\": %llu, \"final_epoch\": %llu}%s\n",
                 c.name, c.keys, c.value_bytes, c.under_load ? "true" : "false",
                 static_cast<unsigned long long>(c.seeded_bytes),
                 static_cast<unsigned long long>(c.moved_bytes),
                 c.amplification, c.duration_s,
                 static_cast<unsigned long long>(c.writes_during),
                 static_cast<unsigned long long>(c.writes_failed),
                 static_cast<unsigned long long>(c.final_epoch),
                 i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote BENCH_reshard.json (%zu cells)\n", cells.size());
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  std::vector<Cell> cells;
  if (smoke) {
    cells.push_back({"smoke_under_load", 48, 512, true});
  } else {
    cells.push_back({"idle_small", 128, 512, false});
    cells.push_back({"idle_large", 256, 4096, false});
    cells.push_back({"under_load_small", 128, 512, true});
    cells.push_back({"under_load_large", 256, 4096, true});
  }
  uint64_t seed = 1000;
  for (Cell& c : cells) run_cell(c, seed++);

  emit_json(cells, smoke);
  emit_metrics_files("BENCH_reshard");
  return 0;
}
