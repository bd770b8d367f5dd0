// Server admission control under open-loop overload: past its budgets a
// server sheds with kOverloaded (bouncing work back to the client's jittered
// backoff) instead of queueing without bound, acknowledged writes stay
// durable through the storm, and load below the watermarks is untouched.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "node/sim_cluster.h"
#include "load/open_loop.h"

namespace rspaxos::kv {
namespace {

constexpr size_t kInflightBudget = 8;

node::SimClusterOptions overload_opts() {
  node::SimClusterOptions opts;
  opts.num_servers = 5;
  opts.rs_mode = true;
  opts.f = 1;
  opts.kv.admission.max_inflight = kInflightBudget;
  return opts;
}

KvClient::Options windowed_client() {
  KvClient::Options copts;
  copts.request_timeout = 500 * kMillis;
  copts.max_attempts = 200;
  copts.max_inflight = 64;  // window deliberately deeper than the server budget
  return copts;
}

// Registry totals are process-wide and earlier tests' clusters reuse the node
// ids, so every test reads deltas against baselines taken before its cluster
// exists.

// kOverloaded bounces by every server's group-0 endpoint, all reasons.
uint64_t total_shed(int num_servers) {
  uint64_t shed = 0;
  for (int s = 0; s < num_servers; ++s) {
    shed += obs::MetricsRegistry::global().counter_sum(
        "rsp_admission_shed_total", {{"node", std::to_string(net::endpoint_id(s, 0))}});
  }
  return shed;
}

// Backoffs of the first client endpoint make_client() creates.
uint64_t client_backoffs() {
  return obs::MetricsRegistry::global().counter_sum(
      "rsp_client_overload_backoffs_total", {{"node", std::to_string(net::kClientBase)}});
}

TEST(Saturation, OverloadShedsInsteadOfQueueingUnbounded) {
  sim::SimWorld world(41);
  node::SimClusterOptions opts = overload_opts();
  const uint64_t shed0 = total_shed(opts.num_servers);
  const uint64_t backoffs0 = client_backoffs();
  node::SimCluster cluster(&world, opts);
  cluster.wait_for_leaders();
  auto client = cluster.make_client(windowed_client());

  // Unique key per op: an acked put must remain readable with exactly its
  // value no matter how the pipeline reorders or sheds around it.
  std::set<int> acked;
  uint64_t resolved = 0;
  constexpr int kOps = 400;
  for (int i = 0; i < kOps; ++i) {
    client->put("sat-" + std::to_string(i), to_bytes("v" + std::to_string(i)),
                [&acked, &resolved, i](Status s) {
                  if (s.is_ok()) acked.insert(i);
                  ++resolved;
                });
  }
  // The window (64) dwarfs the per-server admission budget (8): the excess
  // must bounce with kOverloaded, never sit in a server queue.
  size_t max_inflight_seen = 0;
  TimeMicros deadline = world.now() + 120 * kSeconds;
  while (resolved < kOps && world.now() < deadline) {
    world.run_for(1 * kMillis);
    for (int s = 0; s < opts.num_servers; ++s) {
      max_inflight_seen = std::max(max_inflight_seen,
                                   cluster.server(s, 0)->admission_inflight());
    }
  }
  EXPECT_EQ(resolved, static_cast<uint64_t>(kOps)) << "every op must resolve";
  EXPECT_LE(max_inflight_seen, kInflightBudget)
      << "admission budget must bound the server's commit queue";
  EXPECT_GT(total_shed(opts.num_servers) - shed0, 0u) << "overload must shed, not absorb";
  EXPECT_GT(client_backoffs() - backoffs0, 0u)
      << "client must have absorbed kOverloaded with backoff";
  EXPECT_FALSE(acked.empty()) << "backoff+retry must make progress";

  // Durability audit: every acked key reads back its exact value.
  for (int i : acked) {
    std::optional<StatusOr<Bytes>> out;
    client->get("sat-" + std::to_string(i),
                [&out](StatusOr<Bytes> r) { out = std::move(r); });
    TimeMicros d2 = world.now() + 30 * kSeconds;
    while (!out.has_value() && world.now() < d2) world.run_for(5 * kMillis);
    ASSERT_TRUE(out.has_value() && out->is_ok()) << "acked key sat-" << i;
    EXPECT_EQ(to_string(out->value()), "v" + std::to_string(i));
  }
}

TEST(Saturation, BelowWatermarkLoadUnaffected) {
  sim::SimWorld world(42);
  node::SimClusterOptions opts = overload_opts();
  const uint64_t shed0 = total_shed(opts.num_servers);
  const uint64_t backoffs0 = client_backoffs();
  node::SimCluster cluster(&world, opts);
  cluster.wait_for_leaders();
  auto client = cluster.make_client(windowed_client());
  NodeContext* ctx = cluster.network().node(net::kClientBase);

  // 200 qps against a budget of 8 concurrent ops: Little's law keeps the
  // server far below its watermark, so admission must be invisible.
  load::OpenLoopSpec spec;
  spec.qps = 200;
  spec.value_size = 128;
  spec.key_space = 16;
  spec.duration = 2 * kSeconds;
  load::OpenLoopGen gen(ctx, client.get(), spec);
  bool finished = false;
  gen.start([&finished] { finished = true; });
  TimeMicros deadline = world.now() + 60 * kSeconds;
  while (!finished && world.now() < deadline) world.run_for(5 * kMillis);

  ASSERT_TRUE(finished);
  EXPECT_EQ(gen.recorder().failed(), 0u);
  EXPECT_GT(gen.recorder().ok(), 0u);
  EXPECT_EQ(total_shed(opts.num_servers) - shed0, 0u) << "no shedding below the watermark";
  EXPECT_EQ(client_backoffs() - backoffs0, 0u);
}

TEST(Saturation, QueueByteBudgetShedsBigValuesButAdmitsOversizedWhenIdle) {
  sim::SimWorld world(43);
  node::SimClusterOptions opts = overload_opts();
  opts.kv.admission.max_inflight = 0;        // isolate the byte budget
  opts.kv.admission.max_queue_bytes = 16 * 1024;
  const uint64_t shed0 = total_shed(opts.num_servers);
  node::SimCluster cluster(&world, opts);
  cluster.wait_for_leaders();
  auto client = cluster.make_client(windowed_client());

  // A burst of 8 KiB values: two fit the 16 KiB budget, the rest must bounce
  // at least once before retries drain them through.
  uint64_t resolved = 0;
  constexpr int kOps = 32;
  for (int i = 0; i < kOps; ++i) {
    client->put("big-" + std::to_string(i), Bytes(8 * 1024, 0x2a),
                [&resolved](Status) { ++resolved; });
  }
  TimeMicros deadline = world.now() + 120 * kSeconds;
  while (resolved < kOps && world.now() < deadline) world.run_for(5 * kMillis);
  EXPECT_EQ(resolved, static_cast<uint64_t>(kOps));
  EXPECT_GT(total_shed(opts.num_servers) - shed0, 0u) << "byte budget must shed the burst";

  // Oversized single value: bigger than the whole budget, but the queue is
  // empty — refusing it would wedge such writes forever, so it is admitted.
  std::optional<Status> big;
  client->put("huge", Bytes(64 * 1024, 0x2b), [&big](Status s) { big = s; });
  deadline = world.now() + 60 * kSeconds;
  while (!big.has_value() && world.now() < deadline) world.run_for(5 * kMillis);
  ASSERT_TRUE(big.has_value());
  EXPECT_TRUE(big->is_ok()) << big->to_string();
}

}  // namespace
}  // namespace rspaxos::kv
