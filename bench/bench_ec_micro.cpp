// Kernel microbenchmarks (google-benchmark): GF(2^8) region ops and
// erasure-code encode/decode across θ configurations, sizes and codes — the
// substrate the §6.2.3 CPU argument rests on. Every code runs through the
// one EcPolicy implementation (ec/policy.h).
//
// Region ops and encode are benchmarked per dispatch tier (scalar reference
// vs the best SIMD tier the host supports) via gf::force_tier. After the
// google-benchmark suites, main() runs a chrono-timed sweep over (code, x, n,
// value size) — encode MB/s per tier and parity-only decode MB/s — and
// writes BENCH_ec.json, stamped with the host and the git revision.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common.h"
#include "ec/cpu_features.h"
#include "ec/gf256.h"
#include "ec/policy.h"
#include "util/rng.h"

namespace {

using namespace rspaxos;

const ec::EcPolicy& rs(int x, int n) { return ec::PolicyCache::get(ec::CodeId::kRs, x, n); }

/// Forces a dispatch tier for one benchmark run; restores on destruction.
class TierScope {
 public:
  explicit TierScope(cpu::GfTier tier) : saved_(gf::active_tier()) {
    ok_ = gf::force_tier(tier);
  }
  ~TierScope() { gf::force_tier(saved_); }
  bool ok() const { return ok_; }

 private:
  cpu::GfTier saved_;
  bool ok_ = false;
};

void gf_mul_add_region_tiered(benchmark::State& state, cpu::GfTier tier) {
  TierScope scope(tier);
  if (!scope.ok()) {
    state.SkipWithError("tier not supported on this host/build");
    return;
  }
  state.SetLabel(cpu::tier_name(tier));
  size_t n = static_cast<size_t>(state.range(0));
  Rng rng(1);
  Bytes src(n), dst(n);
  rng.fill(src.data(), n);
  rng.fill(dst.data(), n);
  for (auto _ : state) {
    gf::mul_add_region(dst.data(), src.data(), 0x57, n);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}

void BM_GfMulAddRegion(benchmark::State& state) {
  gf_mul_add_region_tiered(state, cpu::best_supported_tier());
}
BENCHMARK(BM_GfMulAddRegion)->Arg(4 << 10)->Arg(256 << 10)->Arg(4 << 20);

void BM_GfMulAddRegionScalar(benchmark::State& state) {
  gf_mul_add_region_tiered(state, cpu::GfTier::kScalar);
}
BENCHMARK(BM_GfMulAddRegionScalar)->Arg(4 << 10)->Arg(256 << 10)->Arg(4 << 20);

void BM_GfXorRegion(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Rng rng(2);
  Bytes src(n), dst(n);
  rng.fill(src.data(), n);
  for (auto _ : state) {
    gf::mul_add_region(dst.data(), src.data(), 1, n);  // coefficient-1 fast path
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_GfXorRegion)->Arg(256 << 10);

void rs_encode_tiered(benchmark::State& state, cpu::GfTier tier) {
  TierScope scope(tier);
  if (!scope.ok()) {
    state.SkipWithError("tier not supported on this host/build");
    return;
  }
  state.SetLabel(cpu::tier_name(tier));
  int m = static_cast<int>(state.range(0));
  int n = static_cast<int>(state.range(1));
  size_t size = static_cast<size_t>(state.range(2));
  const ec::EcPolicy& code = rs(m, n);
  Rng rng(3);
  Bytes value(size);
  rng.fill(value.data(), size);
  for (auto _ : state) {
    auto shares = code.encode(value);
    benchmark::DoNotOptimize(shares.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(size));
}

void BM_RsEncode(benchmark::State& state) {
  rs_encode_tiered(state, cpu::best_supported_tier());
}
BENCHMARK(BM_RsEncode)
    ->Args({3, 5, 64 << 10})
    ->Args({3, 5, 1 << 20})
    ->Args({3, 5, 16 << 20})
    ->Args({2, 4, 1 << 20})
    ->Args({5, 7, 1 << 20})
    ->Args({3, 7, 1 << 20});

void BM_RsEncodeScalar(benchmark::State& state) {
  rs_encode_tiered(state, cpu::GfTier::kScalar);
}
BENCHMARK(BM_RsEncodeScalar)->Args({3, 5, 64 << 10})->Args({3, 5, 1 << 20});

void BM_RsEncodeInto(benchmark::State& state) {
  // Zero-copy path: shares land in caller buffers (as in the proposer's
  // accept frames), no per-share allocation inside the timed region.
  int m = static_cast<int>(state.range(0));
  int n = static_cast<int>(state.range(1));
  size_t size = static_cast<size_t>(state.range(2));
  const ec::EcPolicy& code = rs(m, n);
  Rng rng(6);
  Bytes value(size);
  rng.fill(value.data(), size);
  size_t ss = code.share_size(size);
  std::vector<Bytes> bufs(static_cast<size_t>(n), Bytes(ss));
  std::vector<uint8_t*> dsts;
  for (auto& b : bufs) dsts.push_back(b.data());
  for (auto _ : state) {
    code.encode_into(value, dsts.data());
    benchmark::DoNotOptimize(dsts.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(size));
}
BENCHMARK(BM_RsEncodeInto)->Args({3, 5, 64 << 10})->Args({3, 5, 1 << 20});

void BM_RsEncodeSingleShare(benchmark::State& state) {
  const ec::EcPolicy& code = rs(3, 5);
  Rng rng(4);
  Bytes value(1 << 20);
  rng.fill(value.data(), value.size());
  for (auto _ : state) {
    Bytes share = code.encode_share(value, 4);  // a parity share
    benchmark::DoNotOptimize(share.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(value.size()));
}
BENCHMARK(BM_RsEncodeSingleShare);

void BM_RsDecode(benchmark::State& state) {
  int m = static_cast<int>(state.range(0));
  int n = static_cast<int>(state.range(1));
  size_t size = static_cast<size_t>(state.range(2));
  int mode = static_cast<int>(state.range(3));  // 0 systematic, 1 parity, 2 mixed
  const ec::EcPolicy& code = rs(m, n);
  Rng rng(5);
  Bytes value(size);
  rng.fill(value.data(), size);
  auto shares = code.encode(value);
  std::map<int, Bytes> input;
  if (mode == 1) {
    for (int i = n - m; i < n; ++i) input.emplace(i, shares[static_cast<size_t>(i)]);
  } else if (mode == 2) {
    // m-1 systematic shares + 1 parity: the partial fast path memcpys the
    // systematic rows and reconstructs only the missing one.
    for (int i = 0; i + 1 < m; ++i) input.emplace(i, shares[static_cast<size_t>(i)]);
    input.emplace(n - 1, shares[static_cast<size_t>(n - 1)]);
  } else {
    for (int i = 0; i < m; ++i) input.emplace(i, shares[static_cast<size_t>(i)]);
  }
  for (auto _ : state) {
    auto out = code.decode(input, size);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(size));
}
BENCHMARK(BM_RsDecode)
    ->Args({3, 5, 4 << 10, 0})   // small values: selection overhead dominates
    ->Args({3, 5, 4 << 10, 1})
    ->Args({3, 5, 4 << 10, 2})
    ->Args({3, 5, 64 << 10, 1})
    ->Args({3, 5, 1 << 20, 0})   // systematic fast path
    ->Args({3, 5, 1 << 20, 1})   // full reconstruction
    ->Args({3, 5, 1 << 20, 2})   // mixed: 2 systematic + 1 parity
    ->Args({5, 7, 1 << 20, 1});

void BM_PolicyEncode(benchmark::State& state) {
  // One kernel for every code: lrc and hh go through the same blocked
  // encode_into as rs (hh at twice the sub-stripes of half the size).
  const auto code = static_cast<ec::CodeId>(state.range(0));
  int x = static_cast<int>(state.range(1));
  int n = static_cast<int>(state.range(2));
  size_t size = static_cast<size_t>(state.range(3));
  const ec::EcPolicy& p = ec::PolicyCache::get(code, x, n);
  state.SetLabel(ec::to_string(code));
  Rng rng(8);
  Bytes value(size);
  rng.fill(value.data(), size);
  std::vector<Bytes> bufs(static_cast<size_t>(n), Bytes(p.share_size(size)));
  std::vector<uint8_t*> dsts;
  for (auto& b : bufs) dsts.push_back(b.data());
  for (auto _ : state) {
    p.encode_into(value, dsts.data());
    benchmark::DoNotOptimize(dsts.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(size));
}
BENCHMARK(BM_PolicyEncode)
    ->Args({static_cast<int>(ec::CodeId::kLrc), 4, 10, 1 << 20})
    ->Args({static_cast<int>(ec::CodeId::kHh), 4, 10, 1 << 20})
    ->Args({static_cast<int>(ec::CodeId::kRs), 4, 10, 1 << 20});

void BM_RsPolicyConstruction(benchmark::State& state) {
  for (auto _ : state) {
    auto code = ec::make_rs_policy(10, 14);
    benchmark::DoNotOptimize(code);
  }
}
BENCHMARK(BM_RsPolicyConstruction);

// --- BENCH_ec.json sweep ------------------------------------------------

struct SweepRow {
  ec::CodeId code;
  int x, n;
  size_t value_bytes;
  double scalar_mbps = 0, simd_mbps = 0, decode_mbps = 0;
};

/// Calls `op` until >= 50 ms of work has run; returns MB/s of `bytes` per call.
template <typename Op>
double measure_mbps(size_t bytes, Op op) {
  using clock = std::chrono::steady_clock;
  op();  // warm tables + cache
  uint64_t iters = 0;
  auto start = clock::now();
  double elapsed = 0;
  do {
    op();
    ++iters;
    elapsed = std::chrono::duration<double>(clock::now() - start).count();
  } while (elapsed < 0.05);
  return static_cast<double>(iters) * static_cast<double>(bytes) / elapsed / 1e6;
}

/// MB/s of encode_into under the given tier.
double measure_encode_mbps(const ec::EcPolicy& p, const Bytes& value, cpu::GfTier tier) {
  TierScope scope(tier);
  if (!scope.ok()) return 0;
  std::vector<Bytes> bufs(static_cast<size_t>(p.n()), Bytes(p.share_size(value.size())));
  std::vector<uint8_t*> dsts;
  for (auto& b : bufs) dsts.push_back(b.data());
  return measure_mbps(value.size(), [&] { p.encode_into(value, dsts.data()); });
}

/// MB/s of decode under the dispatched tier from the fewest highest-index
/// shares that decode (parity first: the full solve path); 0 if it fails.
double measure_decode_mbps(const ec::EcPolicy& p, const Bytes& value) {
  const std::vector<Bytes> shares = p.encode(value);
  std::map<int, Bytes> input;
  std::vector<int> have;
  for (int i = p.n() - 1; i >= 0 && !p.decodable(have); --i) {
    input.emplace(i, shares[static_cast<size_t>(i)]);
    have.push_back(i);
  }
  if (!p.decode(input, value.size()).is_ok()) return 0;
  return measure_mbps(value.size(), [&] {
    auto out = p.decode(input, value.size());
    benchmark::DoNotOptimize(out);
  });
}

void run_json_sweep() {
  const struct { int x, n; } thetas[] = {{3, 5}, {2, 4}, {5, 7}, {10, 14}};
  const size_t sizes[] = {64 << 10, 1 << 20};
  cpu::GfTier best = cpu::best_supported_tier();
  std::vector<SweepRow> rows;
  Rng rng(7);
  std::printf("\n--- encode/decode throughput sweep (scalar vs %s) ---\n",
              cpu::tier_name(best));
  std::printf("%5s %8s %12s %14s %14s %9s %14s\n", "code", "theta", "value", "scalar MB/s",
              "simd MB/s", "speedup", "decode MB/s");
  for (ec::CodeId code : {ec::CodeId::kRs, ec::CodeId::kLrc, ec::CodeId::kHh}) {
    for (auto t : thetas) {
      const ec::EcPolicy& p = ec::PolicyCache::get(code, t.x, t.n);
      for (size_t size : sizes) {
        Bytes value(size);
        rng.fill(value.data(), size);
        SweepRow row{code, t.x, t.n, size};
        row.scalar_mbps = measure_encode_mbps(p, value, cpu::GfTier::kScalar);
        row.simd_mbps = measure_encode_mbps(p, value, best);
        row.decode_mbps = measure_decode_mbps(p, value);
        rows.push_back(row);
        std::printf("%5s θ(%d,%2d) %11zuB %14.0f %14.0f %8.2fx %14.0f\n",
                    ec::to_string(code), t.x, t.n, size, row.scalar_mbps, row.simd_mbps,
                    row.scalar_mbps > 0 ? row.simd_mbps / row.scalar_mbps : 0.0,
                    row.decode_mbps);
      }
    }
  }
  std::FILE* f = std::fopen("BENCH_ec.json", "w");
  if (!f) {
    std::fprintf(stderr, "cannot write BENCH_ec.json\n");
    return;
  }
  std::fprintf(f,
               "{\n  \"benchmark\": \"ec_micro\", %s, \"git_commit\": \"%s\",\n"
               "  \"simd_tier\": \"%s\",\n"
               "  \"note\": \"single-thread encode_into MB/s per GF tier and parity-first "
               "decode MB/s (dispatched tier) from the fewest highest-index shares that "
               "decode, 50 ms per cell, one run\",\n  \"encode\": [\n",
               bench::bench_meta_json(1).c_str(), bench::bench_git_commit().c_str(),
               cpu::tier_name(best));
  for (size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& r = rows[i];
    std::fprintf(f,
                 "    {\"code\": \"%s\", \"x\": %d, \"n\": %d, \"value_bytes\": %zu, "
                 "\"scalar_mbps\": %.1f, \"simd_mbps\": %.1f, "
                 "\"speedup\": %.2f, \"decode_mbps\": %.1f}%s\n",
                 ec::to_string(r.code), r.x, r.n, r.value_bytes, r.scalar_mbps, r.simd_mbps,
                 r.scalar_mbps > 0 ? r.simd_mbps / r.scalar_mbps : 0.0, r.decode_mbps,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote BENCH_ec.json\n");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  run_json_sweep();
  return 0;
}
