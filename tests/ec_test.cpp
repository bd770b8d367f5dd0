// Unit + property tests for the erasure-coding substrate: GF(2^8) axioms,
// matrix algebra, and the any-X-of-N Reed-Solomon reconstruction guarantee.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "ec/cpu_features.h"
#include "ec/gf256.h"
#include "ec/gf256_simd.h"
#include "ec/matrix.h"
#include "ec/policy.h"
#include "util/rng.h"

namespace rspaxos {
namespace {

using ec::EcPolicy;
using ec::Matrix;

/// The cached θ(x, n) Reed-Solomon policy.
const EcPolicy& rs(int x, int n) { return ec::PolicyCache::get(ec::CodeId::kRs, x, n); }

TEST(Gf256, AdditionIsXor) {
  EXPECT_EQ(gf::add(0x53, 0xCA), 0x53 ^ 0xCA);
  EXPECT_EQ(gf::add(7, 7), 0);
}

TEST(Gf256, MultiplicativeIdentityAndZero) {
  for (int a = 0; a < 256; ++a) {
    EXPECT_EQ(gf::mul(static_cast<uint8_t>(a), 1), a);
    EXPECT_EQ(gf::mul(1, static_cast<uint8_t>(a)), a);
    EXPECT_EQ(gf::mul(static_cast<uint8_t>(a), 0), 0);
  }
}

TEST(Gf256, MulCommutativeAssociative) {
  Rng rng(1);
  for (int i = 0; i < 2000; ++i) {
    uint8_t a = static_cast<uint8_t>(rng.next_below(256));
    uint8_t b = static_cast<uint8_t>(rng.next_below(256));
    uint8_t c = static_cast<uint8_t>(rng.next_below(256));
    EXPECT_EQ(gf::mul(a, b), gf::mul(b, a));
    EXPECT_EQ(gf::mul(gf::mul(a, b), c), gf::mul(a, gf::mul(b, c)));
  }
}

TEST(Gf256, DistributesOverAddition) {
  Rng rng(2);
  for (int i = 0; i < 2000; ++i) {
    uint8_t a = static_cast<uint8_t>(rng.next_below(256));
    uint8_t b = static_cast<uint8_t>(rng.next_below(256));
    uint8_t c = static_cast<uint8_t>(rng.next_below(256));
    EXPECT_EQ(gf::mul(a, gf::add(b, c)), gf::add(gf::mul(a, b), gf::mul(a, c)));
  }
}

TEST(Gf256, InverseRoundTrip) {
  for (int a = 1; a < 256; ++a) {
    uint8_t inv = gf::inv(static_cast<uint8_t>(a));
    EXPECT_EQ(gf::mul(static_cast<uint8_t>(a), inv), 1) << "a=" << a;
  }
}

TEST(Gf256, DivisionInvertsMultiplication) {
  Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    uint8_t a = static_cast<uint8_t>(rng.next_below(256));
    uint8_t b = static_cast<uint8_t>(1 + rng.next_below(255));
    EXPECT_EQ(gf::div(gf::mul(a, b), b), a);
  }
}

TEST(Gf256, PowMatchesRepeatedMul) {
  for (int base = 0; base < 256; base += 7) {
    uint8_t acc = 1;
    for (unsigned e = 0; e < 20; ++e) {
      EXPECT_EQ(gf::pow(static_cast<uint8_t>(base), e), acc)
          << "base=" << base << " e=" << e;
      acc = gf::mul(acc, static_cast<uint8_t>(base));
    }
  }
}

TEST(Gf256, MulAddRegionMatchesScalar) {
  Rng rng(4);
  for (uint8_t c : {0, 1, 2, 0x1d, 0xff}) {
    Bytes src(1031), dst(1031), expect(1031);
    rng.fill(src.data(), src.size());
    rng.fill(dst.data(), dst.size());
    expect = dst;
    for (size_t i = 0; i < src.size(); ++i) expect[i] ^= gf::mul(c, src[i]);
    gf::mul_add_region(dst.data(), src.data(), c, src.size());
    EXPECT_EQ(dst, expect) << "c=" << static_cast<int>(c);
  }
}

TEST(Gf256, MulRegionMatchesScalar) {
  Rng rng(5);
  for (uint8_t c : {0, 1, 3, 0x80}) {
    Bytes src(517), dst(517), expect(517);
    rng.fill(src.data(), src.size());
    for (size_t i = 0; i < src.size(); ++i) expect[i] = gf::mul(c, src[i]);
    gf::mul_region(dst.data(), src.data(), c, src.size());
    EXPECT_EQ(dst, expect);
  }
}

// --- SIMD vs scalar cross-check ---------------------------------------
// The dispatched kernels must be byte-identical to the scalar reference for
// every coefficient, length, and src/dst misalignment. Kernels handle tails
// and unaligned loads internally, so correctness must not depend on callers
// being 16/32-byte aligned.

/// Restores the dispatch tier active at construction (tests force tiers).
class TierGuard {
 public:
  TierGuard() : saved_(gf::active_tier()) {}
  ~TierGuard() { gf::force_tier(saved_); }

 private:
  cpu::GfTier saved_;
};

std::vector<cpu::GfTier> supported_simd_tiers() {
  std::vector<cpu::GfTier> out;
  for (auto t : {cpu::GfTier::kSsse3, cpu::GfTier::kAvx2,
                 cpu::GfTier::kNeon}) {
    if (cpu::tier_supported(t)) out.push_back(t);
  }
  return out;
}

TEST(GfSimd, DispatchReportsSupportedTier) {
  EXPECT_TRUE(cpu::tier_supported(gf::active_tier()));
  EXPECT_STRNE(gf::kernel_name(), "");
  // Forcing an unsupported-by-definition request leaves dispatch unchanged.
  EXPECT_TRUE(gf::force_tier(cpu::GfTier::kScalar));
  EXPECT_EQ(gf::active_tier(), cpu::GfTier::kScalar);
  EXPECT_TRUE(gf::force_tier(cpu::best_supported_tier()));
}

TEST(GfSimd, KernelsMatchScalarAllAlignmentPairs) {
  auto tiers = supported_simd_tiers();
  if (tiers.empty()) GTEST_SKIP() << "no SIMD tier built for this target";
  TierGuard guard;
  Rng rng(11);
  constexpr size_t kPad = 32, kMax = 160;
  std::vector<uint8_t> src_buf(kMax + kPad), dst_buf(kMax + kPad),
      ref_buf(kMax + kPad);
  const size_t lens[] = {0, 1, 15, 16, 17, 31, 32, 33, 64, 100};
  const uint8_t coeffs[] = {0, 1, 2, 0x1d, 0x80, 0xff};
  for (auto tier : tiers) {
    ASSERT_TRUE(gf::force_tier(tier)) << cpu::tier_name(tier);
    for (size_t sa = 0; sa < 32; ++sa) {
      for (size_t da = 0; da < 32; ++da) {
        for (size_t len : lens) {
          for (uint8_t c : coeffs) {
            rng.fill(src_buf.data(), src_buf.size());
            rng.fill(dst_buf.data(), dst_buf.size());
            std::copy(dst_buf.begin(), dst_buf.end(), ref_buf.begin());
            gf::detail::mul_add_region_scalar(ref_buf.data() + da,
                                              src_buf.data() + sa, c, len);
            gf::mul_add_region(dst_buf.data() + da, src_buf.data() + sa, c, len);
            ASSERT_EQ(Bytes(dst_buf.begin(), dst_buf.end()),
                      Bytes(ref_buf.begin(), ref_buf.end()))
                << cpu::tier_name(tier) << " mul_add sa=" << sa
                << " da=" << da << " len=" << len << " c=" << int(c);
            gf::detail::mul_region_scalar(ref_buf.data() + da,
                                          src_buf.data() + sa, c, len);
            gf::mul_region(dst_buf.data() + da, src_buf.data() + sa, c, len);
            ASSERT_EQ(Bytes(dst_buf.begin(), dst_buf.end()),
                      Bytes(ref_buf.begin(), ref_buf.end()))
                << cpu::tier_name(tier) << " mul sa=" << sa << " da=" << da
                << " len=" << len << " c=" << int(c);
          }
        }
      }
    }
  }
}

TEST(GfSimd, KernelsMatchScalarEveryLengthTo4097) {
  auto tiers = supported_simd_tiers();
  if (tiers.empty()) GTEST_SKIP() << "no SIMD tier built for this target";
  TierGuard guard;
  Rng rng(12);
  constexpr size_t kMax = 4097, kPad = 32;
  std::vector<uint8_t> src_buf(kMax + kPad), dst_buf(kMax + kPad),
      ref_buf(kMax + kPad);
  rng.fill(src_buf.data(), src_buf.size());
  // A few representative misalignment pairs; the full 32x32 grid is covered
  // at shorter lengths above.
  const std::pair<size_t, size_t> aligns[] = {{0, 0}, {1, 3}, {17, 30}};
  for (auto tier : tiers) {
    ASSERT_TRUE(gf::force_tier(tier));
    for (auto [sa, da] : aligns) {
      for (size_t len = 0; len <= kMax; ++len) {
        uint8_t c = static_cast<uint8_t>(rng.next_below(256));
        rng.fill(dst_buf.data(), dst_buf.size());
        std::copy(dst_buf.begin(), dst_buf.end(), ref_buf.begin());
        gf::detail::mul_add_region_scalar(ref_buf.data() + da,
                                          src_buf.data() + sa, c, len);
        gf::mul_add_region(dst_buf.data() + da, src_buf.data() + sa, c, len);
        ASSERT_EQ(Bytes(dst_buf.begin(), dst_buf.end()),
                  Bytes(ref_buf.begin(), ref_buf.end()))
            << cpu::tier_name(tier) << " sa=" << sa << " da=" << da
            << " len=" << len << " c=" << int(c);
      }
    }
  }
}

TEST(GfSimd, EncodeIdenticalAcrossTiers) {
  // A value encoded under any tier must produce byte-identical shares — the
  // wire/WAL format cannot depend on which CPU encoded it.
  TierGuard guard;
  Rng rng(13);
  const EcPolicy& code = rs(3, 5);
  Bytes value(64 * 1024 - 5);
  rng.fill(value.data(), value.size());
  ASSERT_TRUE(gf::force_tier(cpu::GfTier::kScalar));
  auto scalar_shares = code.encode(value);
  for (auto tier : supported_simd_tiers()) {
    ASSERT_TRUE(gf::force_tier(tier));
    auto simd_shares = code.encode(value);
    ASSERT_EQ(simd_shares, scalar_shares) << cpu::tier_name(tier);
    // Parity-only decode exercises the inversion + kernel path per tier.
    std::map<int, Bytes> in{{2, simd_shares[2]}, {3, simd_shares[3]},
                            {4, simd_shares[4]}};
    auto out = code.decode(in, value.size());
    ASSERT_TRUE(out.is_ok());
    EXPECT_EQ(out.value(), value) << cpu::tier_name(tier);
  }
}

TEST(RsPolicy, EncodeIntoMatchesEncode) {
  Rng rng(14);
  const EcPolicy& code = rs(3, 5);
  for (size_t value_len : {size_t{0}, size_t{1}, size_t{9}, size_t{10},
                           size_t{4096}, size_t{100000}}) {
    Bytes value(value_len);
    rng.fill(value.data(), value.size());
    auto shares = code.encode(value);
    size_t ss = code.share_size(value_len);
    // Destination buffers deliberately misaligned (offset 1..5 into padding)
    // to prove the zero-copy path accepts arbitrary frame offsets.
    std::vector<Bytes> bufs(5, Bytes(ss + 8, 0xee));
    std::vector<uint8_t*> dsts(5);
    for (size_t i = 0; i < 5; ++i) dsts[i] = bufs[i].data() + 1 + i;
    code.encode_into(value, dsts.data());
    for (size_t i = 0; i < 5; ++i) {
      EXPECT_EQ(Bytes(dsts[i], dsts[i] + ss), shares[i]) << "share " << i;
      EXPECT_EQ(bufs[i][0], 0xee);               // no under-run
      EXPECT_EQ(bufs[i][1 + i + ss], 0xee);      // no over-run
    }
  }
}

TEST(RsPolicy, DecodeMixedSystematicParitySubsets) {
  // The partial-systematic fast path: present systematic shares must be
  // memcpy'd verbatim and missing rows reconstructed, for every mixed subset.
  Rng rng(15);
  const EcPolicy& code = rs(3, 6);
  Bytes value(3000);
  rng.fill(value.data(), value.size());
  auto shares = code.encode(value);
  for (int a = 0; a < 6; ++a) {
    for (int b = a + 1; b < 6; ++b) {
      for (int c = b + 1; c < 6; ++c) {
        std::map<int, Bytes> in{{a, shares[static_cast<size_t>(a)]},
                                {b, shares[static_cast<size_t>(b)]},
                                {c, shares[static_cast<size_t>(c)]}};
        auto out = code.decode(in, value.size());
        ASSERT_TRUE(out.is_ok()) << a << "," << b << "," << c;
        EXPECT_EQ(out.value(), value) << a << "," << b << "," << c;
      }
    }
  }
}

TEST(Matrix, IdentityTimesIsNoop) {
  Matrix m(3, 3);
  uint8_t v = 1;
  for (size_t r = 0; r < 3; ++r)
    for (size_t c = 0; c < 3; ++c) m.at(r, c) = v++;
  Matrix i = Matrix::identity(3);
  EXPECT_EQ(i.times(m), m);
  EXPECT_EQ(m.times(i), m);
}

TEST(Matrix, InverseTimesSelfIsIdentity) {
  Rng rng(6);
  for (int trial = 0; trial < 50; ++trial) {
    size_t n = 1 + rng.next_below(8);
    Matrix m(n, n);
    for (size_t r = 0; r < n; ++r)
      for (size_t c = 0; c < n; ++c) m.at(r, c) = static_cast<uint8_t>(rng.next_below(256));
    auto inv = m.inverted();
    if (!inv.is_ok()) continue;  // singular random matrix: skip
    EXPECT_EQ(m.times(inv.value()), Matrix::identity(n));
    EXPECT_EQ(inv.value().times(m), Matrix::identity(n));
  }
}

TEST(Matrix, SingularDetected) {
  Matrix m(2, 2);
  m.at(0, 0) = 1;
  m.at(0, 1) = 2;
  m.at(1, 0) = 1;
  m.at(1, 1) = 2;  // duplicate row
  EXPECT_FALSE(m.inverted().is_ok());
  Matrix z(3, 3);  // all zero
  EXPECT_FALSE(z.inverted().is_ok());
}

TEST(Matrix, NonSquareInverseRejected) {
  Matrix m(2, 3);
  EXPECT_FALSE(m.inverted().is_ok());
}

TEST(Matrix, VandermondeSubmatricesInvertible) {
  // The RS guarantee rests on this: any m rows of the n x m Vandermonde are
  // independent.
  Matrix v = Matrix::vandermonde(8, 3);
  for (size_t a = 0; a < 8; ++a) {
    for (size_t b = a + 1; b < 8; ++b) {
      for (size_t c = b + 1; c < 8; ++c) {
        EXPECT_TRUE(v.select_rows({a, b, c}).inverted().is_ok())
            << a << "," << b << "," << c;
      }
    }
  }
}

TEST(RsPolicy, RejectsBadParams) {
  EXPECT_FALSE(ec::make_rs_policy(0, 5).is_ok());
  EXPECT_FALSE(ec::make_rs_policy(3, 2).is_ok());
  EXPECT_FALSE(ec::make_rs_policy(1, 256).is_ok());
  EXPECT_TRUE(ec::make_rs_policy(1, 1).is_ok());
  EXPECT_TRUE(ec::make_rs_policy(3, 5).is_ok());
  const uint8_t kRs = static_cast<uint8_t>(ec::CodeId::kRs);
  EXPECT_FALSE(ec::PolicyCache::get_checked(kRs, 0, 5).is_ok());
  EXPECT_FALSE(ec::PolicyCache::get_checked(kRs, 3, 2).is_ok());
  EXPECT_FALSE(ec::PolicyCache::get_checked(kRs, 1, 256).is_ok());
  EXPECT_TRUE(ec::PolicyCache::get_checked(kRs, 1, 1).is_ok());
  EXPECT_TRUE(ec::PolicyCache::get_checked(kRs, 3, 5).is_ok());
}

TEST(RsPolicy, SystematicSharesAreDataSplits) {
  const EcPolicy& code = rs(3, 5);
  Bytes value = to_bytes("abcdefghi");  // 9 bytes -> 3 per share
  auto shares = code.encode(value);
  ASSERT_EQ(shares.size(), 5u);
  EXPECT_EQ(to_string(shares[0]), "abc");
  EXPECT_EQ(to_string(shares[1]), "def");
  EXPECT_EQ(to_string(shares[2]), "ghi");
}

TEST(RsPolicy, ShareSizeIsCeilDiv) {
  const EcPolicy& code = rs(3, 5);
  EXPECT_EQ(code.share_size(9), 3u);
  EXPECT_EQ(code.share_size(10), 4u);
  EXPECT_EQ(code.share_size(0), 0u);
  EXPECT_EQ(code.share_size(1), 1u);
}

TEST(RsPolicy, EncodeShareMatchesFullEncode) {
  Rng rng(7);
  const EcPolicy& code = rs(4, 7);
  Bytes value(1000);
  rng.fill(value.data(), value.size());
  auto shares = code.encode(value);
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(code.encode_share(value, i), shares[static_cast<size_t>(i)])
        << "share " << i;
  }
}

TEST(RsPolicy, EmptyValue) {
  const EcPolicy& code = rs(3, 5);
  auto shares = code.encode(Bytes{});
  for (const auto& s : shares) EXPECT_TRUE(s.empty());
  std::map<int, Bytes> in{{0, {}}, {2, {}}, {4, {}}};
  auto out = code.decode(in, 0);
  ASSERT_TRUE(out.is_ok());
  EXPECT_TRUE(out.value().empty());
}

TEST(RsPolicy, NotEnoughSharesFails) {
  const EcPolicy& code = rs(3, 5);
  Bytes value(100, 0x42);
  auto shares = code.encode(value);
  std::map<int, Bytes> in{{0, shares[0]}, {3, shares[3]}};
  EXPECT_FALSE(code.decode(in, value.size()).is_ok());
}

TEST(RsPolicy, InconsistentShareSizeRejected) {
  const EcPolicy& code = rs(2, 4);
  Bytes value(64, 1);
  auto shares = code.encode(value);
  std::map<int, Bytes> in{{0, shares[0]}, {1, Bytes(5, 0)}};
  EXPECT_FALSE(code.decode(in, value.size()).is_ok());
}

TEST(RsPolicy, OutOfRangeIndexRejected) {
  const EcPolicy& code = rs(2, 4);
  Bytes value(64, 1);
  auto shares = code.encode(value);
  std::map<int, Bytes> in{{0, shares[0]}, {7, shares[1]}};
  EXPECT_FALSE(code.decode(in, value.size()).is_ok());
}

TEST(RsPolicy, CacheReturnsSameInstance) {
  const EcPolicy& a = rs(3, 5);
  const EcPolicy& b = rs(3, 5);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.id(), ec::CodeId::kRs);
  EXPECT_EQ(a.x(), 3);
  EXPECT_EQ(a.n(), 5);
}

// Property sweep: every (m, n) in a practical range, every subset size m of
// shares (sampled), every value size including padding edge cases.
struct RsParam {
  int m, n;
  size_t value_len;
};

class RsRoundTrip : public ::testing::TestWithParam<RsParam> {};

TEST_P(RsRoundTrip, AnyMSubsetReconstructs) {
  const auto [m, n, value_len] = GetParam();
  const EcPolicy& code = rs(m, n);
  Rng rng(static_cast<uint64_t>(m * 1000 + n * 10) + value_len);
  Bytes value(value_len);
  rng.fill(value.data(), value.size());
  auto shares = code.encode(value);
  ASSERT_EQ(shares.size(), static_cast<size_t>(n));

  // Try up to 20 random m-subsets plus the "last m" and "first m" subsets.
  std::vector<std::vector<int>> subsets;
  std::vector<int> first, last;
  for (int i = 0; i < m; ++i) first.push_back(i);
  for (int i = n - m; i < n; ++i) last.push_back(i);
  subsets.push_back(first);
  subsets.push_back(last);
  for (int t = 0; t < 20; ++t) {
    std::vector<int> all(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) all[static_cast<size_t>(i)] = i;
    for (int i = n - 1; i > 0; --i) {
      std::swap(all[static_cast<size_t>(i)], all[rng.next_below(static_cast<uint64_t>(i + 1))]);
    }
    all.resize(static_cast<size_t>(m));
    subsets.push_back(all);
  }
  for (const auto& subset : subsets) {
    std::map<int, Bytes> in;
    for (int idx : subset) in.emplace(idx, shares[static_cast<size_t>(idx)]);
    auto out = code.decode(in, value.size());
    ASSERT_TRUE(out.is_ok());
    EXPECT_EQ(out.value(), value);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RsRoundTrip,
    ::testing::Values(
        RsParam{1, 1, 17}, RsParam{1, 3, 100}, RsParam{1, 5, 64},
        RsParam{2, 3, 99}, RsParam{2, 4, 1}, RsParam{2, 5, 1000},
        RsParam{3, 5, 9}, RsParam{3, 5, 10}, RsParam{3, 5, 11},
        RsParam{3, 5, 65536}, RsParam{3, 7, 12345}, RsParam{4, 6, 1024},
        RsParam{4, 7, 31}, RsParam{5, 7, 4099}, RsParam{5, 9, 77},
        RsParam{6, 11, 300}, RsParam{8, 12, 512}, RsParam{10, 14, 129},
        RsParam{3, 5, 0}, RsParam{7, 7, 1000}));

// The paper's redundancy example (§2.2): n=5, m=3 -> r = 5/3.
TEST(RsPolicy, RedundancyMath) {
  const EcPolicy& code = rs(3, 5);
  size_t value = 3 * 1000;
  size_t total_stored = 5 * code.share_size(value);
  EXPECT_DOUBLE_EQ(static_cast<double>(total_stored) / static_cast<double>(value),
                   5.0 / 3.0);
}

}  // namespace
}  // namespace rspaxos
