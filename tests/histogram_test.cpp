// Focused tests for the log-bucketed histogram: edge quantiles (q=0 / q=1
// exact min/max), record/merge round-trips, relative-error bounds at bucket
// boundaries, clear(), and lazily allocated buckets matching the full-size
// layout.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "util/histogram.h"

namespace rspaxos {
namespace {

TEST(Histogram, EmptyReturnsZeroEverywhere) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.sum(), 0.0);
  for (double q : {0.0, 0.5, 1.0}) EXPECT_EQ(h.value_at(q), 0);
}

TEST(Histogram, EdgeQuantilesAreExactMinMax) {
  Histogram h;
  h.record(13);
  h.record(7777);
  h.record(123456789);
  // Interior quantiles are bucket midpoints, but the extremes must be the
  // true observed values regardless of bucket width.
  EXPECT_EQ(h.value_at(0.0), 13);
  EXPECT_EQ(h.value_at(-1.0), 13);
  EXPECT_EQ(h.value_at(1.0), 123456789);
  EXPECT_EQ(h.value_at(2.0), 123456789);
}

TEST(Histogram, SingleValueIsEveryQuantile) {
  Histogram h;
  h.record(4242);
  for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    int64_t v = h.value_at(q);
    EXPECT_NEAR(static_cast<double>(v), 4242.0, 4242.0 * 0.02) << "q=" << q;
  }
  EXPECT_EQ(h.value_at(0.0), 4242);  // exact at the edges
  EXPECT_EQ(h.value_at(1.0), 4242);
}

TEST(Histogram, SmallValuesAreExact) {
  // Indices below one sub-bucket span (64) map 1:1 to buckets.
  Histogram h;
  for (int64_t v = 0; v < 64; ++v) h.record(v);
  EXPECT_EQ(h.value_at(0.0), 0);
  EXPECT_EQ(h.value_at(1.0), 63);
  EXPECT_EQ(h.value_at(0.5), 31);  // rank 32 of 0..63 -> bucket 31, exact
}

TEST(Histogram, BucketBoundaryRelativeError) {
  // 127 is the last exact-ish bucket of its octave; 128 starts the next
  // octave (width 2); 129 shares 128's bucket. All must stay within ~2%.
  for (int64_t v : {127, 128, 129, 255, 256, 257, 16383, 16384, 16385}) {
    Histogram h;
    h.record(v);
    int64_t got = h.value_at(0.5);
    EXPECT_NEAR(static_cast<double>(got), static_cast<double>(v),
                static_cast<double>(v) * 0.02)
        << "v=" << v;
    // The midpoint is clamped into [min,max], so a single sample can never
    // report a value outside what was observed.
    EXPECT_GE(got, h.min());
    EXPECT_LE(got, h.max());
  }
}

TEST(Histogram, PercentileRoundTrip) {
  Histogram h;
  for (int64_t v = 1; v <= 1000; ++v) h.record(v);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_NEAR(h.mean(), 500.5, 0.01);
  EXPECT_NEAR(h.sum(), 500500.0, 0.01);
  struct {
    double q;
    double want;
  } cases[] = {{0.10, 100}, {0.50, 500}, {0.90, 900}, {0.99, 990}};
  for (auto [q, want] : cases) {
    EXPECT_NEAR(static_cast<double>(h.value_at(q)), want, want * 0.02 + 2.0)
        << "q=" << q;
  }
}

TEST(Histogram, MergeMatchesCombinedRecording) {
  Histogram a, b, both;
  for (int64_t v = 1; v <= 500; ++v) {
    a.record(v);
    both.record(v);
  }
  for (int64_t v = 501; v <= 1000; ++v) {
    b.record(v * 7);
    both.record(v * 7);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), both.count());
  EXPECT_EQ(a.min(), both.min());
  EXPECT_EQ(a.max(), both.max());
  EXPECT_DOUBLE_EQ(a.sum(), both.sum());
  for (double q : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(a.value_at(q), both.value_at(q)) << "q=" << q;
  }
}

TEST(Histogram, MergeIntoEmptyAdoptsMinMax) {
  Histogram empty, src;
  src.record(42);
  src.record(9000);
  empty.merge(src);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_EQ(empty.min(), 42);
  EXPECT_EQ(empty.max(), 9000);
}

TEST(Histogram, ClearResetsEverything) {
  Histogram h;
  for (int64_t v = 1; v <= 100; ++v) h.record(v);
  h.clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.value_at(0.5), 0);
  // Usable again after clear.
  h.record(77);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.value_at(1.0), 77);
}

TEST(Histogram, BucketsGrowOnlyToHighestRecordedOctave) {
  Histogram h;
  EXPECT_EQ(h.allocated_buckets(), 0u);
  h.record(10);
  EXPECT_EQ(h.allocated_buckets(), 64u);  // octave 0 only
  h.record(100);                          // octave 1
  EXPECT_EQ(h.allocated_buckets(), 128u);
  h.record(-5);  // clamps into bucket 0, no growth
  EXPECT_EQ(h.allocated_buckets(), 128u);
  Histogram big;
  big.record(1'000'000);  // MSB 19 -> octave 14
  EXPECT_EQ(big.allocated_buckets(), 15u * 64u);
  h.merge(big);  // merge grows to the larger operand
  EXPECT_EQ(h.allocated_buckets(), 15u * 64u);
  h.clear();
  EXPECT_EQ(h.count(), 0u);
}

// Property: a lazily sized histogram and a full-size one fed the same values
// agree on every statistic, every quantile and every merge, over random
// values spanning all octaves, negative values (clamped to bucket 0) and
// values in the top bucket.
TEST(Histogram, LazyMatchesFullSizeOnRandomValues) {
  std::mt19937_64 rng(20141013);
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  auto draw = [&rng]() -> int64_t {
    switch (rng() % 6) {
      case 0: return static_cast<int64_t>(rng() % 64);           // exact range
      case 1: return -static_cast<int64_t>(rng() % 1000) - 1;    // clamped low
      case 2: return kMax - static_cast<int64_t>(rng() % 1024);  // top bucket
      case 3: return static_cast<int64_t>(rng() % 100'000);
      default: {
        int shift = static_cast<int>(rng() % 63);  // log-uniform magnitude
        return static_cast<int64_t>(rng() >> (1 + shift));
      }
    }
  };
  const std::vector<double> qs = {0.0, 0.001, 0.01, 0.1, 0.25, 0.5,
                                  0.75, 0.9, 0.99, 0.999, 1.0};
  auto expect_same = [&qs](const Histogram& a, const Histogram& b, int trial) {
    ASSERT_EQ(a.count(), b.count()) << "trial " << trial;
    EXPECT_EQ(a.min(), b.min()) << "trial " << trial;
    EXPECT_EQ(a.max(), b.max()) << "trial " << trial;
    EXPECT_EQ(a.sum(), b.sum()) << "trial " << trial;
    for (double q : qs) EXPECT_EQ(a.value_at(q), b.value_at(q)) << "trial " << trial << " q=" << q;
  };

  for (int trial = 0; trial < 200; ++trial) {
    // Narrow trials stay in low octaves, so lazy buckets really are short.
    bool narrow = trial % 2 == 0;
    size_t n = 1 + rng() % 300;
    Histogram lazy_a, full_a, lazy_b, full_b;
    full_a.allocate_all_buckets();
    full_b.allocate_all_buckets();
    for (size_t i = 0; i < n; ++i) {
      int64_t v = narrow ? static_cast<int64_t>(rng() % 5000) : draw();
      lazy_a.record(v);
      full_a.record(v);
      int64_t w = narrow ? static_cast<int64_t>(rng() % 50) : draw();
      lazy_b.record(w);
      full_b.record(w);
    }
    expect_same(lazy_a, full_a, trial);
    expect_same(lazy_b, full_b, trial);

    Histogram lazy_ab = lazy_a, full_ab = full_a, mixed_ab = lazy_a, mixed_ba = lazy_b;
    lazy_ab.merge(lazy_b);
    full_ab.merge(full_b);
    mixed_ab.merge(full_b);  // lazy grows to the full operand
    mixed_ba.merge(full_a);
    expect_same(lazy_ab, full_ab, trial);
    expect_same(mixed_ab, full_ab, trial);
    expect_same(mixed_ba, full_ab, trial);
  }
}

}  // namespace
}  // namespace rspaxos
