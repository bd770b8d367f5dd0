// Self-tests of the benchmark's own parts (bench_lib.h). Build and run:
//   cmake -S rsbench -B .bench_build -G Ninja && cmake --build .bench_build
//   .bench_build/rsbench_selftest
#include <gtest/gtest.h>

#include "bench_lib.h"

namespace rsbench {
namespace {

TEST(RegistryDelta, ParsesLabelledSeriesAndTakesDeltas) {
  const char* before =
      "# HELP rsp_net_bytes_sent Payload bytes\n"
      "# TYPE rsp_net_bytes_sent counter\n"
      "rsp_net_bytes_sent{node=\"0\",msg=\"ACCEPT\"} 100\n"
      "rsp_net_bytes_sent{node=\"1\",msg=\"ACCEPTED\"} 7\n"
      "rsp_wal_flush_total 3\n";
  const char* after =
      "rsp_net_bytes_sent{node=\"0\",msg=\"ACCEPT\"} 350\n"
      "rsp_net_bytes_sent{node=\"1\",msg=\"ACCEPTED\"} 9\n"
      "rsp_net_bytes_sent{node=\"2\",msg=\"ACCEPT\"} 40\n"
      "rsp_wal_flush_total 10\n"
      "rsp_wal_fsync_us{quantile=\"0.5\"} 812\n"
      "rsp_wal_fsync_us_sum 4.5e+06\n";
  Scrape d = scrape_delta(parse_prometheus(after), parse_prometheus(before));
  EXPECT_DOUBLE_EQ(scrape_sum(d, "rsp_net_bytes_sent"), 250 + 2 + 40);
  EXPECT_DOUBLE_EQ(scrape_sum(d, "rsp_net_bytes_sent", "msg", "ACCEPT"), 290);
  EXPECT_DOUBLE_EQ(scrape_sum(d, "rsp_net_bytes_sent", "node", "1"), 2);
  EXPECT_DOUBLE_EQ(scrape_sum(d, "rsp_wal_flush_total"), 7);
  // A series born inside the window counts from zero; a prefix of another
  // metric's name is not that metric.
  EXPECT_DOUBLE_EQ(scrape_sum(d, "rsp_wal_fsync_us_sum"), 4.5e6);
  EXPECT_DOUBLE_EQ(scrape_sum(d, "rsp_wal_fsync_us"), 812);
  EXPECT_DOUBLE_EQ(scrape_sum(d, "rsp_wal_fsync"), 0);
}

TEST(RegistryDelta, LabelValuesMayHoldSpacesBracesAndEscapes) {
  Scrape s = parse_prometheus(
      "rsp_x{reason=\"queue full} \\\"x\\\"\",node=\"4\"} 12\n"
      "rsp_y 5\n"
      "garbage-without-value\n");
  ASSERT_EQ(s.size(), 2u);
  const std::string& key = s.begin()->first;
  EXPECT_EQ(series_name(key), "rsp_x");
  EXPECT_EQ(series_label(key, "reason"), std::optional<std::string>("queue full} \"x\""));
  EXPECT_EQ(series_label(key, "node"), std::optional<std::string>("4"));
  EXPECT_EQ(series_label(key, "group"), std::nullopt);
  EXPECT_DOUBLE_EQ(s.begin()->second, 12);
  EXPECT_DOUBLE_EQ(scrape_max(s, "rsp_y"), 5);
}

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 50);
  EXPECT_DOUBLE_EQ(quantile(v, 0.99), 99);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 100);
  std::vector<double> empty;
  EXPECT_DOUBLE_EQ(quantile(empty, 0.5), 0);
}

TEST(Percentile, TailNeedsTenSamplesBeyondIt) {
  EXPECT_EQ(supported_tail(99), 0.0);
  EXPECT_EQ(supported_tail(100), 0.9);
  EXPECT_EQ(supported_tail(999), 0.9);
  EXPECT_EQ(supported_tail(1000), 0.99);
  EXPECT_EQ(supported_tail(9999), 0.99);
  EXPECT_EQ(supported_tail(10000), 0.999);
  EXPECT_EQ(supported_tail(100000), 0.9999);
  EXPECT_EQ(supported_tail(5'000'000), 0.9999);
}

TEST(Schedule, SameSeedSameArrivals) {
  Schedule a(42, 20000, 0.9, 1024, 0.99), b(42, 20000, 0.9, 1024, 0.99);
  Schedule c(43, 20000, 0.9, 1024, 0.99);
  int differ = 0;
  for (int i = 0; i < 10000; ++i) {
    Arrival x = a.next(), y = b.next(), z = c.next();
    ASSERT_EQ(x.gap_ns, y.gap_ns);
    ASSERT_EQ(x.read, y.read);
    ASSERT_EQ(x.key, y.key);
    differ += x.gap_ns != z.gap_ns || x.key != z.key;
  }
  EXPECT_GT(differ, 9000);
}

TEST(Schedule, RateMixAndSkewMatchTheSpec) {
  Schedule s(7, 20000, 0.9, 1024, 0.99);
  const int n = 200000;
  double total_ns = 0;
  int reads = 0, hottest = 0;
  for (int i = 0; i < n; ++i) {
    Arrival a = s.next();
    ASSERT_LT(a.key, 1024u);
    total_ns += static_cast<double>(a.gap_ns);
    reads += a.read;
    hottest += a.key == 0;
  }
  EXPECT_NEAR(total_ns / n, 50'000, 500);  // 20k/s -> 50 µs mean gap
  EXPECT_NEAR(static_cast<double>(reads) / n, 0.9, 0.005);
  // Zipf(0.99) over 1024 keys puts ~13% of draws on the hottest key.
  EXPECT_NEAR(static_cast<double>(hottest) / n, 0.133, 0.01);

  Schedule u(7, 1, 0.0, 64, 0.0);
  std::vector<int> hits(64, 0);
  for (int i = 0; i < 64000; ++i) {
    Arrival a = u.next();
    EXPECT_FALSE(a.read);
    ++hits[a.key];
  }
  for (int h : hits) EXPECT_NEAR(h, 1000, 150);
}

TEST(Values, RoundTripAndRejectTampering) {
  for (size_t size : {size_t{24}, size_t{1000}, size_t{1} << 20}) {
    rspaxos::Bytes v = make_value(17, 123456, size);
    auto id = parse_value(v, size);
    ASSERT_TRUE(id.has_value());
    EXPECT_EQ(id->key, 17u);
    EXPECT_EQ(id->seq, 123456u);
    v[v.size() - 1] ^= 1;
    EXPECT_FALSE(parse_value(v, size).has_value());
  }
  rspaxos::Bytes v = make_value(1, 2, 64);
  EXPECT_FALSE(parse_value(v, 65).has_value());
  EXPECT_NE(make_value(1, 2, 64), make_value(1, 3, 64));
  EXPECT_NE(make_value(1, 2, 64), make_value(2, 2, 64));
}

TEST(ReadChecker, RejectsStaleAndForeignValues) {
  ReadChecker c(4);
  uint64_t w1 = c.begin_write(0, 10);
  c.end_write(w1, 20);
  int64_t floor_before_w2 = c.read_floor(0);
  uint64_t w2 = c.begin_write(0, 30);
  c.end_write(w2, 40);
  rspaxos::Bytes v1 = make_value(0, w1, 32), v2 = make_value(0, w2, 32);
  // A read invoked after w2 was acknowledged must see w2.
  EXPECT_FALSE(c.allowed(v1, 32, 0, c.read_floor(0)));
  EXPECT_TRUE(c.allowed(v2, 32, 0, c.read_floor(0)));
  // A read invoked before w2 completed may see either.
  EXPECT_TRUE(c.allowed(v1, 32, 0, floor_before_w2));
  EXPECT_TRUE(c.allowed(v2, 32, 0, floor_before_w2));
  // Overlapping writes: either may be the final value.
  uint64_t a = c.begin_write(1, 50), b = c.begin_write(1, 51);
  c.end_write(b, 60);
  c.end_write(a, 61);
  EXPECT_TRUE(c.allowed(make_value(1, a, 32), 32, 1, c.read_floor(1)));
  EXPECT_TRUE(c.allowed(make_value(1, b, 32), 32, 1, c.read_floor(1)));
  // Another key's value, a write never issued, and a torn value all fail.
  EXPECT_FALSE(c.allowed(v2, 32, 1, c.read_floor(1)));
  EXPECT_FALSE(c.allowed(make_value(0, 99, 32), 32, 0, c.read_floor(0)));
  rspaxos::Bytes torn = v2;
  torn[20] ^= 0xff;
  EXPECT_FALSE(c.allowed(torn, 32, 0, c.read_floor(0)));
}

}  // namespace
}  // namespace rsbench
