// Log-bucketed latency histogram (HdrHistogram-style, fixed precision).
//
// Benchmarks record per-request latencies here and report avg / percentiles
// exactly as the paper's figures do.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace rspaxos {

/// Records int64 values (microseconds in practice) into logarithmic buckets
/// with ~1% relative error; O(1) record, O(buckets) percentile queries.
/// Buckets are allocated only up to the highest octave recorded, so an empty
/// histogram costs no bucket memory and one of millisecond latencies (in
/// microseconds) a few KiB instead of 29 KiB.
class Histogram {
 public:
  Histogram() = default;

  void record(int64_t value);
  void merge(const Histogram& other);
  void clear();

  uint64_t count() const { return count_; }
  int64_t min() const { return count_ ? min_ : 0; }
  int64_t max() const { return count_ ? max_ : 0; }
  double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }
  double sum() const { return sum_; }

  /// Value at quantile q in [0,1]; e.g. value_at(0.99) is p99.
  int64_t value_at(double q) const;

  /// One-line summary (count/mean/p50/p99/max) for bench output.
  std::string summary() const;

  /// Buckets allocated so far (whole octaves up to the highest recorded).
  size_t allocated_buckets() const { return buckets_.size(); }
  /// Allocates every bucket now rather than on first use. Every result is
  /// the same either way; tests use it to compare the two layouts.
  void allocate_all_buckets() { buckets_.resize(kBuckets, 0); }

 private:
  static constexpr int kSubBucketBits = 6;  // 64 sub-buckets per octave
  static constexpr int kSubBuckets = 1 << kSubBucketBits;
  static constexpr int kOctaves = 58;       // covers up to ~2^63
  static constexpr size_t kBuckets = static_cast<size_t>(kOctaves) * kSubBuckets;

  static int bucket_index(int64_t v);
  static int64_t bucket_lower(int index);

  // Prefix of the kBuckets logical buckets, whole octaves at a time; the
  // buckets past its end are all zero.
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  double sum_ = 0;
  int64_t min_ = 0;
  int64_t max_ = 0;
};

}  // namespace rspaxos
