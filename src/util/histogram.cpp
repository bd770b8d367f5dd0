#include "util/histogram.h"

#include <algorithm>
#include <bit>
#include <cstdio>

namespace rspaxos {

int Histogram::bucket_index(int64_t v) {
  if (v < 0) v = 0;
  uint64_t u = static_cast<uint64_t>(v);
  if (u < kSubBuckets) return static_cast<int>(u);
  // Values with MSB at position m >= kSubBucketBits keep their top
  // kSubBucketBits bits as the sub-bucket; octave o = m - kSubBucketBits + 1
  // (indices 0..kSubBuckets-1 form "octave 0", exact small values).
  int msb = 63 - std::countl_zero(u);
  int shift = msb - kSubBucketBits;
  int sub = static_cast<int>(u >> shift) & (kSubBuckets - 1);
  return (shift + 1) * kSubBuckets + sub;
}

int64_t Histogram::bucket_lower(int index) {
  if (index < kSubBuckets) return index;
  int octave = index / kSubBuckets;
  int sub = index % kSubBuckets;
  // Reconstruct: value had MSB at position (octave + kSubBucketBits - 1) and
  // the next bits equal to sub. Buckets tile the axis, so bucket i's upper
  // edge is bucket_lower(i + 1).
  return (static_cast<int64_t>(kSubBuckets) | sub) << (octave - 1);
}

void Histogram::record(int64_t value) {
  size_t idx = std::min(static_cast<size_t>(bucket_index(value)), kBuckets - 1);
  if (idx >= buckets_.size()) buckets_.resize((idx / kSubBuckets + 1) * kSubBuckets, 0);
  buckets_[idx]++;
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  count_++;
  sum_ += static_cast<double>(value);
}

void Histogram::merge(const Histogram& other) {
  if (other.buckets_.size() > buckets_.size()) buckets_.resize(other.buckets_.size(), 0);
  for (size_t i = 0; i < other.buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  if (other.count_) {
    if (count_ == 0) {
      min_ = other.min_;
      max_ = other.max_;
    } else {
      min_ = std::min(min_, other.min_);
      max_ = std::max(max_, other.max_);
    }
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

void Histogram::clear() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = 0;
  min_ = max_ = 0;
}

int64_t Histogram::value_at(double q) const {
  if (count_ == 0) return 0;
  // Exact at the extremes: bucket midpoints approximate interior quantiles,
  // but q=0 and q=1 must return the true observed min/max.
  if (q <= 0.0) return min_;
  if (q >= 1.0) return max_;
  uint64_t target = static_cast<uint64_t>(q * static_cast<double>(count_ - 1)) + 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) continue;
    uint64_t before = seen;
    seen += buckets_[i];
    if (seen >= target) {
      int64_t lo = bucket_lower(static_cast<int>(i));
      // The terminal bucket also absorbs clamped out-of-range records, and
      // bucket_lower(kBuckets) would shift past 2^63 — its real upper edge
      // is the observed max. The allocated prefix may end earlier; its last
      // bucket is not terminal.
      int64_t hi = i + 1 == kBuckets ? max_ : bucket_lower(static_cast<int>(i) + 1);
      // Linear interpolation by mid-rank within the bucket: ranks spread
      // uniformly across [lo, hi), so an exact-valued bucket never reports
      // its upper edge.
      double frac = (static_cast<double>(target - before) - 0.5) /
                    static_cast<double>(buckets_[i]);
      int64_t v = lo + static_cast<int64_t>(frac * static_cast<double>(hi - lo));
      return std::clamp(v, min_, max_);
    }
  }
  return max_;
}

std::string Histogram::summary() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "n=%llu mean=%.1f p50=%lld p99=%lld max=%lld",
                static_cast<unsigned long long>(count_), mean(),
                static_cast<long long>(value_at(0.5)),
                static_cast<long long>(value_at(0.99)),
                static_cast<long long>(max()));
  return buf;
}

}  // namespace rspaxos
