// Pieces of the repository benchmark that do not need a cluster, kept in one
// header so the self-tests can check them directly:
//   * Prometheus-text parsing and per-window deltas of registry series;
//   * percentiles over raw samples, with the sample-count rule for tails;
//   * the seeded arrival schedule (Poisson gaps, op kind, key draws);
//   * self-describing values that name their key and sequence number;
//   * the read-back checker that rejects stale reads.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/bytes.h"
#include "util/rng.h"

namespace rsbench {

// ---------------------------------------------------------------------------
// Registry series

/// One scrape of the registry's Prometheus text: series key (metric name plus
/// its label block exactly as exported, e.g. `rsp_net_bytes_sent{node="2",
/// msg="ACCEPT"}`) to value. Comment and blank lines are skipped.
using Scrape = std::map<std::string, double>;

inline Scrape parse_prometheus(std::string_view text) {
  Scrape out;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line.front() == '#') continue;
    // The value follows the last space outside the label block; label values
    // may themselves hold spaces, so find the block's closing brace first.
    size_t key_end = line.find('{');
    if (key_end != std::string_view::npos) {
      bool quoted = false;
      size_t i = key_end + 1;
      for (; i < line.size(); ++i) {
        char c = line[i];
        if (quoted && c == '\\') {
          ++i;
        } else if (c == '"') {
          quoted = !quoted;
        } else if (!quoted && c == '}') {
          break;
        }
      }
      if (i >= line.size()) continue;  // unterminated label block
      key_end = i + 1;
    } else {
      key_end = line.find(' ');
      if (key_end == std::string_view::npos) continue;
    }
    std::string value(line.substr(key_end));
    char* end = nullptr;
    double v = std::strtod(value.c_str(), &end);
    if (end == value.c_str()) continue;
    out[std::string(line.substr(0, key_end))] = v;
  }
  return out;
}

/// Metric name of a series key (the part before the label block).
inline std::string_view series_name(std::string_view key) {
  return key.substr(0, key.find('{'));
}

/// Value of label `label` in a series key, or nullopt when absent.
inline std::optional<std::string> series_label(std::string_view key, std::string_view label) {
  size_t open = key.find('{');
  if (open == std::string_view::npos) return std::nullopt;
  size_t i = open + 1;
  while (i < key.size() && key[i] != '}') {
    size_t eq = key.find('=', i);
    if (eq == std::string_view::npos || eq + 1 >= key.size() || key[eq + 1] != '"') {
      return std::nullopt;
    }
    std::string_view name = key.substr(i, eq - i);
    std::string value;
    size_t j = eq + 2;
    for (; j < key.size() && key[j] != '"'; ++j) {
      if (key[j] == '\\' && j + 1 < key.size()) {
        ++j;
        value += key[j] == 'n' ? '\n' : key[j];
      } else {
        value += key[j];
      }
    }
    if (name == label) return value;
    i = j + 1;
    if (i < key.size() && key[i] == ',') ++i;
  }
  return std::nullopt;
}

/// after - before per series. A series missing from `before` was created
/// inside the window and counts from zero.
inline Scrape scrape_delta(const Scrape& after, const Scrape& before) {
  Scrape out;
  for (const auto& [key, v] : after) {
    auto it = before.find(key);
    out[key] = v - (it == before.end() ? 0.0 : it->second);
  }
  return out;
}

/// Sum over every series of metric `name`, optionally only those whose label
/// `label` equals `value`.
inline double scrape_sum(const Scrape& s, std::string_view name, std::string_view label = {},
                         std::string_view value = {}) {
  double sum = 0;
  for (const auto& [key, v] : s) {
    if (series_name(key) != name) continue;
    if (!label.empty() && series_label(key, label) != std::string(value)) continue;
    sum += v;
  }
  return sum;
}

/// Largest value over the series of metric `name` (gauges read at one point).
inline double scrape_max(const Scrape& s, std::string_view name) {
  double best = 0;
  for (const auto& [key, v] : s) {
    if (series_name(key) == name) best = std::max(best, v);
  }
  return best;
}

// ---------------------------------------------------------------------------
// Percentiles

/// Nearest-rank quantile of unsorted samples (reorders them). 0 when empty.
inline double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  size_t idx = rank == 0 ? 0 : std::min(rank - 1, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx), v.end());
  return v[idx];
}

/// The highest of p90, p99, p99.9 and p99.99 that has at least ten samples
/// beyond it in `n` samples; 0 when even p90 has fewer (n < 100). Tails
/// quoted past this point rest on a handful of samples.
inline double supported_tail(size_t n) {
  double best = 0;
  for (double q : {0.9, 0.99, 0.999, 0.9999}) {
    // Compare in whole samples: n * (1 - q) >= 10 without rounding error.
    double beyond = std::floor(static_cast<double>(n) * (1.0 - q) + 1e-9);
    if (beyond >= 10) best = q;
  }
  return best;
}

// ---------------------------------------------------------------------------
// Arrival schedule

struct Arrival {
  int64_t gap_ns = 0;  // time since the previous arrival (open loop only)
  bool read = false;
  uint32_t key = 0;
};

/// Deterministic stream of arrivals from one seed: exponential gaps at `qps`,
/// a read with probability `read_ratio`, and a key uniform or Zipf(s) over
/// [0, key_space) with key 0 the hottest. Closed loops use only the keys.
class Schedule {
 public:
  Schedule(uint64_t seed, double qps, double read_ratio, uint32_t key_space, double zipf_s)
      : rng_(seed), mean_gap_ns_(1e9 / qps), read_ratio_(read_ratio), key_space_(key_space) {
    if (zipf_s > 0 && key_space > 1) {
      cdf_.resize(key_space);
      double sum = 0;
      for (uint32_t r = 0; r < key_space; ++r) {
        sum += 1.0 / std::pow(static_cast<double>(r + 1), zipf_s);
        cdf_[r] = sum;
      }
      for (double& c : cdf_) c /= sum;
    }
  }

  Arrival next() {
    Arrival a;
    a.gap_ns = static_cast<int64_t>(rng_.exponential(mean_gap_ns_));
    a.read = rng_.next_double() < read_ratio_;
    if (cdf_.empty()) {
      a.key = static_cast<uint32_t>(rng_.next_below(key_space_));
    } else {
      auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng_.next_double());
      if (it == cdf_.end()) --it;
      a.key = static_cast<uint32_t>(it - cdf_.begin());
    }
    return a;
  }

 private:
  rspaxos::Rng rng_;
  double mean_gap_ns_;
  double read_ratio_;
  uint32_t key_space_;
  std::vector<double> cdf_;  // Zipf CDF over ranks; empty = uniform
};

// ---------------------------------------------------------------------------
// Values

/// Values carry a 16-byte header (magic, key, sequence number) and a body
/// drawn from a generator seeded by both, so a read proves which write it
/// returns and a torn or mixed-up value fails the body check.
inline constexpr uint32_t kValueMagic = 0x52534256;  // "RSBV"
inline constexpr size_t kValueHeader = 16;

inline uint64_t body_word(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

inline void fill_body(uint8_t* dst, size_t n, uint32_t key, uint64_t seq) {
  uint64_t state = (seq << 20) ^ key;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t w = body_word(state);
    std::memcpy(dst + i, &w, 8);
  }
  if (i < n) {
    uint64_t w = body_word(state);
    std::memcpy(dst + i, &w, n - i);
  }
}

/// The value write `seq` stores under key `key`; `size` >= kValueHeader.
inline rspaxos::Bytes make_value(uint32_t key, uint64_t seq, size_t size) {
  rspaxos::Bytes v(std::max(size, kValueHeader));
  std::memcpy(v.data(), &kValueMagic, 4);
  std::memcpy(v.data() + 4, &key, 4);
  std::memcpy(v.data() + 8, &seq, 8);
  fill_body(v.data() + kValueHeader, v.size() - kValueHeader, key, seq);
  return v;
}

struct ValueId {
  uint32_t key = 0;
  uint64_t seq = 0;
};

/// Which write produced `v`, or nullopt when `v` is not a whole, intact value
/// of `size` bytes.
inline std::optional<ValueId> parse_value(rspaxos::BytesView v, size_t size) {
  if (v.size() != std::max(size, kValueHeader)) return std::nullopt;
  uint32_t magic = 0;
  ValueId id;
  std::memcpy(&magic, v.data(), 4);
  std::memcpy(&id.key, v.data() + 4, 4);
  std::memcpy(&id.seq, v.data() + 8, 8);
  if (magic != kValueMagic) return std::nullopt;
  std::vector<uint8_t> body(v.size() - kValueHeader);
  fill_body(body.data(), body.size(), id.key, id.seq);
  if (!std::equal(body.begin(), body.end(), v.begin() + kValueHeader)) return std::nullopt;
  return id;
}

// ---------------------------------------------------------------------------
// Read checking

/// Tracks every write's invocation and response time and decides whether a
/// read's result is allowed. Write P may be returned by read R unless some
/// write Q to the same key responded before R was invoked and was itself
/// invoked after P responded: then Q strictly follows P and R strictly
/// follows Q, so P is stale. Times are one monotonic clock in ns.
class ReadChecker {
 public:
  explicit ReadChecker(uint32_t key_space) : floor_(key_space, -1) {}

  /// A new write to `key`; returns its sequence number.
  uint64_t begin_write(uint32_t key, int64_t now_ns) {
    writes_.push_back(Write{key, now_ns, -1});
    return writes_.size() - 1;
  }
  /// Write `seq` was acknowledged.
  void end_write(uint64_t seq, int64_t now_ns) {
    Write& w = writes_[seq];
    w.resp_ns = now_ns;
    floor_[w.key] = std::max(floor_[w.key], w.inv_ns);
  }
  /// What a read of `key` invoked now must not be older than; pass it back
  /// to allowed() when the read completes.
  int64_t read_floor(uint32_t key) const { return floor_[key]; }

  /// True iff `v` (of `size` bytes) is a value a read of `key` invoked at
  /// floor `floor_ns` may return.
  bool allowed(rspaxos::BytesView v, size_t size, uint32_t key, int64_t floor_ns) const {
    std::optional<ValueId> id = parse_value(v, size);
    if (!id || id->key != key || id->seq >= writes_.size()) return false;
    const Write& w = writes_[id->seq];
    if (w.key != key) return false;
    return w.resp_ns < 0 || w.resp_ns >= floor_ns;
  }

  uint64_t writes() const { return writes_.size(); }

 private:
  struct Write {
    uint32_t key;
    int64_t inv_ns;
    int64_t resp_ns;  // -1 while unacknowledged
  };
  std::vector<Write> writes_;   // indexed by sequence number
  std::vector<int64_t> floor_;  // per key: latest invocation among acked writes
};

}  // namespace rsbench
