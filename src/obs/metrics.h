// Unified metrics registry — the single source of truth for every cost and
// latency number the paper's evaluation is built on (network bytes, durable
// bytes, per-phase commit latency; §6, Figs. 5-8, Table 1).
//
// Design:
//   * Named *families* of counters / gauges / log-bucketed histograms with a
//     fixed label set (e.g. rsp_net_bytes_sent{node="2",msg="ACCEPT"}).
//   * Hot paths never touch the registry: they cache the handle returned by
//     Family::with() once and then record through it — one relaxed atomic op
//     for counters/gauges, one short critical section for histograms.
//   * Exporters to Prometheus text format and JSON, deterministic ordering
//     (family insertion order, label values sorted) so tests can golden-match.
//   * Metric naming convention: rsp_<subsystem>_<name>[_total|_us|_bytes].
//
// Thread safety: family creation and child lookup are mutex-guarded; handles
// are stable pointers for the registry's lifetime (children are never
// destroyed, only reset), so cached handles stay valid across reset().
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/histogram.h"

namespace rspaxos::obs {

/// Monotonically increasing event/byte count. O(1) relaxed atomic add.
class Counter {
 public:
  void inc(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// Point-in-time level (queue depths, cache sizes).
class Gauge {
 public:
  void set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Thread-safe wrapper over the log-bucketed util Histogram.
class HistogramMetric {
 public:
  void observe(int64_t v) {
    std::lock_guard<std::mutex> lk(mu_);
    h_.record(v);
  }
  /// Folds an externally accumulated histogram in (sliding-window flushes,
  /// cross-shard rollups) without per-sample lock traffic.
  void merge(const Histogram& other) {
    std::lock_guard<std::mutex> lk(mu_);
    h_.merge(other);
  }
  /// Consistent copy for export / percentile queries.
  Histogram snapshot() const {
    std::lock_guard<std::mutex> lk(mu_);
    return h_;
  }
  uint64_t count() const {
    std::lock_guard<std::mutex> lk(mu_);
    return h_.count();
  }
  void reset() {
    std::lock_guard<std::mutex> lk(mu_);
    h_.clear();
  }

 private:
  mutable std::mutex mu_;
  Histogram h_;
};

/// A named family of metrics sharing one label set. `with()` returns the
/// child for one label-value tuple, creating it on first use; the returned
/// reference is stable for the registry's lifetime — cache it on hot paths.
template <typename T>
class Family {
 public:
  Family(std::string name, std::string help, std::vector<std::string> label_names)
      : name_(std::move(name)), help_(std::move(help)), label_names_(std::move(label_names)) {}

  T& with(std::vector<std::string> label_values) {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = children_.find(label_values);
    if (it == children_.end()) {
      it = children_.emplace(std::move(label_values), std::make_unique<T>()).first;
    }
    return *it->second;
  }

  const std::string& name() const { return name_; }
  const std::string& help() const { return help_; }
  const std::vector<std::string>& label_names() const { return label_names_; }

  /// Visits children in sorted label order (deterministic export).
  void for_each(const std::function<void(const std::vector<std::string>&, const T&)>& fn) const {
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& [labels, child] : children_) fn(labels, *child);
  }

  void reset() {
    std::lock_guard<std::mutex> lk(mu_);
    for (auto& [labels, child] : children_) child->reset();
  }

 private:
  std::string name_;
  std::string help_;
  std::vector<std::string> label_names_;
  mutable std::mutex mu_;
  // Children are never erased, so T* handles handed out by with() are stable.
  std::map<std::vector<std::string>, std::unique_ptr<T>> children_;
};

/// The registry: owns families, exports snapshots. One process-wide instance
/// (global()) serves all subsystems; tests may build private registries.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Process-wide registry (leaked singleton: usable from any thread,
  /// including detached flusher threads during shutdown).
  static MetricsRegistry& global();

  Family<Counter>& counter_family(const std::string& name, const std::string& help,
                                  std::vector<std::string> label_names = {});
  Family<Gauge>& gauge_family(const std::string& name, const std::string& help,
                              std::vector<std::string> label_names = {});
  Family<HistogramMetric>& histogram_family(const std::string& name, const std::string& help,
                                            std::vector<std::string> label_names = {});

  /// Label-less shortcuts.
  Counter& counter(const std::string& name, const std::string& help) {
    return counter_family(name, help).with({});
  }
  Gauge& gauge(const std::string& name, const std::string& help) {
    return gauge_family(name, help).with({});
  }
  HistogramMetric& histogram(const std::string& name, const std::string& help) {
    return histogram_family(name, help).with({});
  }

  /// Sum of the children of counter family `name` whose labels contain every
  /// (label, value) pair of `match` (empty: the whole family). 0 for an
  /// unknown family, label or value. Read-only: never registers a family or
  /// child, so exports are unaffected. Counters are process-wide and shared
  /// by every instance with the same labels, so callers that care about one
  /// run read a delta against a baseline taken before it.
  uint64_t counter_sum(const std::string& name,
                       const std::vector<std::pair<std::string, std::string>>& match = {}) const;

  /// Prometheus text exposition format. Histograms export as summaries
  /// (quantile label) plus _sum/_count.
  std::string to_prometheus() const;
  /// JSON snapshot: {"counters":{name:[{labels,value}...]},...}.
  std::string to_json() const;

  /// Zeroes every metric (families and handles survive). Benchmarks call
  /// this between cells so snapshots cover exactly one run.
  void reset();

 private:
  enum class Kind { kCounter, kGauge, kHistogram };

  template <typename T>
  Family<T>& family_in(std::map<std::string, std::unique_ptr<Family<T>>>& m, Kind kind,
                       const std::string& name, const std::string& help,
                       std::vector<std::string>&& label_names);

  mutable std::mutex mu_;
  std::vector<std::pair<Kind, std::string>> order_;  // insertion order for export
  std::map<std::string, std::unique_ptr<Family<Counter>>> counters_;
  std::map<std::string, std::unique_ptr<Family<Gauge>>> gauges_;
  std::map<std::string, std::unique_ptr<Family<HistogramMetric>>> histograms_;
};

}  // namespace rspaxos::obs
