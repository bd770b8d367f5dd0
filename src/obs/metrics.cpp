#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>

#include "util/logging.h"

namespace rspaxos::obs {
namespace {

/// Escapes a Prometheus label value / JSON string body (same escape set).
std::string escaped(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

/// HELP text escaping per the exposition format: only backslash and newline
/// (quotes stay raw on HELP lines, unlike label values).
std::string help_escaped(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string label_block(const std::vector<std::string>& names,
                        const std::vector<std::string>& values,
                        const std::string& extra = {}) {
  if (names.empty() && extra.empty()) return {};
  std::string out = "{";
  for (size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out += ',';
    out += names[i] + "=\"" + escaped(values[i]) + "\"";
  }
  if (!extra.empty()) {
    if (!names.empty()) out += ',';
    out += extra;
  }
  out += '}';
  return out;
}

std::string json_labels(const std::vector<std::string>& names,
                        const std::vector<std::string>& values) {
  std::string out = "{";
  for (size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out += ',';
    out += "\"" + escaped(names[i]) + "\":\"" + escaped(values[i]) + "\"";
  }
  out += '}';
  return out;
}

std::string num(double v) {
  char buf[48];
  // Integral values print without a fraction so counter output stays exact.
  if (v == static_cast<double>(static_cast<long long>(v))) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.6g", v);
  }
  return buf;
}

constexpr double kQuantiles[] = {0.5, 0.9, 0.99};

/// Naming convention: rsp_<subsystem>_<name>[_total|_us|_bytes], charset
/// [a-zA-Z0-9_]. Out-of-convention names are sanitized (bad chars -> '_',
/// missing prefix prepended) with a one-time warning, so a typo'd metric
/// still exports instead of corrupting the exposition format.
std::string sanitized_name(const std::string& name) {
  std::string out;
  out.reserve(name.size() + 4);
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  if (out.rfind("rsp_", 0) != 0) out = "rsp_" + out;
  if (out != name) {
    RSP_WARN << "metric name '" << name << "' violates the rsp_ naming convention; "
             << "registered as '" << out << "'";
  }
  return out;
}

}  // namespace

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* r = new MetricsRegistry();  // leaked: outlives flusher threads
  return *r;
}

template <typename T>
Family<T>& MetricsRegistry::family_in(std::map<std::string, std::unique_ptr<Family<T>>>& m,
                                      Kind kind, const std::string& name,
                                      const std::string& help,
                                      std::vector<std::string>&& label_names) {
  std::string reg_name = sanitized_name(name);
  std::lock_guard<std::mutex> lk(mu_);
  auto it = m.find(reg_name);
  if (it == m.end()) {
    it = m.emplace(reg_name,
                   std::make_unique<Family<T>>(reg_name, help, std::move(label_names)))
             .first;
    order_.emplace_back(kind, reg_name);
  }
  return *it->second;
}

Family<Counter>& MetricsRegistry::counter_family(const std::string& name,
                                                 const std::string& help,
                                                 std::vector<std::string> label_names) {
  return family_in(counters_, Kind::kCounter, name, help, std::move(label_names));
}

Family<Gauge>& MetricsRegistry::gauge_family(const std::string& name, const std::string& help,
                                             std::vector<std::string> label_names) {
  return family_in(gauges_, Kind::kGauge, name, help, std::move(label_names));
}

Family<HistogramMetric>& MetricsRegistry::histogram_family(
    const std::string& name, const std::string& help, std::vector<std::string> label_names) {
  return family_in(histograms_, Kind::kHistogram, name, help, std::move(label_names));
}

uint64_t MetricsRegistry::counter_sum(
    const std::string& name,
    const std::vector<std::pair<std::string, std::string>>& match) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) return 0;
  const Family<Counter>& f = *it->second;
  const std::vector<std::string>& names = f.label_names();
  // Resolve each wanted label to its position in the family's tuple.
  std::vector<std::pair<size_t, const std::string*>> want;
  for (const auto& [label, value] : match) {
    auto pos = std::find(names.begin(), names.end(), label);
    if (pos == names.end()) return 0;
    want.emplace_back(static_cast<size_t>(pos - names.begin()), &value);
  }
  uint64_t sum = 0;
  f.for_each([&](const std::vector<std::string>& values, const Counter& c) {
    for (const auto& [i, value] : want) {
      if (values[i] != *value) return;
    }
    sum += c.value();
  });
  return sum;
}

std::string MetricsRegistry::to_prometheus() const {
  std::vector<std::pair<Kind, std::string>> order;
  {
    std::lock_guard<std::mutex> lk(mu_);
    order = order_;
  }
  std::string out;
  for (const auto& [kind, name] : order) {
    std::lock_guard<std::mutex> lk(mu_);
    switch (kind) {
      case Kind::kCounter: {
        const Family<Counter>& f = *counters_.at(name);
        out += "# HELP " + f.name() + " " + help_escaped(f.help()) + "\n";
        out += "# TYPE " + f.name() + " counter\n";
        f.for_each([&](const std::vector<std::string>& values, const Counter& c) {
          out += f.name() + label_block(f.label_names(), values) + " " +
                 std::to_string(c.value()) + "\n";
        });
        break;
      }
      case Kind::kGauge: {
        const Family<Gauge>& f = *gauges_.at(name);
        out += "# HELP " + f.name() + " " + help_escaped(f.help()) + "\n";
        out += "# TYPE " + f.name() + " gauge\n";
        f.for_each([&](const std::vector<std::string>& values, const Gauge& g) {
          out += f.name() + label_block(f.label_names(), values) + " " +
                 std::to_string(g.value()) + "\n";
        });
        break;
      }
      case Kind::kHistogram: {
        const Family<HistogramMetric>& f = *histograms_.at(name);
        out += "# HELP " + f.name() + " " + help_escaped(f.help()) + "\n";
        out += "# TYPE " + f.name() + " summary\n";
        f.for_each([&](const std::vector<std::string>& values, const HistogramMetric& hm) {
          Histogram h = hm.snapshot();
          for (double q : kQuantiles) {
            out += f.name() +
                   label_block(f.label_names(), values, "quantile=\"" + num(q) + "\"") + " " +
                   std::to_string(h.value_at(q)) + "\n";
          }
          out += f.name() + "_sum" + label_block(f.label_names(), values) + " " +
                 num(h.sum()) + "\n";
          out += f.name() + "_count" + label_block(f.label_names(), values) + " " +
                 std::to_string(h.count()) + "\n";
        });
        break;
      }
    }
  }
  return out;
}

std::string MetricsRegistry::to_json() const {
  std::vector<std::pair<Kind, std::string>> order;
  {
    std::lock_guard<std::mutex> lk(mu_);
    order = order_;
  }
  std::string counters = "{", gauges = "{", histograms = "{";
  bool first_c = true, first_g = true, first_h = true;
  for (const auto& [kind, name] : order) {
    std::lock_guard<std::mutex> lk(mu_);
    switch (kind) {
      case Kind::kCounter: {
        const Family<Counter>& f = *counters_.at(name);
        if (!first_c) counters += ',';
        first_c = false;
        counters += "\"" + escaped(f.name()) + "\":[";
        bool first = true;
        f.for_each([&](const std::vector<std::string>& values, const Counter& c) {
          if (!first) counters += ',';
          first = false;
          counters += "{\"labels\":" + json_labels(f.label_names(), values) +
                      ",\"value\":" + std::to_string(c.value()) + "}";
        });
        counters += ']';
        break;
      }
      case Kind::kGauge: {
        const Family<Gauge>& f = *gauges_.at(name);
        if (!first_g) gauges += ',';
        first_g = false;
        gauges += "\"" + escaped(f.name()) + "\":[";
        bool first = true;
        f.for_each([&](const std::vector<std::string>& values, const Gauge& g) {
          if (!first) gauges += ',';
          first = false;
          gauges += "{\"labels\":" + json_labels(f.label_names(), values) +
                    ",\"value\":" + std::to_string(g.value()) + "}";
        });
        gauges += ']';
        break;
      }
      case Kind::kHistogram: {
        const Family<HistogramMetric>& f = *histograms_.at(name);
        if (!first_h) histograms += ',';
        first_h = false;
        histograms += "\"" + escaped(f.name()) + "\":[";
        bool first = true;
        f.for_each([&](const std::vector<std::string>& values, const HistogramMetric& hm) {
          Histogram h = hm.snapshot();
          if (!first) histograms += ',';
          first = false;
          histograms += "{\"labels\":" + json_labels(f.label_names(), values) +
                       ",\"count\":" + std::to_string(h.count()) +
                       ",\"sum\":" + num(h.sum()) +
                       ",\"min\":" + std::to_string(h.min()) +
                       ",\"max\":" + std::to_string(h.max()) +
                       ",\"mean\":" + num(h.mean()) +
                       ",\"p50\":" + std::to_string(h.value_at(0.5)) +
                       ",\"p90\":" + std::to_string(h.value_at(0.9)) +
                       ",\"p99\":" + std::to_string(h.value_at(0.99)) + "}";
        });
        histograms += ']';
        break;
      }
    }
  }
  counters += '}';
  gauges += '}';
  histograms += '}';
  return "{\"counters\":" + counters + ",\"gauges\":" + gauges +
         ",\"histograms\":" + histograms + "}";
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& [name, f] : counters_) f->reset();
  for (auto& [name, f] : gauges_) f->reset();
  for (auto& [name, f] : histograms_) f->reset();
}

}  // namespace rspaxos::obs
