// Repository benchmark. Runs one workload against an in-process
// five-server RS-Paxos cluster over loopback TCP, checks every value read
// back, and prints the metrics named in BENCHMARK.json.
//
//   rsbench --workload <small_put|large_put|read_mix> --seed <n> --seconds <s>
//           --trace <0|1> --data-root <dir> [--spans-out <file>] [--commit <id>]
//
// The cluster is the paper's §6.1 shape: N=5, f=1, so θ(3,5) with
// QR=QW=4; one group, one reactor per server, fsync'ing FileWals under
// --data-root, checkpoints off. Load comes from one client endpoint whose
// loop thread runs the workload. rsbench measures the program from the
// outside only: it times calls into public functions, wraps the client
// endpoint's message handler, and reads the counters and histograms the
// program exports through obs::MetricsRegistry.
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
// and traced quarters of the window, records its own spans in the
// traced quarters, prints the per-layer metrics and writes the spans to
// --spans-out. The last stdout line is the result object; earlier lines
// state the run conditions and the tail percentiles.
#include <fcntl.h>
#include <pthread.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/statvfs.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_lib.h"
#include "ec/policy.h"
#include "kv/client.h"
#include "node/tcp_cluster.h"
#include "obs/metrics.h"
#include "storage/file_wal.h"
#include "util/io_driver.h"

namespace rsbench {
namespace {

using rspaxos::Bytes;
using rspaxos::BytesView;
using rspaxos::kMillis;
using rspaxos::kSeconds;
using rspaxos::MsgType;
using rspaxos::NodeId;
using rspaxos::Status;
using rspaxos::StatusOr;

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Workloads

struct WorkloadSpec {
  const char* name;
  int closed_inflight;  // > 0: closed loop of puts, this many in flight
  double qps;           // open loop beside it: Poisson arrival rate (ops/s), 0 = none
  double read_ratio;    // open loop: share of arrivals that are lease reads
  size_t value_size;
  uint32_t key_space;
  double zipf_s;        // 0 = uniform keys
  double max_put_rate;  // puts/s bound used to project WAL bytes for a run
};

// Why each exists is recorded in BENCHMARK.json and README.md. large_put is
// an open loop of puts at a low fixed rate: a closed loop of 1 MiB puts wrote
// ~350 MB/s of WAL, and the host's write-back of it slowed whatever ran in
// the following minute. It has no reads, so its cost per op does not depend
// on how a seed splits the few hundred ops of a window between puts and gets.
constexpr WorkloadSpec kWorkloads[] = {
    {"small_put", 64, 0, 0.0, 1024, 1024, 0.0, 100000},
    {"large_put", 0, 20, 0.0, 1u << 20, 64, 0.0, 30},
    {"read_mix", 0, 20000, 0.9, 4096, 1024, 0.99, 3000},
};

constexpr int kServers = 5;
constexpr int kF = 1;
constexpr double kX = kServers - 2 * kF;  // θ(X, N) data shares
constexpr int kSetups = 21;               // setup_s is the median of these
constexpr int64_t kNs = 1'000'000'000;
constexpr int64_t kWarmupNs = kNs;
constexpr int kTraceQuarters = 4;     // --trace 1: untraced, traced, untraced, traced
constexpr int kPreloadInflight = 64;
constexpr int kProbeReps = 64;
constexpr double kTheoryNetPerValueByte = 1.0 + (kServers - 1) / kX;  // §3.2
constexpr double kTheoryWalPerValueByte = kServers / kX;

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string key_name(uint32_t k) { return "k-" + std::to_string(k); }

/// CPU time (µs) every thread of the process has used so far.
double process_cpu_us() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e6 +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

// ---------------------------------------------------------------------------
// Data directory hygiene

/// Blocks SIGINT/SIGTERM in every thread and waits for them on its own
/// thread, which removes the run's data directory and exits. Construct it
/// before any other thread starts so every thread inherits the mask.
class SignalCleanup {
 public:
  explicit SignalCleanup(fs::path dir) : dir_(std::move(dir)) {
    sigemptyset(&set_);
    sigaddset(&set_, SIGINT);
    sigaddset(&set_, SIGTERM);
    sigaddset(&set_, SIGUSR1);  // normal shutdown of the waiter
    pthread_sigmask(SIG_BLOCK, &set_, nullptr);
    thread_ = std::thread([this] {
      int sig = 0;
      sigwait(&set_, &sig);
      if (sig == SIGUSR1) return;
      std::error_code ec;
      fs::remove_all(dir_, ec);
      std::fprintf(stderr, "rsbench: signal %d, removed %s\n", sig, dir_.c_str());
      std::_Exit(128 + sig);
    });
  }
  ~SignalCleanup() {
    pthread_kill(thread_.native_handle(), SIGUSR1);
    thread_.join();
  }
  SignalCleanup(const SignalCleanup&) = delete;
  SignalCleanup& operator=(const SignalCleanup&) = delete;

 private:
  fs::path dir_;
  sigset_t set_{};
  std::thread thread_;
};

/// Removes `dir` and waits until the filesystem has committed the removal,
/// so freeing (and discarding) gigabytes of WAL is paid by this run, not by
/// whatever runs next on the same disk.
void remove_data(const fs::path& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  int fd = ::open(dir.parent_path().c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::syncfs(fd);
    ::close(fd);
  }
}

/// Removes `run-<pid>` directories left by runs whose process is gone.
void clear_stale_runs(const fs::path& root) {
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(root, ec)) {
    std::string name = e.path().filename().string();
    if (name.rfind("run-", 0) != 0) continue;
    long pid = std::strtol(name.c_str() + 4, nullptr, 10);
    if (pid <= 0 || (::kill(static_cast<pid_t>(pid), 0) != 0 && errno == ESRCH)) {
      std::fprintf(stderr, "rsbench: removing stale %s\n", e.path().c_str());
      remove_data(e.path());
    }
  }
}

std::string fs_type(const fs::path& p) {
  struct statfs s {};
  if (::statfs(p.c_str(), &s) != 0) return "unknown";
  switch (static_cast<unsigned long>(s.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794c7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx", static_cast<unsigned long>(s.f_type));
      return buf;
    }
  }
}

// ---------------------------------------------------------------------------
// Spans

/// rsbench's own spans, kept in memory and written when the run ends.
/// Spans of one client op share its op id; ids are indices + 1 (0 = none).
/// Loop thread only, apart from the probes which run after the load.
class SpanLog {
 public:
  struct Span {
    uint64_t op;
    uint32_t parent;
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
  };

  bool enabled = false;     // inside a traced quarter
  uint32_t open_reply = 0;  // reply span currently open on the loop

  uint32_t open(const char* name, uint64_t op, uint32_t parent, int64_t start_ns) {
    spans_.push_back(Span{op, parent, name, start_ns, -1});
    return static_cast<uint32_t>(spans_.size());
  }
  void close(uint32_t id, int64_t end_ns) { spans_[id - 1].end_ns = end_ns; }
  Span& at(uint32_t id) { return spans_[id - 1]; }

  /// Self time (µs) of every closed span named `name`: its duration minus
  /// that of its direct children.
  std::vector<double> self_us(const char* name) const {
    std::vector<int64_t> child_ns(spans_.size() + 1, 0);
    for (const Span& s : spans_) {
      if (s.parent != 0 && s.end_ns >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    std::vector<double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.end_ns < 0 || std::string_view(s.name) != name) continue;
      out.push_back(static_cast<double>(s.end_ns - s.start_ns - child_ns[i + 1]) / 1e3);
    }
    return out;
  }

  bool write_csv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "span,parent,op,name,start_ns,dur_ns\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu,%u,%llu,%s,%lld,%lld\n", i + 1, s.parent,
                   static_cast<unsigned long long>(s.op), s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns < 0 ? -1 : s.end_ns - s.start_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
};

/// The client endpoint's handler: forwards to the KvClient and, in traced
/// quarters, records a span around each delivery.
class TimedClientHandler final : public rspaxos::MessageHandler {
 public:
  TimedClientHandler(rspaxos::kv::KvClient* client, SpanLog* spans)
      : client_(client), spans_(spans) {}

  void on_message(NodeId from, MsgType type, BytesView payload) override {
    if (!spans_->enabled) {
      client_->on_message(from, type, payload);
      return;
    }
    uint32_t id = spans_->open("kv.client.on_message", 0, 0, now_ns());
    spans_->open_reply = id;
    client_->on_message(from, type, payload);
    spans_->open_reply = 0;
    spans_->close(id, now_ns());
  }

 private:
  rspaxos::kv::KvClient* client_;
  SpanLog* spans_;
};

// ---------------------------------------------------------------------------
// Cluster

/// Runs `fn` on the node's loop thread and waits for it.
void on_loop(rspaxos::net::TcpNode* node, const std::function<void()>& fn) {
  std::promise<void> done;
  auto fut = done.get_future();
  node->loop().post([&] {
    fn();
    done.set_value();
  });
  fut.wait();
}

rspaxos::consensus::ReplicaOptions replica_options() {
  rspaxos::consensus::ReplicaOptions o;
  o.heartbeat_interval = 30 * kMillis;
  o.election_timeout_min = 400 * kMillis;
  o.election_timeout_max = 800 * kMillis;
  o.lease_duration = 300 * kMillis;
  o.max_clock_drift = 20 * kMillis;
  // Loss-free loopback: retransmission is insurance only, and a short fuse
  // would duplicate multi-MB accepts behind a slow fsync.
  o.retransmit_interval = 2000 * kMillis;
  // Without these bounds the share cache grows with every large put.
  o.payload_cache_slots = 4;
  o.share_cache_slots = 4;
  o.checkpoint_interval_slots = 0;
  return o;
}

class Cluster {
 public:
  ~Cluster() {
    if (client_) {
      rspaxos::kv::KvClient* c = client_.get();
      on_loop(cnode_, [c] { c->cancel_all(Status::timeout("rsbench teardown")); });
      cnode_->set_handler(nullptr);
    }
    client_.reset();
    if (cluster_) drain_wals();
    cluster_.reset();
  }

  static StatusOr<std::unique_ptr<Cluster>> start(const fs::path& dir, SpanLog* spans) {
    auto c = std::unique_ptr<Cluster>(new Cluster());
    rspaxos::node::TcpClusterOptions o;
    o.num_servers = kServers;
    o.num_groups = 1;
    o.reactors = 1;
    o.rs_mode = true;
    o.f = kF;
    o.num_clients = 1;
    o.data_dir = dir.string();
    o.replica = replica_options();
    o.kv.batch_window = 200;  // µs of write batching, as bench_saturation
    auto started = rspaxos::node::TcpCluster::start(o);
    if (!started.is_ok()) return started.status();
    c->cluster_ = std::move(started).value();

    int64_t deadline = now_ns() + 30 * kNs;
    while (c->cluster_->leader_server_of(0) < 0 && now_ns() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (c->cluster_->leader_server_of(0) < 0) return Status::unavailable("no leader in 30 s");

    auto node = c->cluster_->start_client();
    if (!node.is_ok()) return node.status();
    c->cnode_ = node.value();
    rspaxos::kv::KvClient::Options copts;
    copts.request_timeout = 5 * kSeconds;
    copts.max_attempts = 1000;
    copts.max_inflight = 1024;
    c->client_ =
        std::make_unique<rspaxos::kv::KvClient>(c->cnode_, c->cluster_->routing(), copts);
    c->handler_ = std::make_unique<TimedClientHandler>(c->client_.get(), spans);
    rspaxos::net::TcpNode* n = c->cnode_;
    TimedClientHandler* h = c->handler_.get();
    on_loop(n, [n, h] { n->set_handler(h); });
    return c;
  }

  rspaxos::net::TcpNode* node() { return cnode_; }
  rspaxos::kv::KvClient* client() { return client_.get(); }

 private:
  Cluster() = default;

  /// ~TcpCluster frees the transport's nodes before the WALs, so a WAL append
  /// that completes in between posts its continuation onto a freed node (seen
  /// as a use-after-free when a loaded host delays a follower's fsync past
  /// the end of the run). Stops message delivery so that no new appends are
  /// made, then waits for one marker append per WAL: a FileWal completes
  /// appends in order, so every earlier append has completed by then.
  void drain_wals() {
    for (int s = 0; s < kServers; ++s) {
      cluster_->host(s).stop();
      on_loop(cluster_->endpoint(s, 0), [] {});  // a delivery under way ends
    }
    for (int s = 0; s < kServers; ++s) {
      std::promise<void> durable;
      auto fut = durable.get_future();
      cluster_->wal(s).append(Bytes(1, 0), [&durable](Status) { durable.set_value(); });
      fut.wait();
    }
  }

  std::unique_ptr<rspaxos::node::TcpCluster> cluster_;
  rspaxos::net::TcpNode* cnode_ = nullptr;
  std::unique_ptr<rspaxos::kv::KvClient> client_;
  std::unique_ptr<TimedClientHandler> handler_;
};

// ---------------------------------------------------------------------------
// Load

struct OpStats {
  std::vector<double> put_ns, get_ns, delay_ns;  // CO-safe response times
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t puts_ok = 0;
  uint64_t gets_ok = 0;
  uint64_t put_bytes = 0;
};

/// One workload's op stream, run on the client loop. `bounds` are the
/// measured sub-window edges (ns): ops intended before bounds[0] are warm-up,
/// ops intended in [bounds[i], bounds[i+1]) belong to quarter i, and nothing
/// is issued from bounds.back() on. Ops of traced quarters land in stats[1]
/// and get spans; all others in stats[0].
class Load {
 public:
  Load(const WorkloadSpec& w, uint64_t seed, rspaxos::net::TcpNode* node,
       rspaxos::kv::KvClient* client, ReadChecker* checker, SpanLog* spans,
       std::vector<int64_t> bounds, bool traced)
      : w_(w),
        open_(seed, w.qps > 0 ? w.qps : 1.0, w.read_ratio, w.key_space, w.zipf_s),
        closed_(seed ^ 0x5851f42d4c957f2dULL, 1.0, 0.0, w.key_space, w.zipf_s),
        node_(node),
        client_(client),
        checker_(checker),
        spans_(spans),
        bounds_(std::move(bounds)),
        traced_(traced) {}

  void start() {
    for (int i = 0; i < w_.closed_inflight; ++i) next_closed();
    if (w_.qps <= 0) return;
    next_arrival_ns_ = now_ns() + open_.next().gap_ns;
    pumping_ = true;
    pump();
  }

  /// True once nothing more will be issued and every op has resolved.
  bool idle() const { return now_ns() >= bounds_.back() && !pumping_ && inflight_ == 0; }
  OpStats stats[2];
  /// What each second of the window committed, by the ops' intended start.
  struct Second {
    double puts = 0;
    std::vector<double> put_ns, get_ns;
  };
  std::vector<Second> seconds;

 private:
  struct Op {
    uint64_t id;
    uint32_t key;
    bool read;
    int64_t intended_ns;
    int64_t actual_ns;
    uint64_t seq;       // write: its sequence number
    int64_t floor_ns;   // read: staleness floor at invocation
    uint32_t span;      // root span (0 = untraced)
  };

  int quarter_of(int64_t t) const {
    if (t < bounds_.front()) return -1;
    for (size_t i = 1; i < bounds_.size(); ++i) {
      if (t < bounds_[i]) return static_cast<int>(i - 1);
    }
    return static_cast<int>(bounds_.size()) - 1;
  }
  bool traced_quarter(int q) const { return traced_ && q >= 0 && q % 2 == 1; }
  /// Sets SpanLog::enabled for whatever runs on the loop now.
  void update_tracing() {
    int q = quarter_of(now_ns());
    spans_->enabled = traced_quarter(q) && q < static_cast<int>(bounds_.size()) - 1;
  }

  void next_closed() {
    update_tracing();
    int64_t now = now_ns();
    if (now >= bounds_.back()) return;
    Arrival a = closed_.next();
    Op op{};
    op.key = a.key;
    op.seq = checker_->begin_write(a.key, now);
    Bytes value = make_value(a.key, op.seq, w_.value_size);
    // Closed loop: the op is due once its value exists.
    op.intended_ns = now_ns();
    submit(op, std::move(value));
  }

  void pump() {
    update_tracing();
    int64_t now = now_ns();
    // Issue every arrival that is due; latency counts from its scheduled
    // time, so a loop stall is charged to every op due during it.
    while (next_arrival_ns_ <= now && next_arrival_ns_ < bounds_.back()) {
      Arrival a = open_.next();
      Op op{};
      op.key = a.key;
      op.read = a.read;
      op.intended_ns = next_arrival_ns_;
      Bytes value;
      if (op.read) {
        op.floor_ns = checker_->read_floor(a.key);
      } else {
        op.seq = checker_->begin_write(a.key, now_ns());
        value = make_value(a.key, op.seq, w_.value_size);
      }
      submit(op, std::move(value));
      next_arrival_ns_ += a.gap_ns + 1;
      now = now_ns();
    }
    if (next_arrival_ns_ >= bounds_.back()) {
      pumping_ = false;
      spans_->enabled = false;
      return;
    }
    int64_t wait_us = (next_arrival_ns_ - now) / 1000;
    node_->set_timer(wait_us > 0 ? wait_us : 1, [this] { pump(); });
  }

  void submit(Op op, Bytes value) {
    op.id = ++next_id_;
    op.actual_ns = now_ns();
    int q = quarter_of(op.intended_ns);
    if (traced_quarter(q) && q < static_cast<int>(bounds_.size()) - 1) {
      op.span = spans_->open(op.read ? "op.get" : "op.put", op.id, 0, op.actual_ns);
    }
    ++inflight_;
    if (op.read) {
      client_->get(key_name(op.key),
                   [this, op](StatusOr<Bytes> r) { on_get_done(op, std::move(r)); });
    } else {
      client_->put(key_name(op.key), std::move(value),
                   [this, op](Status s) { on_put_done(op, s); });
    }
  }

  Second& second_of(int64_t intended_ns) {
    size_t i = static_cast<size_t>((intended_ns - bounds_.front()) / kNs);
    if (seconds.size() <= i) seconds.resize(i + 1);
    return seconds[i];
  }

  /// Common completion bookkeeping; returns the stats slot or nullptr for
  /// warm-up ops, and opens the callback span when traced.
  OpStats* complete(const Op& op, int64_t end_ns, uint32_t* cb_span) {
    --inflight_;
    *cb_span = 0;
    if (op.span != 0) {
      spans_->close(op.span, end_ns);
      if (spans_->open_reply != 0) {
        SpanLog::Span& reply = spans_->at(spans_->open_reply);
        reply.op = op.id;
        reply.parent = op.span;
        *cb_span = spans_->open("bench.callback", op.id, spans_->open_reply, end_ns);
      }
    }
    int q = quarter_of(op.intended_ns);
    if (q < 0 || q >= static_cast<int>(bounds_.size()) - 1) return nullptr;
    OpStats* s = &stats[traced_quarter(q) ? 1 : 0];
    ++s->attempted;
    s->delay_ns.push_back(static_cast<double>(op.actual_ns - op.intended_ns));
    return s;
  }

  void on_put_done(const Op& op, const Status& st) {
    int64_t end = now_ns();
    if (st.is_ok()) checker_->end_write(op.seq, end);
    uint32_t cb = 0;
    if (OpStats* s = complete(op, end, &cb)) {
      if (st.is_ok()) {
        double ns = static_cast<double>(end - op.intended_ns);
        Second& sec = second_of(op.intended_ns);
        ++sec.puts;
        sec.put_ns.push_back(ns);
        ++s->puts_ok;
        s->put_bytes += w_.value_size;
        s->put_ns.push_back(ns);
      } else {
        ++s->failed;
        std::fprintf(stderr, "rsbench: put %s failed: %s\n", key_name(op.key).c_str(),
                     st.to_string().c_str());
      }
    }
    if (w_.closed_inflight > 0) next_closed();
    if (cb != 0) spans_->close(cb, now_ns());
  }

  void on_get_done(const Op& op, StatusOr<Bytes> r) {
    int64_t end = now_ns();
    uint32_t cb = 0;
    OpStats* s = complete(op, end, &cb);
    bool ok = r.is_ok() && checker_->allowed(r.value(), w_.value_size, op.key, op.floor_ns);
    if (s != nullptr) {
      if (ok) {
        double ns = static_cast<double>(end - op.intended_ns);
        second_of(op.intended_ns).get_ns.push_back(ns);
        ++s->gets_ok;
        s->get_ns.push_back(ns);
      } else {
        ++s->failed;
        std::fprintf(stderr, "rsbench: get %s %s\n", key_name(op.key).c_str(),
                     r.is_ok() ? "returned a value it must not" : r.status().to_string().c_str());
      }
    }
    if (cb != 0) spans_->close(cb, now_ns());
  }

  const WorkloadSpec& w_;
  Schedule open_;
  Schedule closed_;  // key draws of the closed loop
  rspaxos::net::TcpNode* node_;
  rspaxos::kv::KvClient* client_;
  ReadChecker* checker_;
  SpanLog* spans_;
  std::vector<int64_t> bounds_;
  bool traced_;
  int64_t next_arrival_ns_ = 0;
  uint64_t next_id_ = 0;
  uint64_t inflight_ = 0;
  bool pumping_ = false;  // the open loop's timer is armed
};

/// Writes (preload) or consistent-reads (read-back) every key once, with
/// `inflight` ops outstanding, on the client loop. Read-back compares each
/// value with what the checker allows after all writes are acknowledged.
class KeySweep {
 public:
  KeySweep(const WorkloadSpec& w, rspaxos::kv::KvClient* client, ReadChecker* checker,
           bool write, int inflight)
      : w_(w), client_(client), checker_(checker), write_(write), inflight_(inflight) {}

  void start() {
    for (int i = 0; i < inflight_; ++i) next();
  }
  /// Ready once every key has resolved; set on the client loop.
  std::future<void> done() { return done_.get_future(); }
  std::vector<double> lat_ns;
  uint64_t failed = 0;

 private:
  void next() {
    if (issued_ == w_.key_space) return;
    uint32_t key = issued_++;
    int64_t start = now_ns();
    if (write_) {
      uint64_t seq = checker_->begin_write(key, start);
      client_->put(key_name(key), make_value(key, seq, w_.value_size),
                   [this, key, seq, start](Status s) {
                     int64_t end = now_ns();
                     if (s.is_ok()) {
                       checker_->end_write(seq, end);
                     } else {
                       ++failed;
                       std::fprintf(stderr, "rsbench: preload %s: %s\n",
                                    key_name(key).c_str(), s.to_string().c_str());
                     }
                     resolve(start, end);
                   });
      return;
    }
    int64_t floor = checker_->read_floor(key);
    client_->consistent_get(key_name(key), [this, key, start, floor](StatusOr<Bytes> r) {
      int64_t end = now_ns();
      if (!r.is_ok() || !checker_->allowed(r.value(), w_.value_size, key, floor)) {
        ++failed;
        std::fprintf(stderr, "rsbench: read-back of %s %s\n", key_name(key).c_str(),
                     r.is_ok() ? "does not match the last acknowledged write"
                               : r.status().to_string().c_str());
      }
      resolve(start, end);
    });
  }

  void resolve(int64_t start, int64_t end) {
    lat_ns.push_back(static_cast<double>(end - start));
    ++resolved_;
    if (resolved_ < w_.key_space) {
      next();
    } else {
      done_.set_value();
    }
  }

  const WorkloadSpec& w_;
  rspaxos::kv::KvClient* client_;
  ReadChecker* checker_;
  bool write_;
  int inflight_;
  uint32_t issued_ = 0;
  uint32_t resolved_ = 0;
  std::promise<void> done_;
};

/// Fails every op still outstanding, so no callback outlives its owner.
void cancel_client(Cluster& c) {
  rspaxos::kv::KvClient* client = c.client();
  on_loop(c.node(), [client] { client->cancel_all(Status::timeout("rsbench abort")); });
}

/// Runs a KeySweep to completion; false on a 120 s timeout.
bool run_sweep(Cluster& c, KeySweep& sweep) {
  std::future<void> done = sweep.done();
  on_loop(c.node(), [&] { sweep.start(); });
  if (done.wait_for(std::chrono::seconds(120)) == std::future_status::ready) {
    // The caller may destroy the sweep once the callback that signalled has
    // returned; this empty task runs after it on the loop.
    on_loop(c.node(), [] {});
    return true;
  }
  cancel_client(c);
  return false;
}

// ---------------------------------------------------------------------------
// Registry reads

/// Histogram families whose window p50 the traced run reports.
constexpr const char* kHistFamilies[] = {
    "rsp_commit_quorum_wait_us", "rsp_commit_total_us", "rsp_commit_apply_us",
    "rsp_ec_encode_us",          "rsp_wal_fsync_us",
};

rspaxos::obs::Family<rspaxos::obs::HistogramMetric>& hist_family(const char* name) {
  return rspaxos::obs::MetricsRegistry::global().histogram_family(name, name);
}

/// Accumulates registry counters, histograms, CPU time and client stats over
/// a set of sub-windows: begin() and end() bracket each one.
class WindowReads {
 public:
  void begin(rspaxos::net::TcpNode* node, rspaxos::kv::KvClient* client) {
    for (const char* f : kHistFamilies) hist_family(f).reset();
    start_ = read(node, client);
  }
  void end(rspaxos::net::TcpNode* node, rspaxos::kv::KvClient* client) {
    Point p = read(node, client);
    for (const auto& [k, v] : scrape_delta(p.scrape, start_.scrape)) counters[k] += v;
    cpu_us += p.cpu_us - start_.cpu_us;
    timeouts += p.timeouts - start_.timeouts;
    for (const char* f : kHistFamilies) {
      hist_family(f).for_each([&](const std::vector<std::string>&,
                                  const rspaxos::obs::HistogramMetric& h) {
        hists[f].merge(h.snapshot());
      });
    }
    last = p.scrape;
  }
  double p50(const char* family) {
    auto it = hists.find(family);
    return it == hists.end() || it->second.count() == 0
               ? 0.0
               : static_cast<double>(it->second.value_at(0.5));
  }

  Scrape counters;  // summed deltas
  Scrape last;      // scrape at the last end()
  std::map<std::string, rspaxos::Histogram> hists;
  double cpu_us = 0;
  uint64_t timeouts = 0;

 private:
  struct Point {
    Scrape scrape;
    double cpu_us = 0;
    uint64_t timeouts = 0;
  };
  static Point read(rspaxos::net::TcpNode* node, rspaxos::kv::KvClient* client) {
    Point p;
    p.scrape = parse_prometheus(rspaxos::obs::MetricsRegistry::global().to_prometheus());
    p.cpu_us = process_cpu_us();
    on_loop(node, [&] { p.timeouts = client->stats().timeouts; });
    return p;
  }
  Point start_;
};

/// Bytes sent on the write path: everything except client replies, which
/// carry read values back and are no part of replication.
double replication_bytes(const Scrape& s) {
  return scrape_sum(s, "rsp_net_bytes_sent") -
         scrape_sum(s, "rsp_net_bytes_sent", "msg", "CLIENT_REPLY");
}

// ---------------------------------------------------------------------------
// Probes: single calls into one layer, timed by rsbench.

double probe_encode_us(const WorkloadSpec& w, SpanLog& spans) {
  const auto& policy = rspaxos::ec::PolicyCache::get(rspaxos::ec::CodeId::kRs,
                                                     static_cast<int>(kX), kServers);
  Bytes payload = make_value(0, 0, w.value_size);
  std::vector<double> us;
  for (int i = 0; i < kProbeReps; ++i) {
    int64_t t0 = now_ns();
    uint32_t id = spans.open("ec.probe_encode", 0, 0, t0);
    std::vector<Bytes> shares = policy.encode(payload);
    int64_t t1 = now_ns();
    spans.close(id, t1);
    if (shares.size() != static_cast<size_t>(kServers)) return -1;
    us.push_back(static_cast<double>(t1 - t0) / 1e3);
  }
  return quantile(us, 0.5);
}

double probe_append_us(const fs::path& dir, size_t record_bytes, SpanLog& spans) {
  auto wal = rspaxos::storage::FileWal::open((dir / "wal").string());
  if (!wal.is_ok()) return -1;
  std::vector<double> us;
  for (int i = 0; i < kProbeReps; ++i) {
    std::promise<Status> durable;
    auto fut = durable.get_future();
    int64_t t0 = now_ns();
    uint32_t id = spans.open("storage.probe_append", 0, 0, t0);
    wal.value()->append(Bytes(std::max<size_t>(record_bytes, 1), 0x5a),
                        [&durable](Status s) { durable.set_value(s); });
    Status s = fut.get();
    int64_t t1 = now_ns();
    spans.close(id, t1);
    if (!s.is_ok()) return -1;
    us.push_back(static_cast<double>(t1 - t0) / 1e3);
  }
  return quantile(us, 0.5);
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, uint64_t attempted, uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.12g", metrics[i].value);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

/// p50 and the highest supported tail of one latency series, in ms.
void print_tail(const char* what, std::vector<double> ns) {
  double q = supported_tail(ns.size());
  double p50 = quantile(ns, 0.5) / 1e6;
  double tail = q > 0 ? quantile(ns, q) / 1e6 : 0;
  std::printf("{\"latency\": \"%s\", \"samples\": %zu, \"p50_ms\": %.6g, \"tail_q\": %g, "
              "\"tail_ms\": %.6g}\n",
              what, ns.size(), p50, q, tail);
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string data_root;
  std::string spans_out;
  std::string commit = "unknown";
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a->seconds = std::atoi(v.c_str());
    else if (k == "--trace") a->trace = v == "1";
    else if (k == "--data-root") a->data_root = v;
    else if (k == "--spans-out") a->spans_out = v;
    else if (k == "--commit") a->commit = v;
    else return false;
  }
  return argc % 2 == 1 && !a->workload.empty() && !a->data_root.empty() && a->seconds > 0;
}

double peak_rss_mb() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024 / 1e6;
}

/// Refuses builds whose numbers would not describe the shipped code.
const char* build_refusal() {
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
  return "unoptimised build (need -O2 or higher and NDEBUG)";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#else
  return nullptr;
#endif
}

int run(const Args& args, const WorkloadSpec& w, const fs::path& dir) {
  SpanLog spans;
  std::unique_ptr<Cluster> cluster;

  // Set-up: cluster start, first leader and the client connected. It is
  // measured in process CPU time, which a busy host moves far less than wall
  // time (README.md, "Set-up time"); the wall time is printed beside it.
  std::vector<double> setup_cpu_s, setup_wall_s;
  auto set_up = [&]() {
    cluster.reset();
    remove_data(dir / "cluster");
    int64_t t0 = now_ns();
    double cpu0 = process_cpu_us();
    auto started = Cluster::start(dir / "cluster", &spans);
    if (!started.is_ok()) {
      std::fprintf(stderr, "rsbench: cluster start: %s\n", started.status().to_string().c_str());
      return false;
    }
    cluster = std::move(started).value();
    setup_cpu_s.push_back((process_cpu_us() - cpu0) / 1e6);
    setup_wall_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    return true;
  };
  // Every set-up starts from the same state of the process: none follows a
  // measured window. The last cluster set up is the one measured. The traced
  // run reports no set-up time and sets up once.
  for (int i = 0; i < (args.trace ? 1 : kSetups); ++i) {
    if (!set_up()) return 1;
  }
  // Every key gets a value before the window, so reads never miss.
  ReadChecker checker(w.key_space);
  {
    KeySweep preload(w, cluster->client(), &checker, /*write=*/true, kPreloadInflight);
    if (!run_sweep(*cluster, preload) || preload.failed != 0) {
      std::fprintf(stderr, "rsbench: preload failed\n");
      return 1;
    }
  }

  // Measured window: warm-up, then `seconds` split into quarters when traced.
  int64_t start = now_ns();
  std::vector<int64_t> bounds;
  int64_t window_ns = static_cast<int64_t>(args.seconds) * kNs;
  int parts = args.trace ? kTraceQuarters : 1;
  for (int i = 0; i <= parts; ++i) bounds.push_back(start + kWarmupNs + window_ns * i / parts);

  auto load = std::make_unique<Load>(w, args.seed, cluster->node(), cluster->client(), &checker,
                                     &spans, bounds, args.trace);
  rspaxos::net::TcpNode* node = cluster->node();
  rspaxos::kv::KvClient* client = cluster->client();
  Load* l = load.get();
  on_loop(node, [l] { l->start(); });

  WindowReads whole, traced;  // whole = all quarters; traced = odd quarters
  for (int i = 0; i <= parts; ++i) {
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(bounds[static_cast<size_t>(i)])));
    if (i == 0) whole.begin(node, client);
    if (args.trace && i % 2 == 1) traced.begin(node, client);
    if (args.trace && i % 2 == 0 && i > 0) traced.end(node, client);
  }
  int64_t drain_deadline = now_ns() + 60 * kNs;
  bool idle = false;
  while (!idle && now_ns() < drain_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    on_loop(node, [&] { idle = l->idle(); });
  }
  if (!idle) {
    std::fprintf(stderr, "rsbench: ops still in flight 60 s after the window\n");
    cancel_client(*cluster);
    return 1;
  }
  whole.end(node, client);

  KeySweep readback(w, client, &checker, /*write=*/false, 1);
  bool readback_done = run_sweep(*cluster, readback);
  Scrape final_scrape = parse_prometheus(rspaxos::obs::MetricsRegistry::global().to_prometheus());

  double rss_mb = peak_rss_mb();
  cluster.reset();

  // Elections and drops count from the window's start through read-back.
  Scrape tail = scrape_delta(final_scrape, whole.last);
  double elections = scrape_sum(whole.counters, "rsp_consensus_elections_started_total") +
                     scrape_sum(tail, "rsp_consensus_elections_started_total");
  double drops = scrape_sum(whole.counters, "rsp_net_send_drops_total") +
                 scrape_sum(tail, "rsp_net_send_drops_total");

  OpStats all = load->stats[0];
  {
    const OpStats& t = load->stats[1];
    all.put_ns.insert(all.put_ns.end(), t.put_ns.begin(), t.put_ns.end());
    all.get_ns.insert(all.get_ns.end(), t.get_ns.begin(), t.get_ns.end());
    all.attempted += t.attempted;
    all.failed += t.failed;
    all.puts_ok += t.puts_ok;
    all.gets_ok += t.gets_ok;
    all.put_bytes += t.put_bytes;
  }
  uint64_t readback_failed = readback.failed + (readback_done ? 0 : 1);
  uint64_t attempted = all.attempted + w.key_space;
  uint64_t failed = all.failed + readback_failed;

  // §3.2 cost claim: every committed value byte costs 1 + (N-1)/X bytes of
  // replication traffic and N/X bytes of WAL. It is checked where values
  // are large enough for headers to vanish (large_put).
  double vbytes = static_cast<double>(all.put_bytes);
  double net_ratio = replication_bytes(whole.counters) / vbytes;
  double wal_ratio = scrape_sum(whole.counters, "rsp_wal_bytes_durable") / vbytes;
  bool cost_checked = w.value_size >= (64u << 10);
  bool cost_ok = !cost_checked ||
                 (std::abs(net_ratio / kTheoryNetPerValueByte - 1) <= 0.01 &&
                  std::abs(wal_ratio / kTheoryWalPerValueByte - 1) <= 0.01);
  std::printf("{\"cost\": {\"net_bytes_per_value_byte\": %.6f, \"theory_net\": %.6f, "
              "\"wal_bytes_per_value_byte\": %.6f, \"theory_wal\": %.6f, \"checked\": %s}}\n",
              net_ratio, kTheoryNetPerValueByte, wal_ratio, kTheoryWalPerValueByte,
              cost_checked ? "true" : "false");

  bool correct = failed == 0 && elections == 0 && drops == 0 && cost_ok && readback_done;
  if (elections != 0) std::fprintf(stderr, "rsbench: %g elections during the run\n", elections);
  if (drops != 0) std::fprintf(stderr, "rsbench: %g frames dropped by the transport\n", drops);
  if (!cost_ok) std::fprintf(stderr, "rsbench: network or WAL bytes off the 1/X theory\n");

  // Per-second figures, for judging a run's steadiness by eye.
  std::string puts, put_us, get_us;
  for (Load::Second sec : load->seconds) {
    const char* sep = puts.empty() ? "" : ", ";
    puts += sep + std::to_string(static_cast<uint64_t>(sec.puts));
    put_us += sep + std::to_string(static_cast<uint64_t>(quantile(sec.put_ns, 0.5) / 1e3));
    get_us += sep + std::to_string(static_cast<uint64_t>(quantile(sec.get_ns, 0.5) / 1e3));
  }
  std::printf("{\"per_second\": {\"puts\": [%s], \"put_p50_us\": [%s], \"get_p50_us\": [%s]}}\n",
              puts.c_str(), put_us.c_str(), get_us.c_str());
  print_tail("put", all.put_ns);
  print_tail("get", all.get_ns);
  print_tail("readback", readback.lat_ns);
  std::printf("{\"setup\": {\"count\": %zu, \"cpu_s_p50\": %.6g, \"wall_s_p50\": %.6g}}\n",
              setup_cpu_s.size(), quantile(setup_cpu_s, 0.5), quantile(setup_wall_s, 0.5));

  std::vector<Metric> metrics;
  if (!args.trace) {
    // What a committed op costs the cluster in network and storage bytes:
    // the paper's two cost measures. Timings are printed above but are not
    // metrics: on a shared host, runs of the same code spread too far for a
    // bound (README.md, "Why the metrics are costs").
    double ops = static_cast<double>(all.puts_ok + all.gets_ok);
    metrics = {
        {"net_bytes_per_op", scrape_sum(whole.counters, "rsp_net_bytes_sent") / ops, "B/op"},
        {"wal_bytes_per_put",
         scrape_sum(whole.counters, "rsp_wal_bytes_durable") / static_cast<double>(all.puts_ok),
         "B/op"},
        {"ok_share",
         1.0 - static_cast<double>(failed) / static_cast<double>(attempted), "share"},
        {"setup_s", quantile(setup_cpu_s, 0.5), "s"},
    };
  } else {
    const OpStats& t = load->stats[1];
    const OpStats& u = load->stats[0];
    double ops = static_cast<double>(t.puts_ok + t.gets_ok);
    double tb = static_cast<double>(t.put_bytes);
    const Scrape& d = traced.counters;
    auto per_op = [&](const char* name) { return ops > 0 ? scrape_sum(d, name) / ops : 0.0; };
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    auto all_ns = [](const OpStats& s) {
      std::vector<double> v = s.put_ns;
      v.insert(v.end(), s.get_ns.begin(), s.get_ns.end());
      return v;
    };
    std::vector<double> lat_t = all_ns(t), lat_u = all_ns(u);
    std::vector<double> delay_us = t.delay_ns;
    for (double& x : delay_us) x /= 1e3;
    std::vector<double> reply_us = spans.self_us("kv.client.on_message");

    double enc_us = probe_encode_us(w, spans);
    double wal_records = scrape_sum(d, "rsp_wal_batch_records_sum");
    double record_bytes = ratio(scrape_sum(d, "rsp_wal_bytes_durable"), wal_records);
    double append_us = probe_append_us(dir / "probe", static_cast<size_t>(record_bytes), spans);
    double reads = scrape_sum(d, "rsp_kv_fast_reads_total") +
                   scrape_sum(d, "rsp_kv_consistent_reads_total");
    double untraced_s = args.seconds * 0.5;
    std::vector<double> put_ns = u.put_ns, get_ns = u.get_ns;
    metrics = {
        {"client.put_qps", static_cast<double>(u.puts_ok) / untraced_s, "1/s"},
        {"client.put_p50_ms", quantile(put_ns, 0.5) / 1e6, "ms"},
        {"client.get_p50_ms", quantile(get_ns, 0.5) / 1e6, "ms"},
        {"kv.client.backoffs_per_op", per_op("rsp_client_overload_backoffs_total"), "count/op"},
        {"kv.client.timeouts", static_cast<double>(traced.timeouts), "count"},
        {"kv.client.reply_us_p50", quantile(reply_us, 0.5), "us"},
        {"load.dispatch_delay_us_p50", quantile(delay_us, 0.5), "us"},
        {"kv.server.ops_per_batch",
         ratio(scrape_sum(d, "rsp_kv_puts_total"), scrape_sum(d, "rsp_kv_batches_committed_total")),
         "ops/batch"},
        {"kv.server.shed_per_op", per_op("rsp_admission_shed_total"), "count/op"},
        {"kv.server.fast_read_share", ratio(scrape_sum(d, "rsp_kv_fast_reads_total"), reads),
         "share"},
        {"consensus.accepts_per_op", per_op("rsp_consensus_accepts_sent_total"), "msgs/op"},
        {"consensus.quorum_wait_us_p50", traced.p50("rsp_commit_quorum_wait_us"), "us"},
        {"consensus.commit_us_p50", traced.p50("rsp_commit_total_us"), "us"},
        {"consensus.apply_us_p50", traced.p50("rsp_commit_apply_us"), "us"},
        {"consensus.elections", elections, "count"},
        {"ec.encode_bytes_per_op", per_op("rsp_ec_encode_bytes"), "B/op"},
        {"ec.encode_us_p50", traced.p50("rsp_ec_encode_us"), "us"},
        {"ec.probe_encode_us", enc_us, "us"},
        {"storage.fsyncs_per_op", per_op("rsp_wal_flush_total"), "count/op"},
        {"storage.records_per_fsync", ratio(wal_records, scrape_sum(d, "rsp_wal_flush_total")),
         "records"},
        {"storage.fsync_us_p50", traced.p50("rsp_wal_fsync_us"), "us"},
        {"storage.bytes_per_value_byte", ratio(scrape_sum(d, "rsp_wal_bytes_durable"), tb), "B/B"},
        {"storage.probe_append_us", append_us, "us"},
        {"net.bytes_per_value_byte", ratio(replication_bytes(d), tb), "B/B"},
        {"net.bytes_per_op", per_op("rsp_net_bytes_sent"), "B/op"},
        {"net.msgs_per_op", per_op("rsp_net_msgs_sent"), "msgs/op"},
        {"net.frames_per_writev",
         ratio(scrape_sum(d, "rsp_net_frames_per_writev_sum"),
               scrape_sum(d, "rsp_net_frames_per_writev_count")),
         "frames"},
        {"net.send_drops", drops, "count"},
        {"node.cpu_us_per_op", ratio(traced.cpu_us, ops), "us/op"},
        {"node.loop_lag_us_p99", scrape_max(traced.last, "rsp_health_loop_lag_p99_us"), "us"},
        {"node.peak_rss_mb", rss_mb, "MB"},
        {"trace.overhead_pct", 100.0 * (ratio(quantile(lat_t, 0.5), quantile(lat_u, 0.5)) - 1),
         "%"},
    };
    if (enc_us < 0 || append_us < 0) {
      std::fprintf(stderr, "rsbench: a layer probe failed\n");
      correct = false;
    }
    if (!args.spans_out.empty() && !spans.write_csv(args.spans_out)) {
      std::fprintf(stderr, "rsbench: cannot write %s\n", args.spans_out.c_str());
      correct = false;
    }
  }
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace rsbench

int main(int argc, char** argv) {
  using namespace rsbench;
  if (const char* why = build_refusal()) {
    std::fprintf(stderr, "rsbench: refusing to measure a %s\n", why);
    return 2;
  }
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: rsbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "--data-root <dir> [--spans-out <file>] [--commit <id>]\n");
    return 2;
  }
  const WorkloadSpec* w = nullptr;
  for (const WorkloadSpec& s : kWorkloads) {
    if (args.workload == s.name) w = &s;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "rsbench: unknown workload %s\n", args.workload.c_str());
    return 2;
  }

  fs::path root = fs::absolute(args.data_root);
  std::error_code ec;
  fs::create_directories(root, ec);
  clear_stale_runs(root);
  fs::path dir = root / ("run-" + std::to_string(::getpid()));
  fs::remove_all(dir, ec);
  fs::create_directories(dir / "probe", ec);
  if (ec) {
    std::fprintf(stderr, "rsbench: cannot create %s\n", dir.c_str());
    return 1;
  }

  // Every put writes a share of N/X times its value to WAL across the
  // cluster, and nothing is truncated while checkpoints are off.
  struct statvfs vfs {};
  double projected = (w->max_put_rate * (args.seconds + kWarmupNs / kNs) + w->key_space) *
                     static_cast<double>(w->value_size) * kTheoryWalPerValueByte * 1.1;
  if (::statvfs(dir.c_str(), &vfs) != 0 ||
      static_cast<double>(vfs.f_bavail) * static_cast<double>(vfs.f_frsize) < projected) {
    std::fprintf(stderr, "rsbench: %s lacks room for %.0f MB of projected WAL\n", dir.c_str(),
                 projected / 1e6);
    fs::remove_all(dir, ec);
    return 1;
  }

  std::printf("{\"conditions\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %d, "
              "\"trace\": %d, \"cores\": %u, \"reactors\": 1, \"io_backend\": \"%s\", "
              "\"build_type\": \"%s\", \"commit\": \"%s\", \"data_fs\": \"%s\"}}\n",
              w->name, static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, std::thread::hardware_concurrency(),
              rspaxos::util::io_backend_name(), RSBENCH_BUILD_TYPE, args.commit.c_str(),
              fs_type(dir).c_str());
  std::fflush(stdout);

  int rc = 0;
  {
    SignalCleanup cleanup(dir);
    rc = run(args, *w, dir);
  }
  remove_data(dir);
  return rc;
}
