#include "storage/wal.h"

#include "obs/metrics.h"

namespace rspaxos::storage {

WalMetrics& WalMetrics::get() {
  static WalMetrics* m = [] {
    auto& reg = obs::MetricsRegistry::global();
    auto* w = new WalMetrics();
    w->bytes_durable =
        &reg.counter("rsp_wal_bytes_durable", "Framed WAL bytes written and fsynced");
    w->flushes = &reg.counter("rsp_wal_flush_total", "Group-commit flush operations");
    w->truncated = &reg.counter("rsp_wal_truncated_bytes",
                                "Durable WAL bytes reclaimed by prefix truncation");
    w->truncates = &reg.counter("rsp_wal_truncate_total", "WAL prefix truncation operations");
    w->fsync_us =
        &reg.histogram("rsp_wal_fsync_us", "Write+fsync latency per group-commit batch");
    w->batch_records =
        &reg.histogram("rsp_wal_batch_records", "Records coalesced per group-commit batch");
    return w;
  }();
  return *m;
}

Wal* MuxWal::group(uint32_t g) {
  if (g >= num_groups()) return nullptr;
  if (views_.size() < num_groups()) views_.resize(num_groups());
  if (!views_[g]) views_[g] = std::make_unique<GroupWalView>(this, g);
  return views_[g].get();
}

void MemWal::append(Bytes record, DurableFn cb) {
  bytes_ += record.size();
  records_.push_back(std::move(record));
  if (cb) cb(Status::ok());
}

void MemWal::truncate_prefix(std::vector<Bytes> head, TruncateFn cb) {
  uint64_t reclaimed = 0;
  for (const Bytes& r : records_) reclaimed += r.size();
  truncated_ += reclaimed;
  records_ = std::move(head);
  bytes_ = 0;
  for (const Bytes& r : records_) bytes_ += r.size();
  if (cb) cb(reclaimed);
}

void MemWal::replay(const std::function<void(BytesView)>& fn) {
  for (const Bytes& r : records_) fn(r);
}

}  // namespace rspaxos::storage
