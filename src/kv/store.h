// Local per-replica value table (§4.1's "persistent storage space").
//
// Durability comes from the RS-Paxos write-ahead log, so the table itself is
// an in-memory structure ("writes to local storage do not have to flush to
// disks, because we already have a persistent write ahead log" §4.4).
// Leader rows hold the complete value; follower rows hold only that
// replica's coded share and are tagged incomplete (§4.4 Write).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "util/bytes.h"

namespace rspaxos::kv {

class LocalStore {
 public:
  struct Record {
    /// The full value, or this replica's share of the instance payload.
    const Bytes& data() const { return share ? *share : value; }

    Bytes value;                         // complete rows
    std::shared_ptr<const Bytes> share;  // share rows: one per instance, shared by its keys
    bool complete = false;   // §4.4: followers "tag this value as incomplete"
    uint64_t full_len = 0;   // total length of the instance payload
    uint64_t slot = 0;       // log slot of the last write (recovery read key)
    // The key's value inside the decoded instance payload. For unbatched
    // writes this is [0, full_len); batched instances (Op::kBatch) pack
    // several values into one payload and each key records its slice.
    uint64_t slice_off = 0;
    uint64_t slice_len = 0;
  };

  /// Stores the complete value (leader path / post-recovery).
  void put_complete(const std::string& key, Bytes value, uint64_t slot);

  /// Stores this replica's share of the instance payload (follower path).
  /// slice_off/slice_len locate the key's value in the decoded payload; pass
  /// 0/payload_len for unbatched writes. Every key of one batched instance
  /// holds the same share buffer, so a batch of b keys keeps one share, not
  /// b copies of it.
  void put_share(const std::string& key, std::shared_ptr<const Bytes> share,
                 uint64_t payload_len, uint64_t slot, uint64_t slice_off, uint64_t slice_len);

  void erase(const std::string& key);

  const Record* find(const std::string& key) const;

  size_t size() const { return table_.size(); }
  /// Total bytes of every row's data() — the paper's storage-cost metric.
  /// A share held by several keys of one batch counts once per key.
  uint64_t resident_bytes() const { return resident_bytes_; }
  uint64_t incomplete_count() const { return incomplete_; }

  /// Iterates all records (used by view-change re-encode sweeps).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& [k, r] : table_) fn(k, r);
  }

 private:
  std::map<std::string, Record> table_;
  uint64_t resident_bytes_ = 0;
  uint64_t incomplete_ = 0;
};

}  // namespace rspaxos::kv
