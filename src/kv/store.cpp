#include "kv/store.h"

namespace rspaxos::kv {

void LocalStore::put_complete(const std::string& key, Bytes value, uint64_t slot) {
  Record& r = table_[key];
  resident_bytes_ -= r.data().size();
  if (!r.complete && !r.data().empty()) incomplete_--;
  r.full_len = value.size();
  r.slice_off = 0;
  r.slice_len = value.size();
  r.value = std::move(value);
  r.share.reset();
  r.complete = true;
  r.slot = slot;
  resident_bytes_ += r.data().size();
}

void LocalStore::put_share(const std::string& key, std::shared_ptr<const Bytes> share,
                           uint64_t payload_len, uint64_t slot, uint64_t slice_off,
                           uint64_t slice_len) {
  Record& r = table_[key];
  resident_bytes_ -= r.data().size();
  if (r.complete || r.data().empty()) incomplete_++;
  r.value = Bytes();
  r.share = std::move(share);
  r.complete = false;
  r.full_len = payload_len;
  r.slot = slot;
  r.slice_off = slice_off;
  r.slice_len = slice_len;
  resident_bytes_ += r.data().size();
}

void LocalStore::erase(const std::string& key) {
  auto it = table_.find(key);
  if (it == table_.end()) return;
  resident_bytes_ -= it->second.data().size();
  if (!it->second.complete) incomplete_--;
  table_.erase(it);
}

const LocalStore::Record* LocalStore::find(const std::string& key) const {
  auto it = table_.find(key);
  return it == table_.end() ? nullptr : &it->second;
}

}  // namespace rspaxos::kv
