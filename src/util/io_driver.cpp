#include "util/io_driver.h"

#include <limits.h>
#include <sys/epoll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unordered_map>

#include "util/logging.h"

#if defined(__linux__) && __has_include(<linux/io_uring.h>)
#include <linux/io_uring.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#if defined(IORING_FEAT_EXT_ARG) && defined(IORING_ENTER_EXT_ARG)
#define RSPAXOS_HAS_URING 1
#else
#define RSPAXOS_HAS_URING 0
#endif
#else
#define RSPAXOS_HAS_URING 0
#endif

namespace rspaxos::util {

size_t writev_full(int fd, std::vector<iovec>& iov) {
  size_t i = 0;
  size_t written = 0;
  while (i < iov.size()) {
    size_t cnt = std::min<size_t>(iov.size() - i, IOV_MAX);
    ssize_t n = ::writev(fd, &iov[i], static_cast<int>(cnt));
    if (n < 0) {
      if (errno == EINTR) continue;
      return written;
    }
    written += static_cast<size_t>(n);
    size_t left = static_cast<size_t>(n);
    while (left > 0 && i < iov.size()) {
      if (left >= iov[i].iov_len) {
        left -= iov[i].iov_len;
        ++i;
      } else {
        iov[i].iov_base = static_cast<char*>(iov[i].iov_base) + left;
        iov[i].iov_len -= left;
        left = 0;
      }
    }
  }
  return written;
}

namespace {

/// Consumes `n` written bytes from iov starting at index `i`; returns the
/// index of the first incomplete iovec (partially-consumed iovecs are
/// adjusted in place, mirroring writev_full).
size_t advance_iov(std::vector<iovec>& iov, size_t i, size_t n) {
  while (n > 0 && i < iov.size()) {
    if (n >= iov[i].iov_len) {
      n -= iov[i].iov_len;
      ++i;
    } else {
      iov[i].iov_base = static_cast<char*>(iov[i].iov_base) + n;
      iov[i].iov_len -= n;
      n = 0;
    }
  }
  return i;
}

timespec to_timespec(int64_t us) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(us / 1'000'000);
  ts.tv_nsec = static_cast<long>(us % 1'000'000) * 1000;
  return ts;
}

class EpollIoDriver final : public IoDriver {
 public:
  EpollIoDriver() : epfd_(::epoll_create1(EPOLL_CLOEXEC)) {}
  ~EpollIoDriver() override {
    if (epfd_ >= 0) ::close(epfd_);
  }

  const char* name() const override { return "epoll"; }
  bool ok() const override { return epfd_ >= 0; }

  bool add(int fd, uint32_t events, void* tag) override {
    epoll_event ev{};
    ev.events = events;
    ev.data.ptr = tag;
    return ::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) == 0;
  }

  bool mod(int fd, uint32_t events, void* tag) override {
    epoll_event ev{};
    ev.events = events;
    ev.data.ptr = tag;
    return ::epoll_ctl(epfd_, EPOLL_CTL_MOD, fd, &ev) == 0;
  }

  void del(int fd) override { ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr); }

  int wait(IoEvent* out, int max_events, int64_t timeout_us) override {
    if (static_cast<int>(buf_.size()) < max_events) buf_.resize(max_events);
    int n;
    if (pwait2_) {
      timespec ts = to_timespec(timeout_us);
      n = ::epoll_pwait2(epfd_, buf_.data(), max_events, timeout_us < 0 ? nullptr : &ts,
                         nullptr);
      if (n < 0 && errno == ENOSYS) pwait2_ = false;  // pre-5.11 kernel
    }
    if (!pwait2_) {
      // Millisecond fallback rounds up, so a timer never fires early.
      int ms = timeout_us < 0 ? -1 : static_cast<int>(std::min<int64_t>((timeout_us + 999) / 1000, INT_MAX));
      n = ::epoll_wait(epfd_, buf_.data(), max_events, ms);
    }
    for (int i = 0; i < n; ++i) {
      out[i].tag = buf_[i].data.ptr;
      out[i].events = buf_[i].events;
    }
    return n;
  }

  size_t write_and_sync(int fd, std::vector<iovec>& iov, bool* synced) override {
    size_t nbytes = 0;
    for (const iovec& v : iov) nbytes += v.iov_len;
    size_t wrote = writev_full(fd, iov);
    *synced = wrote == nbytes && ::fdatasync(fd) == 0;
    return wrote;
  }

 private:
  int epfd_;
  bool pwait2_ = true;
  std::vector<epoll_event> buf_;
};

#if RSPAXOS_HAS_URING

int sys_io_uring_setup(unsigned entries, struct io_uring_params* p) {
  return static_cast<int>(::syscall(__NR_io_uring_setup, entries, p));
}

int sys_io_uring_enter(int fd, unsigned to_submit, unsigned min_complete, unsigned flags,
                       const void* arg, size_t argsz) {
  return static_cast<int>(
      ::syscall(__NR_io_uring_enter, fd, to_submit, min_complete, flags, arg, argsz));
}

/// io_uring backend built on raw syscalls (the container has kernel support
/// but no liburing). Readiness is oneshot POLL_ADD re-armed lazily in wait()
/// — a fired fd stays un-armed until the next wait() call, which re-checks
/// the level-triggered condition exactly like epoll would. user_data packs
/// (fd, generation): mod()/del() bump the generation so CQEs from a stale
/// registration are dropped instead of dispatched to a dead tag.
class UringIoDriver final : public IoDriver {
 public:
  static constexpr unsigned kEntries = 256;
  static constexpr uint64_t kIgnoreUd = ~0ull;       // poll-remove completions
  static constexpr uint64_t kWriteUd = ~0ull - 1;    // write_and_sync WRITEV
  static constexpr uint64_t kFsyncUd = ~0ull - 2;    // write_and_sync FSYNC

  UringIoDriver() {
    std::memset(&params_, 0, sizeof(params_));
    ring_fd_ = sys_io_uring_setup(kEntries, &params_);
    if (ring_fd_ < 0) return;
    if ((params_.features & IORING_FEAT_EXT_ARG) == 0) {
      fail();
      return;
    }
    size_t sq_size = params_.sq_off.array + params_.sq_entries * sizeof(uint32_t);
    size_t cq_size = params_.cq_off.cqes + params_.cq_entries * sizeof(io_uring_cqe);
    if (params_.features & IORING_FEAT_SINGLE_MMAP) {
      sq_size = cq_size = std::max(sq_size, cq_size);
    }
    sq_ring_ = ::mmap(nullptr, sq_size, PROT_READ | PROT_WRITE, MAP_SHARED | MAP_POPULATE,
                      ring_fd_, IORING_OFF_SQ_RING);
    if (sq_ring_ == MAP_FAILED) {
      sq_ring_ = nullptr;
      fail();
      return;
    }
    sq_ring_size_ = sq_size;
    if (params_.features & IORING_FEAT_SINGLE_MMAP) {
      cq_ring_ = sq_ring_;
    } else {
      cq_ring_ = ::mmap(nullptr, cq_size, PROT_READ | PROT_WRITE,
                        MAP_SHARED | MAP_POPULATE, ring_fd_, IORING_OFF_CQ_RING);
      if (cq_ring_ == MAP_FAILED) {
        cq_ring_ = nullptr;
        fail();
        return;
      }
      cq_ring_size_ = cq_size;
    }
    sqes_size_ = params_.sq_entries * sizeof(io_uring_sqe);
    sqes_ = static_cast<io_uring_sqe*>(::mmap(nullptr, sqes_size_,
                                              PROT_READ | PROT_WRITE,
                                              MAP_SHARED | MAP_POPULATE, ring_fd_,
                                              IORING_OFF_SQES));
    if (sqes_ == MAP_FAILED) {
      sqes_ = nullptr;
      fail();
      return;
    }
    auto* sqp = static_cast<uint8_t*>(sq_ring_);
    sq_head_ = reinterpret_cast<unsigned*>(sqp + params_.sq_off.head);
    sq_tail_ = reinterpret_cast<unsigned*>(sqp + params_.sq_off.tail);
    sq_mask_ = *reinterpret_cast<unsigned*>(sqp + params_.sq_off.ring_mask);
    sq_array_ = reinterpret_cast<unsigned*>(sqp + params_.sq_off.array);
    auto* cqp = static_cast<uint8_t*>(cq_ring_);
    cq_head_ = reinterpret_cast<unsigned*>(cqp + params_.cq_off.head);
    cq_tail_ = reinterpret_cast<unsigned*>(cqp + params_.cq_off.tail);
    cq_mask_ = *reinterpret_cast<unsigned*>(cqp + params_.cq_off.ring_mask);
    cqes_ = reinterpret_cast<io_uring_cqe*>(cqp + params_.cq_off.cqes);
    sq_tail_local_ = __atomic_load_n(sq_tail_, __ATOMIC_ACQUIRE);
    ok_ = true;
  }

  ~UringIoDriver() override { fail(); }

  const char* name() const override { return "uring"; }
  bool ok() const override { return ok_; }

  bool add(int fd, uint32_t events, void* tag) override {
    regs_[fd] = Reg{events, tag, false, next_gen_++};
    return true;  // arming is deferred to wait(); setup errors surface there
  }

  bool mod(int fd, uint32_t events, void* tag) override {
    auto it = regs_.find(fd);
    if (it == regs_.end()) return add(fd, events, tag);
    if (it->second.armed) remove_poll(fd, it->second.gen);
    it->second = Reg{events, tag, false, next_gen_++};
    return true;
  }

  void del(int fd) override {
    auto it = regs_.find(fd);
    if (it == regs_.end()) return;
    if (it->second.armed) remove_poll(fd, it->second.gen);
    regs_.erase(it);
  }

  int wait(IoEvent* out, int max_events, int64_t timeout_us) override {
    if (!ok_) return -1;
    // Re-arm every registration whose oneshot poll has fired (or was never
    // armed). POLL_ADD checks the level-triggered condition on submit, so a
    // still-ready fd completes immediately — epoll semantics preserved.
    for (auto& [fd, reg] : regs_) {
      if (reg.armed) continue;
      io_uring_sqe* sqe = get_sqe();
      if (sqe == nullptr) break;
      sqe->opcode = IORING_OP_POLL_ADD;
      sqe->fd = fd;
      sqe->poll_events = static_cast<uint16_t>(reg.events & 0xffffu);
      sqe->user_data = pack_ud(fd, reg.gen);
      reg.armed = true;
    }
    if (!flush_sq()) return -1;
    int n = drain_cq(out, max_events);
    if (n > 0) return n;
    int r = enter_wait(1, timeout_us);
    if (r < 0 && r != -ETIME && r != -EINTR) return -1;
    return drain_cq(out, max_events);
  }

  size_t write_and_sync(int fd, std::vector<iovec>& iov, bool* synced) override {
    *synced = false;
    size_t nbytes = 0;
    for (const iovec& v : iov) nbytes += v.iov_len;
    size_t written = 0;
    size_t i = 0;
    while (ok_ && i < iov.size()) {
      unsigned cnt = static_cast<unsigned>(std::min<size_t>(iov.size() - i, IOV_MAX));
      bool final_chunk = i + cnt == iov.size();
      io_uring_sqe* w = get_sqe();
      if (w == nullptr) break;
      w->opcode = IORING_OP_WRITEV;
      w->fd = fd;
      w->addr = reinterpret_cast<uint64_t>(&iov[i]);
      w->len = cnt;
      w->off = static_cast<uint64_t>(-1);  // append at the current file offset
      w->user_data = kWriteUd;
      unsigned want = 1;
      if (final_chunk) {
        // Chain the durability barrier: the fsync only runs if the write
        // fully succeeds (a short write severs the link -> -ECANCELED and we
        // loop around with the remaining iovecs).
        w->flags |= IOSQE_IO_LINK;
        io_uring_sqe* f = get_sqe();
        if (f == nullptr) {
          w->flags &= static_cast<uint8_t>(~IOSQE_IO_LINK);
          final_chunk = false;
        } else {
          f->opcode = IORING_OP_FSYNC;
          f->fd = fd;
          f->fsync_flags = IORING_FSYNC_DATASYNC;
          f->user_data = kFsyncUd;
          want = 2;
        }
      }
      if (!flush_sq()) break;
      ssize_t wres = 0;
      int fres = -ECANCELED;
      if (!collect_write_cqes(want, &wres, &fres)) break;
      if (wres < 0) {
        if (wres == -EINTR || wres == -EAGAIN) continue;  // retry this chunk
        return written;
      }
      written += static_cast<size_t>(wres);
      i = advance_iov(iov, i, static_cast<size_t>(wres));
      if (final_chunk && i >= iov.size() && fres == 0) {
        *synced = written == nbytes;
        return written;
      }
      // Short write (or fsync failed/cancelled): loop re-submits the
      // remaining iovecs; a trailing successful chunk re-links the fsync.
      if (final_chunk && i >= iov.size()) {
        // Fully written but the chained fsync failed: one standalone retry.
        *synced = written == nbytes && standalone_fsync(fd);
        return written;
      }
    }
    // Ring unusable mid-batch: finish with the plain syscalls so durability
    // never depends on the ring staying healthy.
    if (i < iov.size()) {
      std::vector<iovec> rest(iov.begin() + static_cast<long>(i), iov.end());
      written += writev_full(fd, rest);
    }
    *synced = written == nbytes && ::fdatasync(fd) == 0;
    return written;
  }

 private:
  struct Reg {
    uint32_t events = 0;
    void* tag = nullptr;
    bool armed = false;
    uint32_t gen = 0;
  };

  static uint64_t pack_ud(int fd, uint32_t gen) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(fd)) << 32) | gen;
  }

  void fail() {
    ok_ = false;
    if (sqes_ != nullptr) ::munmap(sqes_, sqes_size_);
    if (cq_ring_ != nullptr && cq_ring_ != sq_ring_) ::munmap(cq_ring_, cq_ring_size_);
    if (sq_ring_ != nullptr) ::munmap(sq_ring_, sq_ring_size_);
    sqes_ = nullptr;
    cq_ring_ = nullptr;
    sq_ring_ = nullptr;
    if (ring_fd_ >= 0) ::close(ring_fd_);
    ring_fd_ = -1;
  }

  io_uring_sqe* get_sqe() {
    unsigned head = __atomic_load_n(sq_head_, __ATOMIC_ACQUIRE);
    if (sq_tail_local_ - head >= params_.sq_entries) {
      if (!flush_sq()) return nullptr;
      head = __atomic_load_n(sq_head_, __ATOMIC_ACQUIRE);
      if (sq_tail_local_ - head >= params_.sq_entries) return nullptr;
    }
    unsigned idx = sq_tail_local_ & sq_mask_;
    io_uring_sqe* sqe = &sqes_[idx];
    std::memset(sqe, 0, sizeof(*sqe));
    sq_array_[idx] = idx;
    sq_tail_local_++;
    return sqe;
  }

  /// Publishes and submits all pending SQEs (no completion wait).
  bool flush_sq() {
    __atomic_store_n(sq_tail_, sq_tail_local_, __ATOMIC_RELEASE);
    while (sq_submitted_ != sq_tail_local_) {
      unsigned to_submit = sq_tail_local_ - sq_submitted_;
      int r = sys_io_uring_enter(ring_fd_, to_submit, 0, 0, nullptr, 0);
      if (r < 0) {
        if (errno == EINTR) continue;
        if (errno == EBUSY || errno == EAGAIN) {
          // CQ overflow backpressure: reap and retry.
          IoEvent scratch[16];
          (void)drain_cq(scratch, 16);
          continue;
        }
        return false;
      }
      sq_submitted_ += static_cast<unsigned>(r);
    }
    return true;
  }

  /// Waits for >= min_complete CQEs, up to timeout_us (-1 = forever).
  /// Returns 0/-errno.
  int enter_wait(unsigned min_complete, int64_t timeout_us) {
    unsigned flags = IORING_ENTER_GETEVENTS;
    struct io_uring_getevents_arg arg;
    struct __kernel_timespec ts;
    const void* argp = nullptr;
    size_t argsz = 0;
    if (timeout_us >= 0) {
      std::memset(&arg, 0, sizeof(arg));
      std::memset(&ts, 0, sizeof(ts));
      ts.tv_sec = timeout_us / 1'000'000;
      ts.tv_nsec = static_cast<long long>(timeout_us % 1'000'000) * 1000;
      arg.ts = reinterpret_cast<uint64_t>(&ts);
      flags |= IORING_ENTER_EXT_ARG;
      argp = &arg;
      argsz = sizeof(arg);
    }
    int r = sys_io_uring_enter(ring_fd_, 0, min_complete, flags, argp, argsz);
    return r < 0 ? -errno : 0;
  }

  /// Reaps poll CQEs into `out` (dropping stale generations and internal
  /// user_data); returns the count. Surplus events beyond max_events are
  /// dropped safely: the registration is left un-armed and the next wait()
  /// re-polls the still-ready fd (level-triggered).
  int drain_cq(IoEvent* out, int max_events) {
    unsigned head = __atomic_load_n(cq_head_, __ATOMIC_ACQUIRE);
    unsigned tail = __atomic_load_n(cq_tail_, __ATOMIC_ACQUIRE);
    int n = 0;
    while (head != tail) {
      const io_uring_cqe* cqe = &cqes_[head & cq_mask_];
      head++;
      uint64_t ud = cqe->user_data;
      if (ud == kIgnoreUd || ud == kWriteUd || ud == kFsyncUd) continue;
      int fd = static_cast<int>(ud >> 32);
      uint32_t gen = static_cast<uint32_t>(ud & 0xffffffffu);
      auto it = regs_.find(fd);
      if (it == regs_.end() || it->second.gen != gen) continue;  // stale
      it->second.armed = false;
      if (n < max_events) {
        out[n].tag = it->second.tag;
        out[n].events = cqe->res < 0 ? EPOLLERR : static_cast<uint32_t>(cqe->res);
        n++;
      }
    }
    __atomic_store_n(cq_head_, head, __ATOMIC_RELEASE);
    return n;
  }

  void remove_poll(int fd, uint32_t gen) {
    io_uring_sqe* sqe = get_sqe();
    if (sqe == nullptr) return;  // stale CQE is dropped by the gen check
    sqe->opcode = IORING_OP_POLL_REMOVE;
    sqe->addr = pack_ud(fd, gen);
    sqe->user_data = kIgnoreUd;
    (void)flush_sq();
  }

  /// Collects the write (and optionally linked fsync) completions for
  /// write_and_sync, preserving any interleaved poll CQEs for later waits is
  /// unnecessary: the WAL's dedicated driver has no poll registrations.
  bool collect_write_cqes(unsigned want, ssize_t* wres, int* fres) {
    unsigned seen = 0;
    while (seen < want) {
      unsigned head = __atomic_load_n(cq_head_, __ATOMIC_ACQUIRE);
      unsigned tail = __atomic_load_n(cq_tail_, __ATOMIC_ACQUIRE);
      while (head != tail && seen < want) {
        const io_uring_cqe* cqe = &cqes_[head & cq_mask_];
        head++;
        if (cqe->user_data == kWriteUd) {
          *wres = cqe->res;
          seen++;
        } else if (cqe->user_data == kFsyncUd) {
          *fres = cqe->res;
          seen++;
        }
      }
      __atomic_store_n(cq_head_, head, __ATOMIC_RELEASE);
      if (seen < want) {
        int r = enter_wait(1, -1);
        if (r < 0 && r != -EINTR) return false;
      }
    }
    return true;
  }

  bool standalone_fsync(int fd) {
    io_uring_sqe* f = get_sqe();
    if (f == nullptr) return ::fdatasync(fd) == 0;
    f->opcode = IORING_OP_FSYNC;
    f->fd = fd;
    f->fsync_flags = IORING_FSYNC_DATASYNC;
    f->user_data = kFsyncUd;
    if (!flush_sq()) return ::fdatasync(fd) == 0;
    ssize_t wres = 0;
    int fres = -EIO;
    if (!collect_write_cqes(1, &wres, &fres)) return ::fdatasync(fd) == 0;
    return fres == 0;
  }

  struct io_uring_params params_;
  int ring_fd_ = -1;
  bool ok_ = false;
  void* sq_ring_ = nullptr;
  void* cq_ring_ = nullptr;
  io_uring_sqe* sqes_ = nullptr;
  size_t sq_ring_size_ = 0;
  size_t cq_ring_size_ = 0;
  size_t sqes_size_ = 0;
  unsigned* sq_head_ = nullptr;
  unsigned* sq_tail_ = nullptr;
  unsigned* sq_array_ = nullptr;
  unsigned sq_mask_ = 0;
  unsigned* cq_head_ = nullptr;
  unsigned* cq_tail_ = nullptr;
  unsigned cq_mask_ = 0;
  io_uring_cqe* cqes_ = nullptr;
  unsigned sq_tail_local_ = 0;
  unsigned sq_submitted_ = 0;
  std::unordered_map<int, Reg> regs_;
  uint32_t next_gen_ = 1;
};

#endif  // RSPAXOS_HAS_URING

}  // namespace

IoBackend requested_io_backend() {
  const char* env = std::getenv("RSPAXOS_IO_BACKEND");
  if (env != nullptr && std::string(env) == "uring") return IoBackend::kUring;
  return IoBackend::kEpoll;
}

bool uring_supported() {
#if RSPAXOS_HAS_URING
  static const bool supported = [] {
    struct io_uring_params p;
    std::memset(&p, 0, sizeof(p));
    int fd = sys_io_uring_setup(4, &p);
    if (fd < 0) return false;
    bool good = (p.features & IORING_FEAT_EXT_ARG) != 0;
    ::close(fd);
    return good;
  }();
  return supported;
#else
  return false;
#endif
}

const char* io_backend_name() {
  return requested_io_backend() == IoBackend::kUring && uring_supported() ? "uring"
                                                                          : "epoll";
}

std::unique_ptr<IoDriver> make_io_driver() {
  if (requested_io_backend() == IoBackend::kUring) {
#if RSPAXOS_HAS_URING
    if (uring_supported()) {
      auto d = std::make_unique<UringIoDriver>();
      if (d->ok()) return d;
      RSP_WARN << "io_uring ring setup failed; falling back to epoll";
    } else {
      RSP_WARN << "RSPAXOS_IO_BACKEND=uring but kernel lacks io_uring support; "
                  "falling back to epoll";
    }
#else
    RSP_WARN << "RSPAXOS_IO_BACKEND=uring but built without io_uring headers; "
                "falling back to epoll";
#endif
  }
  return std::make_unique<EpollIoDriver>();
}

}  // namespace rspaxos::util
