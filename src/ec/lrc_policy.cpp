// Azure-style Locally Repairable Code (cf. Huang et al., "Erasure Coding in
// Windows Azure Storage"). Share layout for LRC(x, l, g) with n = x + l + g:
//
//   [0, x)          systematic data shares, split into l contiguous groups
//   [x, x+l)        one XOR parity per local group
//   [x+l, n)        global Reed-Solomon parities over all x data shares
//
// The draw: repairing one data share reads only its local group (group size
// shares) instead of any x of n — that is where catch-up and InstallSnapshot
// save network bytes. The price: the code is NOT MDS, so decodability is a
// rank question, never a count question; any_subset_decodable() (brute-forced
// at construction, hence the n <= 16 cap) is what quorum sizing must use.
#include <algorithm>

#include "ec/policy.h"

namespace rspaxos::ec {
namespace {

constexpr int kMaxLrcN = 16;  // brute-force any_subset_decodable stays cheap

/// Local-group count for (x, n): at least one group, at least one global
/// parity left over, and groups of >= 2 data shares (a singleton group's
/// "parity" would just mirror its share).
int group_count(int x, int n) {
  return std::max(1, std::min(n - x - 1, x / 2));
}

struct LrcGeometry {
  int l = 0;                      // local groups
  int g = 0;                      // global parities
  std::vector<int> group_of;      // data index -> group
  std::vector<int> group_start;   // group -> first data index
  std::vector<int> group_size;    // group -> data-share count
};

LrcGeometry make_geometry(int x, int n) {
  LrcGeometry geo;
  geo.l = group_count(x, n);
  geo.g = n - x - geo.l;
  geo.group_of.resize(static_cast<size_t>(x));
  int start = 0;
  for (int gi = 0; gi < geo.l; ++gi) {
    int size = x / geo.l + (gi < x % geo.l ? 1 : 0);
    geo.group_start.push_back(start);
    geo.group_size.push_back(size);
    for (int d = start; d < start + size; ++d) geo.group_of[static_cast<size_t>(d)] = gi;
    start += size;
  }
  return geo;
}

Matrix make_generator(int x, int n, const LrcGeometry& geo, const Matrix& rs) {
  Matrix gen(static_cast<size_t>(n), static_cast<size_t>(x));
  for (int i = 0; i < x; ++i) gen.at(static_cast<size_t>(i), static_cast<size_t>(i)) = 1;
  for (int gi = 0; gi < geo.l; ++gi) {
    for (int d = geo.group_start[static_cast<size_t>(gi)];
         d < geo.group_start[static_cast<size_t>(gi)] + geo.group_size[static_cast<size_t>(gi)];
         ++d) {
      gen.at(static_cast<size_t>(x + gi), static_cast<size_t>(d)) = 1;
    }
  }
  // Global parities reuse the systematic-Vandermonde RS parity rows of a
  // θ(x, x + g) code: any g of them plus enough data still behave like RS.
  for (int p = 0; p < geo.g; ++p) {
    for (int j = 0; j < x; ++j) {
      gen.at(static_cast<size_t>(x + geo.l + p), static_cast<size_t>(j)) =
          rs.at(static_cast<size_t>(x + p), static_cast<size_t>(j));
    }
  }
  return gen;
}

class LrcPolicy final : public EcPolicy {
 public:
  LrcPolicy(int x, int n, int asd, Matrix gen, LrcGeometry geo)
      : EcPolicy(x, n, /*s=*/1, asd, std::move(gen)), geo_(std::move(geo)) {}

  CodeId id() const override { return CodeId::kLrc; }

 protected:
  void add_candidate_plans(int target, const std::vector<int>& live,
                           std::vector<RepairPlan>* out) const override {
    // The locality win: a data share (or a local parity) is the XOR of the
    // rest of its group, so repair reads only group_size shares. Global
    // parities have no group and fall back to the generic plan.
    int gi;
    if (target >= 0 && target < x()) {
      gi = geo_.group_of[static_cast<size_t>(target)];
    } else if (target >= x() && target < x() + geo_.l) {
      gi = target - x();
    } else {
      return;
    }
    RepairPlan p;
    p.target = target;
    auto want = [&](int idx) {
      if (idx == target) return true;
      if (!std::binary_search(live.begin(), live.end(), idx)) return false;
      p.fetches.push_back({idx, 1u});
      return true;
    };
    for (int d = geo_.group_start[static_cast<size_t>(gi)];
         d < geo_.group_start[static_cast<size_t>(gi)] + geo_.group_size[static_cast<size_t>(gi)];
         ++d) {
      if (!want(d)) return;  // a group member is dead: no local plan
    }
    if (!want(x() + gi)) return;
    out->push_back(std::move(p));
  }

 private:
  LrcGeometry geo_;
};

}  // namespace

StatusOr<std::unique_ptr<EcPolicy>> make_lrc_policy(int x, int n) {
  if (x < 1 || n < x) return Status::invalid("LrcPolicy requires 1 <= x <= n");
  if (n - x < 2) {
    return Status::invalid("LrcPolicy requires n - x >= 2 (one local + one global parity)");
  }
  if (n > kMaxLrcN) return Status::invalid("LrcPolicy caps n at 16");
  LrcGeometry geo = make_geometry(x, n);
  auto rs = rs_generator(x, x + geo.g);
  if (!rs.is_ok()) return rs.status();
  Matrix gen = make_generator(x, n, geo, rs.value());
  int asd = brute_force_any_subset_decodable(gen, n, /*s=*/1);
  return std::unique_ptr<EcPolicy>(new LrcPolicy(x, n, asd, std::move(gen), std::move(geo)));
}

}  // namespace rspaxos::ec
