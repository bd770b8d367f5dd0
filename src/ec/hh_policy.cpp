// Hitchhiker-style XOR piggyback code (cf. Rashmi et al., "A 'Hitchhiker's'
// Guide to Fast and Efficient Data Reconstruction", SIGCOMM 2014).
//
// Every share carries two sub-stripes (s = 2): share i = a_i || b_i, each
// half independently Reed-Solomon coded across the stripe. Parity shares
// p >= 1 additionally XOR a "piggyback" of data a-halves into their b-half:
//
//   parity p  =  f_p(a)  ||  f_p(b) + XOR_{k in S_p} a_k
//
// where S_1..S_{r-1} partition the data indices. The code stays MDS (any x
// full shares decode: the a-stripe decodes from the clean a-halves, after
// which the piggybacks can be subtracted), but a lost systematic share i in
// S_p is rebuilt from only x + |S_p| HALF-shares: decode the b-stripe from
// x clean b-halves ({b_k : k != i} plus parity 0's f_0(b)), then peel a_i
// out of parity p's piggybacked b-half using a_k for k in S_p \ {i}. For
// r - 1 >= x that is (x+1)/2 share-equivalents instead of RS's x.
#include <algorithm>

#include "ec/policy.h"

namespace rspaxos::ec {
namespace {

constexpr int kMaxHhN = 16;  // keep the brute-force MDS audit cheap

constexpr uint32_t kSubA = 1u;  // sub-stripe 0: the a-half
constexpr uint32_t kSubB = 2u;  // sub-stripe 1: the b-half

/// piggy_of[d] = the parity p in [1, r) whose S_p contains data index d
/// (contiguous partition, empty groups allowed when r - 1 > x).
std::vector<int> make_piggy_groups(int x, int r) {
  std::vector<int> piggy_of(static_cast<size_t>(x));
  const int groups = r - 1;
  int start = 0;
  for (int gi = 0; gi < groups; ++gi) {
    int size = x / groups + (gi < x % groups ? 1 : 0);
    for (int d = start; d < start + size; ++d) piggy_of[static_cast<size_t>(d)] = gi + 1;
    start += size;
  }
  return piggy_of;
}

Matrix make_generator(int x, int n, const Matrix& rs, const std::vector<int>& piggy_of) {
  // Variables: a_i = 2i, b_i = 2i + 1 (interleaved so data share i is the
  // contiguous value slice [i*2*sub, (i+1)*2*sub) — systematic layout).
  const size_t d = 2 * static_cast<size_t>(x);
  Matrix gen(2 * static_cast<size_t>(n), d);
  for (int i = 0; i < x; ++i) {
    gen.at(2 * static_cast<size_t>(i), 2 * static_cast<size_t>(i)) = 1;
    gen.at(2 * static_cast<size_t>(i) + 1, 2 * static_cast<size_t>(i) + 1) = 1;
  }
  for (int i = x; i < n; ++i) {
    const int p = i - x;
    for (int k = 0; k < x; ++k) {
      const uint8_t c = rs.at(static_cast<size_t>(i), static_cast<size_t>(k));
      gen.at(2 * static_cast<size_t>(i), 2 * static_cast<size_t>(k)) = c;
      gen.at(2 * static_cast<size_t>(i) + 1, 2 * static_cast<size_t>(k) + 1) = c;
      if (p >= 1 && piggy_of[static_cast<size_t>(k)] == p) {
        // XOR piggyback of a_k into this parity's b-half.
        gen.at(2 * static_cast<size_t>(i) + 1, 2 * static_cast<size_t>(k)) ^= 1;
      }
    }
  }
  return gen;
}

class HhPolicy final : public EcPolicy {
 public:
  HhPolicy(int x, int n, int asd, Matrix gen, std::vector<int> piggy_of)
      : EcPolicy(x, n, /*s=*/2, asd, std::move(gen)), piggy_of_(std::move(piggy_of)) {}

  CodeId id() const override { return CodeId::kHh; }

 protected:
  void add_candidate_plans(int target, const std::vector<int>& live,
                           std::vector<RepairPlan>* out) const override {
    // The piggyback win applies to systematic targets only; parity repair
    // falls back to the generic whole-stripe plan.
    if (target < 0 || target >= x()) return;
    const int p = piggy_of_[static_cast<size_t>(target)];
    RepairPlan plan;
    plan.target = target;
    auto live_has = [&](int idx) { return std::binary_search(live.begin(), live.end(), idx); };
    for (int k = 0; k < x(); ++k) {
      if (k == target) continue;
      if (!live_has(k)) return;
      // Piggyback sources in S_p need their a-half too (to peel a_target out
      // of parity p); every other data share contributes only its b-half.
      plan.fetches.push_back({k, piggy_of_[static_cast<size_t>(k)] == p ? kSubA | kSubB : kSubB});
    }
    if (!live_has(x()) || !live_has(x() + p)) return;
    plan.fetches.push_back({x(), kSubB});      // parity 0: clean f_0(b)
    plan.fetches.push_back({x() + p, kSubB});  // parity p: piggybacked b-half
    out->push_back(std::move(plan));
  }

 private:
  std::vector<int> piggy_of_;
};

}  // namespace

StatusOr<std::unique_ptr<EcPolicy>> make_hh_policy(int x, int n) {
  if (x < 1 || n < x) return Status::invalid("HhPolicy requires 1 <= x <= n");
  if (n - x < 2) {
    return Status::invalid("HhPolicy requires n - x >= 2 (a clean parity plus piggybacked ones)");
  }
  if (n > kMaxHhN) return Status::invalid("HhPolicy caps n at 16");
  auto rs = rs_generator(x, n);
  if (!rs.is_ok()) return rs.status();
  std::vector<int> piggy_of = make_piggy_groups(x, n - x);
  Matrix gen = make_generator(x, n, rs.value(), piggy_of);
  int asd = brute_force_any_subset_decodable(gen, n, /*s=*/2);
  return std::unique_ptr<EcPolicy>(new HhPolicy(x, n, asd, std::move(gen), std::move(piggy_of)));
}

}  // namespace rspaxos::ec
