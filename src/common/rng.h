// Deterministic pseudo-random number generation for workloads and simulation.
//
// Every experiment seeds its generators explicitly so that runs are exactly
// reproducible. The core generator is splitmix64 feeding xoshiro256**, which
// is fast, high quality, and has a trivially copyable state.

#ifndef SRC_COMMON_RNG_H_
#define SRC_COMMON_RNG_H_

#include <cassert>
#include <cmath>
#include <cstdint>

namespace atropos {

// xoshiro256** seeded via splitmix64.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull) {
    uint64_t x = seed;
    for (auto& s : state_) {
      x += 0x9e3779b97f4a7c15ull;
      uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
      s = z ^ (z >> 31);
    }
  }

  uint64_t NextUint64() {
    uint64_t* s = state_;
    uint64_t result = Rotl(s[1] * 5, 7) * 9;
    uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = Rotl(s[3], 45);
    return result;
  }

  // Uniform in [0, bound). bound must be > 0.
  uint64_t NextBounded(uint64_t bound) {
    assert(bound > 0);
    // Lemire's multiply-shift rejection-free approximation; bias is negligible
    // for simulation workloads (bound << 2^64).
    __uint128_t m = static_cast<__uint128_t>(NextUint64()) * bound;
    return static_cast<uint64_t>(m >> 64);
  }

  // Uniform double in [0, 1).
  double NextDouble() { return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53; }

  // Uniform in [lo, hi].
  double NextUniform(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

  // True with probability p.
  bool NextBernoulli(double p) { return NextDouble() < p; }

  // Exponentially distributed with the given mean (inter-arrival times of a
  // Poisson process).
  double NextExponential(double mean) {
    double u = NextDouble();
    // Guard against log(0).
    if (u <= 0.0) {
      u = 0x1.0p-53;
    }
    return -mean * std::log(1.0 - u);
  }

  // Zipf-distributed rank in [0, n). theta in (0, 1); higher theta = more skew.
  // Uses the classic CDF-inversion approximation of Gray et al.
  uint64_t NextZipf(uint64_t n, double theta) {
    assert(n > 0);
    if (n == 1) {
      return 0;
    }
    // Lazily (re)compute constants when n or theta changes.
    if (zipf_n_ != n || zipf_theta_ != theta) {
      zipf_n_ = n;
      zipf_theta_ = theta;
      zeta2_ = Zeta(2, theta);
      zetan_ = Zeta(n, theta);
      zipf_alpha_ = 1.0 / (1.0 - theta);
      zipf_half_pow_theta_ = std::pow(0.5, theta);
      zipf_eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
                  (1.0 - zeta2_ / zetan_);
    }
    double u = NextDouble();
    double uz = u * zetan_;
    if (uz < 1.0) {
      return 0;
    }
    if (uz < 1.0 + zipf_half_pow_theta_) {
      return 1;
    }
    auto rank = static_cast<uint64_t>(static_cast<double>(n) *
                                      std::pow(zipf_eta_ * u - zipf_eta_ + 1.0, zipf_alpha_));
    return rank >= n ? n - 1 : rank;
  }

  // Splits off an independently seeded generator; handy for giving each
  // simulated client its own stream.
  Rng Fork() { return Rng(NextUint64()); }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  static double Zeta(uint64_t n, double theta) {
    // Exact for small n; sampled + extrapolated for large n to keep setup O(1)-ish.
    double sum = 0.0;
    uint64_t limit = n < 10000 ? n : 10000;
    for (uint64_t i = 1; i <= limit; i++) {
      sum += 1.0 / std::pow(static_cast<double>(i), theta);
    }
    if (n > limit) {
      // Integral approximation of the tail.
      double a = 1.0 - theta;
      sum += (std::pow(static_cast<double>(n), a) - std::pow(static_cast<double>(limit), a)) / a;
    }
    return sum;
  }

  uint64_t state_[4];

  // Cached Zipf constants.
  uint64_t zipf_n_ = 0;
  double zipf_theta_ = 0.0;
  double zeta2_ = 0.0;
  double zetan_ = 0.0;
  double zipf_alpha_ = 0.0;
  double zipf_half_pow_theta_ = 0.0;  // pow(0.5, theta)
  double zipf_eta_ = 0.0;
};

}  // namespace atropos

#endif  // SRC_COMMON_RNG_H_
