// Deterministic pseudo-random number generation for the longtail library.
//
// All randomness in the library flows through `Rng`, seeded explicitly by the
// caller. No code in the library reads the wall clock or std::random_device,
// so every dataset, experiment, and benchmark is exactly reproducible from
// its seed.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

namespace longtail::util {

// SplitMix64: used to expand a single 64-bit seed into a full generator
// state. Recommended by the xoshiro authors for exactly this purpose.
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// Value-semantics mixer: a well-spread 64-bit hash of x.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  std::uint64_t s = x;
  return splitmix64(s);
}

// xoshiro256**: fast, high-quality 64-bit generator (Blackman & Vigna).
class Xoshiro256ss {
 public:
  using result_type = std::uint64_t;

  explicit constexpr Xoshiro256ss(std::uint64_t seed) noexcept : state_{} {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  constexpr result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  std::array<std::uint64_t, 4> state_;
};

// Convenience façade over Xoshiro256ss with the distributions the library
// needs. Methods are deliberately simple and branch-light; none allocate
// except where documented.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept : gen_(seed) {}

  std::uint64_t next_u64() noexcept { return gen_(); }

  // Uniform in [0, bound). bound must be > 0. Uses Lemire's multiply-shift
  // rejection method for unbiased results.
  std::uint64_t uniform(std::uint64_t bound) noexcept {
    const std::uint64_t x = next_u64();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) {
      const std::uint64_t threshold = -bound % bound;
      while (low < threshold) {
        m = static_cast<__uint128_t>(next_u64()) * bound;
        low = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  // Uniform integer in the closed range [lo, hi].
  std::int64_t uniform_range(std::int64_t lo, std::int64_t hi) noexcept {
    return lo + static_cast<std::int64_t>(
                    uniform(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  // Uniform double in [0, 1).
  double uniform01() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  bool bernoulli(double p) noexcept { return uniform01() < p; }

  // Exponential with given mean (> 0).
  double exponential(double mean) noexcept {
    double u = uniform01();
    // Avoid log(0).
    if (u <= 0.0) u = 0x1.0p-53;
    return -mean * std::log(u);
  }

  // Standard normal via Box–Muller (no cached spare: keeps state simple).
  double normal(double mu, double sigma) noexcept;

  // Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      using std::swap;
      swap(v[i - 1], v[uniform(i)]);
    }
  }

 private:
  Xoshiro256ss gen_;
};

// Independent per-item RNG substream: a generator that is a pure
// function of (seed, salt, index), so the values item `index` draws are
// the same whether items are processed serially or across N threads.
// `salt` namespaces the stream per call site (use a distinct tag per
// phase); this is the canonical keying pattern for parallel_for bodies
// (see docs/synth-chains.md and the synth generator).
[[nodiscard]] inline Rng substream(std::uint64_t seed, std::uint64_t salt,
                                   std::uint64_t index) noexcept {
  return Rng(mix64(seed ^ salt) ^
             mix64(index * 0x9E3779B97F4A7C15ULL + salt));
}

// Alias-method sampler for repeated draws from a fixed discrete
// distribution. O(n) construction, O(1) per sample (Walker/Vose).
class DiscreteSampler {
 public:
  DiscreteSampler() = default;
  explicit DiscreteSampler(std::span<const double> weights);

  [[nodiscard]] bool empty() const noexcept { return prob_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return prob_.size(); }

  std::size_t sample(Rng& rng) const noexcept;

 private:
  std::vector<double> prob_;
  std::vector<std::uint32_t> alias_;
};

}  // namespace longtail::util
