/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic behaviour in the simulator (workload address streams,
 * branch outcomes, hash probes) flows through Rng so that runs are
 * bit-reproducible for a given seed. The generator is xoshiro256**
 * seeded through SplitMix64, which is fast and has no observable
 * artifacts at the scales we use.
 */

#ifndef SIM_RNG_HH
#define SIM_RNG_HH

#include <cstdint>

#include "sim/logging.hh"

namespace gpummu {

/** Stateless 64-bit mixer; also useful as a hash for thread ids. */
inline std::uint64_t
splitMix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** xoshiro256** deterministic generator. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x1234abcdULL) { reseed(seed); }

    /** Re-initialize the state from a 64-bit seed. */
    void
    reseed(std::uint64_t seed)
    {
        std::uint64_t x = seed;
        for (auto &word : state_) {
            x = splitMix64(x);
            word = x;
        }
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
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

    /** Uniform integer in [0, bound). bound must be nonzero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        GPUMMU_ASSERT(bound != 0);
        // Lemire's multiply-shift rejection-free approximation is fine
        // here; the tiny modulo bias is irrelevant for workloads.
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(next()) * bound) >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    range(std::uint64_t lo, std::uint64_t hi)
    {
        GPUMMU_ASSERT(lo <= hi);
        return lo + below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw with probability p of true. */
    bool chance(double p) { return uniform() < p; }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4];
};

/**
 * Zipfian sampler over [0, n). Used by the memcached workload to get
 * a realistic skewed key popularity distribution (the Wikipedia trace
 * the paper uses is heavily skewed).
 *
 * Uses the rejection-inversion method of Hormann and Derflinger so
 * setup is O(1) rather than O(n).
 */
class ZipfSampler
{
  public:
    ZipfSampler(std::uint64_t n, double exponent);

    /** Draw one sample in [0, n). */
    std::uint64_t sample(Rng &rng) const;

    double exponent() const { return s_; }

  private:
    double h(double x) const;
    double hInv(double x) const;

    std::uint64_t n_;
    double s_;
    double hx0_;
    double hn_;
};

} // namespace gpummu

#endif // SIM_RNG_HH
