/**
 * @file
 * Deterministic pseudo-random number generation for the
 * uncertainty-quantification module.
 *
 * A SplitMix64 generator is used: tiny, fast, well-distributed,
 * and -- critically for reproducible experiments -- fully
 * deterministic across platforms for a given seed (std::mt19937
 * would also qualify, but distributions like
 * std::uniform_real_distribution are not cross-platform
 * deterministic; these helpers are).
 */

#ifndef ECOCHIP_SUPPORT_RNG_H
#define ECOCHIP_SUPPORT_RNG_H

#include <cstdint>

namespace ecochip {

/** SplitMix64 deterministic PRNG. */
class Rng
{
  public:
    /** @param seed Any value; equal seeds give equal streams. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL)
        : state_(seed)
    {}

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        state_ += kGamma;
        std::uint64_t z = state_;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** Uniform double in [0, 1). */
    double
    uniform01()
    {
        // 53 mantissa bits.
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return lo + (hi - lo) * uniform01();
    }

    /**
     * Jump @p n values ahead in O(1): the state is a counter, so
     * this equals @p n calls to next(), with the same wrap-around.
     */
    void
    skip(std::uint64_t n)
    {
        state_ += n * kGamma;
    }

  private:
    static constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ULL;

    std::uint64_t state_;
};

} // namespace ecochip

#endif // ECOCHIP_SUPPORT_RNG_H
