/**
 * @file
 * Deterministic pseudo-random number generation for trace synthesis
 * and eviction modelling.
 *
 * All stochastic behaviour in GAIA flows through gaia::Rng so that
 * every experiment is exactly reproducible from its seed. The core
 * generator is xoshiro256**, seeded via SplitMix64 — fast, high
 * quality, and independent of the (implementation-defined) standard
 * library distributions: the sampling helpers below are written
 * out explicitly so results are identical across toolchains.
 */

#ifndef GAIA_COMMON_RNG_H
#define GAIA_COMMON_RNG_H

#include <array>
#include <cstdint>
#include <span>

namespace gaia {

/**
 * Deterministic random source. Copyable: copies continue the same
 * stream independently from the point of the copy.
 */
class Rng
{
  public:
    /** Seed the generator; the same seed reproduces the stream. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [lo, hi] inclusive; requires lo <= hi. */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /** Exponential with the given mean (mean > 0). */
    double exponential(double mean);

    /** Standard normal via Box–Muller (deterministic pairing). */
    double normal();

    /** Normal with given mean and standard deviation. */
    double normal(double mean, double stddev);

    /**
     * Log-normal parameterized by the underlying normal's mu/sigma,
     * i.e. exp(N(mu, sigma)).
     */
    double lognormal(double mu, double sigma);

    /** Bernoulli trial with success probability p in [0, 1]. */
    bool bernoulli(double p);

    /**
     * Sample an index in [0, weights.size()) with probability
     * proportional to weights (all non-negative, sum > 0). Consumes
     * exactly one uniform() draw.
     */
    std::size_t discrete(std::span<const double> weights);

  private:
    std::array<std::uint64_t, 4> state_;
    double cached_normal_ = 0.0;
    bool has_cached_normal_ = false;
};

} // namespace gaia

#endif // GAIA_COMMON_RNG_H
