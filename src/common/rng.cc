#include "common/rng.h"

#include <cmath>

#include "common/logging.h"

namespace gaia {

namespace {

/** SplitMix64 step, used only for seeding the main generator. */
std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    // xoshiro256** must not be seeded with all zeros; SplitMix64
    // expansion guarantees a non-degenerate state for any seed.
    std::uint64_t s = seed;
    for (auto &word : state_)
        word = splitmix64(s);
}

std::uint64_t
Rng::next()
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

double
Rng::uniform()
{
    // 53 high bits -> double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    GAIA_ASSERT(lo <= hi, "bad uniform range [", lo, ", ", hi, ")");
    return lo + (hi - lo) * uniform();
}

std::int64_t
Rng::uniformInt(std::int64_t lo, std::int64_t hi)
{
    GAIA_ASSERT(lo <= hi, "bad uniformInt range [", lo, ", ", hi, "]");
    const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    if (span == 0)
        return static_cast<std::int64_t>(next()); // full 64-bit range
    // Rejection sampling removes modulo bias.
    const std::uint64_t limit = UINT64_MAX - UINT64_MAX % span;
    std::uint64_t r = next();
    while (r >= limit)
        r = next();
    return lo + static_cast<std::int64_t>(r % span);
}

double
Rng::exponential(double mean)
{
    GAIA_ASSERT(mean > 0.0, "exponential mean must be positive: ", mean);
    double u = uniform();
    while (u <= 0.0)
        u = uniform();
    return -mean * std::log(u);
}

double
Rng::normal()
{
    if (has_cached_normal_) {
        has_cached_normal_ = false;
        return cached_normal_;
    }
    double u1 = uniform();
    while (u1 <= 0.0)
        u1 = uniform();
    const double u2 = uniform();
    const double radius = std::sqrt(-2.0 * std::log(u1));
    const double angle = 2.0 * M_PI * u2;
    cached_normal_ = radius * std::sin(angle);
    has_cached_normal_ = true;
    return radius * std::cos(angle);
}

double
Rng::normal(double mean, double stddev)
{
    GAIA_ASSERT(stddev >= 0.0, "negative stddev ", stddev);
    return mean + stddev * normal();
}

double
Rng::lognormal(double mu, double sigma)
{
    return std::exp(normal(mu, sigma));
}

bool
Rng::bernoulli(double p)
{
    GAIA_ASSERT(p >= 0.0 && p <= 1.0, "bernoulli p out of range: ", p);
    return uniform() < p;
}

std::size_t
Rng::discrete(std::span<const double> weights)
{
    GAIA_ASSERT(!weights.empty(), "discrete() needs weights");
    double total = 0.0;
    for (double w : weights) {
        GAIA_ASSERT(w >= 0.0, "negative weight ", w);
        total += w;
    }
    GAIA_ASSERT(total > 0.0, "discrete() weights sum to zero");
    double x = uniform() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        x -= weights[i];
        if (x < 0.0)
            return i;
    }
    return weights.size() - 1; // numerical edge: return last bucket
}

} // namespace gaia
