#include "sim/rng.hh"

#include <cmath>

#include "sim/logging.hh"

namespace cg::sim {

std::uint64_t
splitmix64(std::uint64_t& x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

namespace {

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

/** sin and cos of 2*pi*k/256 for k = 0..256 (both ends of the turn). */
struct TurnTable {
    double sin[257];
    double cos[257];
};

/**
 * Taylor series of sin (@p odd) or cos at @p x in [0, pi/2], in long
 * double, so each entry rounds to within about an ulp of the true value.
 */
constexpr long double
taylor(long double x, bool odd)
{
    long double term = odd ? x : 1.0L;
    long double sum = term;
    for (int m = 1; m < 20; ++m) {
        const long double n = 2 * m + (odd ? 1 : 0); // this term's power
        term *= -x * x / ((n - 1) * n);
        sum += term;
    }
    return sum;
}

constexpr TurnTable
makeTurnTable()
{
    constexpr long double pi = 3.141592653589793238462643383279502884L;
    TurnTable t{};
    for (int k = 0; k <= 256; ++k) {
        // Evaluate within the first quadrant and rotate, so the
        // quarter turns are exact.
        const long double x = pi * (k % 64) / 128;
        const double s = static_cast<double>(taylor(x, true));
        const double c = static_cast<double>(taylor(x, false));
        switch ((k / 64) % 4) {
          case 0: t.sin[k] = s; t.cos[k] = c; break;
          case 1: t.sin[k] = c; t.cos[k] = -s; break;
          case 2: t.sin[k] = -s; t.cos[k] = -c; break;
          default: t.sin[k] = -c; t.cos[k] = s; break;
        }
    }
    return t;
}

constexpr TurnTable turnTable = makeTurnTable();

} // namespace

void
Rng::reseed(std::uint64_t seed)
{
    std::uint64_t x = seed;
    for (auto& s : s_)
        s = splitmix64(x);
    haveSpare_ = false;
}

std::uint64_t
Rng::next64()
{
    const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

double
Rng::uniform()
{
    // 53 high bits -> double in [0, 1).
    return static_cast<double>(next64() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::uint64_t
Rng::uniformInt(std::uint64_t lo, std::uint64_t hi)
{
    CG_ASSERT(lo <= hi, "uniformInt bounds inverted");
    const std::uint64_t span = hi - lo + 1;
    if (span == 0) // full 64-bit range
        return next64();
    // Modulo bias is negligible for simulation purposes (span << 2^64).
    return lo + next64() % span;
}

void
Rng::sinCosTurn(double u, double& s, double& c)
{
    // u = k/256 + f exactly; sin/cos(2*pi*f) by degree-7/6 Taylor
    // polynomials (|2*pi*f| < 0.0246, truncation < 4e-18), combined
    // with the table by the angle-addition formulas.
    const double scaled = u * 256.0;
    const int k = static_cast<int>(scaled);
    const double a = (scaled - k) * (M_PI / 128.0);
    const double a2 = a * a;
    const double sin_a =
        a + a * a2 * (-1.0 / 6 + a2 * (1.0 / 120 - a2 * (1.0 / 5040)));
    const double cos_a_m1 =
        a2 * (-1.0 / 2 + a2 * (1.0 / 24 - a2 * (1.0 / 720)));
    const double sk = turnTable.sin[k];
    const double ck = turnTable.cos[k];
    s = sk + (sk * cos_a_m1 + ck * sin_a);
    c = ck + (ck * cos_a_m1 - sk * sin_a);
}

double
Rng::drawPair(double& r, double& theta)
{
    double u1 = 0.0;
    do {
        u1 = uniform();
    } while (u1 <= 0.0);
    const double u2 = uniform();
    r = std::sqrt(-2.0 * std::log(u1));
    theta = 2.0 * M_PI * u2;
    double fast_cos = 0.0;
    sinCosTurn(u2, spareSin_, fast_cos);
    spareR_ = r;
    spareTheta_ = theta;
    haveSpare_ = true;
    return fast_cos;
}

double
Rng::normal()
{
    // Exact libm values: the fast sine and cosine serve jittered()
    // only, where a truncation can be certified.
    if (haveSpare_) {
        haveSpare_ = false;
        return spareR_ * std::sin(spareTheta_);
    }
    double r = 0.0;
    double theta = 0.0;
    drawPair(r, theta);
    return r * std::cos(theta);
}

double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

double
Rng::exponential(double mean)
{
    double u = 0.0;
    do {
        u = uniform();
    } while (u <= 0.0);
    return -mean * std::log(u);
}

bool
Rng::chance(double p)
{
    return uniform() < p;
}

Tick
Rng::jittered(Tick nominal, double rel_sd)
{
    if (nominal == 0 || rel_sd <= 0.0)
        return nominal;
    const double mean = static_cast<double>(nominal);
    const double sd = rel_sd * mean;
    double r = 0.0;
    double theta = 0.0;
    double fast = 0.0;
    const bool spare = haveSpare_;
    if (spare) {
        haveSpare_ = false;
        r = spareR_;
        theta = spareTheta_;
        fast = spareSin_;
    } else {
        fast = drawPair(r, theta);
    }
    // The exact deviate lies within `margin` of this estimate (about
    // 800 times the estimate's worst error), so when both ends of the
    // interval truncate alike, so does the exact value.
    const double estimate = mean + sd * (r * fast);
    const double margin = sd * (r + 1.0) * 0x1.0p-40 + mean * 0x1.0p-50;
    const double lo = estimate - margin;
    if (lo > 0.0) {
        const Tick t = static_cast<Tick>(lo);
        if (t == static_cast<Tick>(estimate + margin))
            return t;
    } else if (estimate + margin <= 0.0) {
        return 0;
    }
    ++jitterFallbacks_;
    const double v =
        mean + sd * (r * (spare ? std::sin(theta) : std::cos(theta)));
    return v <= 0.0 ? 0 : static_cast<Tick>(v);
}

Rng
Rng::fork()
{
    return Rng(next64());
}

} // namespace cg::sim
