/**
 * @file
 * Pins Rng::jittered()'s fast path to the libm computation it replaces.
 *
 * jittered() takes the deviate's sine or cosine from a table and short
 * polynomials and certifies the truncation against an error margin,
 * falling back to libm when it cannot (DESIGN.md section 6, item 8).
 * ReferenceRng below keeps the generator's normal() and jittered() as
 * they were before that fast path, verbatim, over the same xoshiro
 * stream; the property test drives both through long random mixes of
 * every draw and compares each output bit for bit. The accuracy test
 * bounds the fast sine and cosine against libm directly.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "sim/rng.hh"

namespace cg::sim {

/** Test-only access to Rng's private fast path. */
struct RngInspector {
    static std::uint64_t
    jitterFallbacks(const Rng& r)
    {
        return r.jitterFallbacks_;
    }

    static void
    sinCosTurn(double u, double& s, double& c)
    {
        Rng::sinCosTurn(u, s, c);
    }
};

} // namespace cg::sim

using namespace cg::sim;

namespace {

/** normal() and jittered() before the fast path, verbatim. */
class ReferenceRng
{
  public:
    explicit ReferenceRng(std::uint64_t seed) : base_(seed) {}

    bool hasSpare() const { return haveSpareNormal_; }

    double uniform() { return base_.uniform(); }

    double
    normal()
    {
        if (haveSpareNormal_) {
            haveSpareNormal_ = false;
            return spareNormal_;
        }
        double u1 = 0.0;
        do {
            u1 = uniform();
        } while (u1 <= 0.0);
        const double u2 = uniform();
        const double r = std::sqrt(-2.0 * std::log(u1));
        const double theta = 2.0 * M_PI * u2;
        spareNormal_ = r * std::sin(theta);
        haveSpareNormal_ = true;
        return r * std::cos(theta);
    }

    double
    normal(double mean, double stddev)
    {
        return mean + stddev * normal();
    }

    double
    exponential(double mean)
    {
        double u = 0.0;
        do {
            u = uniform();
        } while (u <= 0.0);
        return -mean * std::log(u);
    }

    bool chance(double p) { return uniform() < p; }

    Tick
    jittered(Tick nominal, double rel_sd)
    {
        if (nominal == 0 || rel_sd <= 0.0)
            return nominal;
        const double v =
            normal(static_cast<double>(nominal),
                   rel_sd * static_cast<double>(nominal));
        return v <= 0.0 ? 0 : static_cast<Tick>(v);
    }

    ReferenceRng fork() { return ReferenceRng(base_.next64()); }

    void
    reseed(std::uint64_t seed)
    {
        base_.reseed(seed);
        haveSpareNormal_ = false;
    }

  private:
    Rng base_; ///< only its uniform stream is used
    bool haveSpareNormal_ = false;
    double spareNormal_ = 0.0;
};

/** A nominal and spread jittered() sees in the model or at its edges. */
struct JitterArgs {
    Tick nominal;
    double relSd;
};

JitterArgs
pickJitter(Rng& pick)
{
    // The model's costs (hw::Costs, 20 ns .. 4 ms at 3%) and the
    // workloads' spreads (5%, 8%, 15%).
    static constexpr Tick nominals[] = {
        20 * nsec,  45 * nsec,   90 * nsec,   260 * nsec, 750 * nsec,
        800 * nsec, 1900 * nsec, 5700 * nsec, 20 * usec,  3 * msec,
        4 * msec};
    static constexpr double spreads[] = {0.03, 0.05, 0.08, 0.15};
    // Edges: picosecond nominals, where most outcomes sit near an
    // integer; huge spreads, which go negative; and nominals near
    // 2^53, where the margin exceeds one tick and libm must decide.
    static constexpr double wide[] = {0.5, 1.0, 2.0, 3.0};
    const std::uint64_t kind = pick.uniformInt(0, 9);
    if (kind < 6)
        return {nominals[pick.uniformInt(0, 10)],
                spreads[pick.uniformInt(0, 3)]};
    if (kind == 6)
        return {pick.uniformInt(1, 7), wide[pick.uniformInt(0, 3)]};
    if (kind == 7)
        return {pick.uniformInt(1, 7), spreads[pick.uniformInt(0, 3)]};
    if (kind == 8)
        return {(Tick{1} << 53) - pick.uniformInt(0, 4096) +
                    pick.uniformInt(0, 4096),
                pick.uniformInt(0, 1) ? wide[pick.uniformInt(0, 3)]
                                      : spreads[pick.uniformInt(0, 3)]};
    // A spread of 0 or below returns the nominal unchanged.
    return {pick.uniformInt(0, 1) * 1000 * nsec,
            pick.uniformInt(0, 1) ? 0.0 : 0.03};
}

bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

} // namespace

TEST(RngProperty, JitteredMatchesReference)
{
    constexpr int calls = 10'000'000;
    for (const std::uint64_t seed : {0x5eed0c0deull, 20261018ull}) {
        Rng rng(seed);
        ReferenceRng ref(seed);
        Rng pick(seed ^ 0x9e3779b97f4a7c15ull);
        // Which kind of draw left the current spare deviate, to count
        // spares handed across in both directions.
        bool spare_by_normal = false;
        std::uint64_t normal_to_jitter = 0;
        std::uint64_t jitter_to_normal = 0;
        std::uint64_t jitters = 0;
        const std::uint64_t fallbacks_before =
            RngInspector::jitterFallbacks(rng);
        for (int i = 0; i < calls; ++i) {
            const std::uint64_t op = pick.uniformInt(0, 99);
            const bool had_spare = ref.hasSpare();
            const bool by_normal = op >= 55 && op < 80;
            double want = 0.0;
            double got = 0.0;
            if (op < 55) {
                const JitterArgs a = pickJitter(pick);
                const Tick want_tick = ref.jittered(a.nominal, a.relSd);
                const Tick got_tick = rng.jittered(a.nominal, a.relSd);
                ++jitters;
                if (got_tick != want_tick) {
                    FAIL() << "seed " << seed << " call " << i
                           << ": jittered(" << a.nominal << ", "
                           << a.relSd << ") = " << got_tick
                           << ", reference " << want_tick;
                }
            } else if (op < 75) {
                want = ref.normal();
                got = rng.normal();
            } else if (op < 80) {
                const double mean = pick.uniform(-50.0, 50.0);
                const double sd = pick.uniform(0.0, 10.0);
                want = ref.normal(mean, sd);
                got = rng.normal(mean, sd);
            } else if (op < 88) {
                want = ref.uniform();
                got = rng.uniform();
            } else if (op < 94) {
                const double mean = pick.uniform(0.1, 1e6);
                want = ref.exponential(mean);
                got = rng.exponential(mean);
            } else if (op < 99) {
                const double p = pick.uniform();
                want = ref.chance(p);
                got = rng.chance(p);
            } else if (pick.uniformInt(0, 3) != 0) {
                // The children are fresh generators with equal seeds.
                ReferenceRng ref_child = ref.fork();
                Rng child = rng.fork();
                want = ref_child.normal() +
                       static_cast<double>(
                           ref_child.jittered(800 * nsec, 0.03));
                got = child.normal() +
                      static_cast<double>(child.jittered(800 * nsec, 0.03));
            } else {
                const std::uint64_t s = pick.next64();
                ref.reseed(s);
                rng.reseed(s);
            }
            if (!sameBits(got, want)) {
                FAIL() << "seed " << seed << " call " << i << " (op "
                       << op << "): " << got << " != reference " << want;
            }
            if (op < 80 && had_spare && !ref.hasSpare()) {
                if (by_normal && !spare_by_normal)
                    ++jitter_to_normal;
                if (!by_normal && spare_by_normal)
                    ++normal_to_jitter;
            }
            if (!had_spare && ref.hasSpare())
                spare_by_normal = by_normal;
        }
        EXPECT_GT(jitters, static_cast<std::uint64_t>(calls) / 2);
        EXPECT_GT(normal_to_jitter, 0u);
        EXPECT_GT(jitter_to_normal, 0u);
        // The near-2^53 nominals cannot be certified, so libm ran.
        EXPECT_GT(RngInspector::jitterFallbacks(rng), fallbacks_before);
    }
}

TEST(RngFastSinCos, WithinTwoToMinus48OfLibm)
{
    const double bound = std::ldexp(1.0, -48);
    auto check = [bound](double u) {
        double s = 0.0;
        double c = 0.0;
        RngInspector::sinCosTurn(u, s, c);
        const double theta = 2.0 * M_PI * u;
        EXPECT_LE(std::fabs(s - std::sin(theta)), bound) << "u = " << u;
        EXPECT_LE(std::fabs(c - std::cos(theta)), bound) << "u = " << u;
    };
    Rng r(61);
    for (int i = 0; i < 1'000'000; ++i) {
        double s = 0.0;
        double c = 0.0;
        const double u = r.uniform();
        RngInspector::sinCosTurn(u, s, c);
        const double theta = 2.0 * M_PI * u;
        if (std::fabs(s - std::sin(theta)) > bound ||
            std::fabs(c - std::cos(theta)) > bound) {
            FAIL() << "u = " << u << ": sin " << s << " vs "
                   << std::sin(theta) << ", cos " << c << " vs "
                   << std::cos(theta);
        }
    }
    // The table's edges: each whole 1/256 turn and one ulp either side.
    check(0.0);
    check(std::nextafter(0.0, 1.0));
    for (int k = 1; k < 256; ++k) {
        const double u = k / 256.0;
        check(std::nextafter(u, 0.0));
        check(u);
        check(std::nextafter(u, 1.0));
    }
    check(1.0 - std::ldexp(1.0, -53));
}
