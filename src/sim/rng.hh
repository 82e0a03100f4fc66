/**
 * @file
 * Deterministic pseudo-random number generation for the simulator.
 *
 * We implement xoshiro256++ (Blackman & Vigna) rather than relying on
 * std::mt19937 so that simulation results are bit-identical across
 * standard-library implementations. All randomness in a Simulation flows
 * from one seeded Rng; identical seeds therefore give identical runs
 * (invariant I9 in DESIGN.md).
 */

#ifndef CG_SIM_RNG_HH
#define CG_SIM_RNG_HH

#include <cstdint>

#include "sim/types.hh"

namespace cg::sim {

/**
 * Advance a splitmix64 state and return the next output. Used for Rng
 * seeding and for deriving independent per-run seeds in sweeps (see
 * ParallelRunner::deriveSeeds); exposed so seed derivation is identical
 * everywhere.
 */
std::uint64_t splitmix64(std::uint64_t& state);

/** xoshiro256++ PRNG with splitmix64 seeding. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x5eed0c0de) { reseed(seed); }

    /** Re-initialise the state from a 64-bit seed. */
    void reseed(std::uint64_t seed);

    /** Next raw 64-bit value. */
    std::uint64_t next64();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [lo, hi] (inclusive). */
    std::uint64_t uniformInt(std::uint64_t lo, std::uint64_t hi);

    /** Standard normal deviate (Box-Muller, cached pair). */
    double normal();

    /** Normal deviate with given mean and standard deviation. */
    double normal(double mean, double stddev);

    /** Exponential deviate with the given mean. */
    double exponential(double mean);

    /** Bernoulli trial with probability p of true. */
    bool chance(double p);

    /**
     * A simulated duration jittered around a nominal value.
     *
     * Returns max(0, normal(nominal, rel_sd * nominal)) as a Tick. Used by
     * cost models to produce realistic +/- spreads deterministically.
     * Bit-identical to truncating that normal() expression, but it
     * usually takes the deviate's sine or cosine from a fast
     * approximation and proves the truncation unaffected (DESIGN.md
     * section 6, item 8).
     */
    Tick jittered(Tick nominal, double rel_sd);

    /** Derive an independent child generator (for per-component streams). */
    Rng fork();

  private:
    friend struct RngInspector;

    /**
     * sin and cos of 2*pi*u for u in [0, 1), from a table of whole
     * 1/256 turns and short polynomials; within ~1.1e-15 of libm's
     * sin/cos of theta = 2.0 * M_PI * u.
     */
    static void sinCosTurn(double u, double& s, double& c);

    /**
     * Draw a fresh Box-Muller pair: set @p r and @p theta, keep the
     * sine half as the spare, and return the fast cosine of theta.
     */
    double drawPair(double& r, double& theta);

    std::uint64_t s_[4];
    /**
     * The spare half of the last pair, kept lazy: its deviate is
     * spareR_ * std::sin(spareTheta_), and spareSin_ is the fast sine
     * of spareTheta_.
     */
    bool haveSpare_ = false;
    double spareR_ = 0.0;
    double spareTheta_ = 0.0;
    double spareSin_ = 0.0;
    /** jittered() calls that needed libm's sin/cos (for tests). */
    std::uint64_t jitterFallbacks_ = 0;
};

} // namespace cg::sim

#endif // CG_SIM_RNG_HH
