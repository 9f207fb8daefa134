/**
 * @file
 * Exact inverse-CDF Zipfian key sampler for the serving driver.
 *
 * Unlike the closed-form approximations common in YCSB-style load
 * generators, this sampler precomputes the full cumulative
 * distribution over the key space once (sequential accumulation, so
 * the table is bit-identical on every host) and inverts one uniform
 * draw u by binary search inside one slice of a guide table. The
 * table splits [0, 1] into m equal slices, m a power of two near n/8,
 * and records the first key whose CDF exceeds each slice's lower
 * edge; since u * m and j / m are exact in double for a power-of-two
 * m, the key for u lies between slice floor(u * m)'s entry and the
 * next one, so the short search returns exactly what a search of the
 * whole table would. The contract is exactly reproducible by a linear
 * scan over the same CDF, which is what the differential test
 * (tests/test_differential.cc, check::RefZipfSampler) exploits:
 * identical uniform draws must yield identical keys, bit for bit.
 *
 * s = 0 degenerates to a uniform sampler; larger s concentrates mass
 * on low-numbered keys (P(k) proportional to 1 / (k+1)^s).
 */

#ifndef ABNDP_SERVE_ZIPF_HH
#define ABNDP_SERVE_ZIPF_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"

namespace abndp
{
namespace serve
{

/** Seeded Zipfian sampler over keys [0, n) with exponent s. */
class ZipfianSampler
{
  public:
    /** Precompute the CDF and guide tables for @p n keys and exponent
     *  @p s. */
    ZipfianSampler(std::uint64_t n, double s);

    /** Draw one key using exactly one uniform draw from @p rng. */
    std::uint64_t operator()(Rng &rng) const;

    /** Invert one uniform value in [0, 1) (shared with the tests). */
    std::uint64_t keyFor(double u) const;

    /** Exact probability of key @p k (empirical-frequency tests). */
    double probabilityOf(std::uint64_t k) const;

    std::uint64_t numKeys() const { return cdf.size(); }

    /** Slices m of the guide table; the tests probe each edge j/m. */
    std::uint64_t guideSlices() const { return guide.size() - 1; }

  private:
    /** cdf[k] = P(key <= k); cdf.back() == 1.0 by construction. */
    std::vector<double> cdf;
    /**
     * m + 1 entries: guide[j] is the first key whose CDF exceeds j/m
     * (guide[m] == n, as nothing exceeds 1). m = guide.size() - 1.
     */
    std::vector<std::uint64_t> guide;
};

} // namespace serve
} // namespace abndp

#endif // ABNDP_SERVE_ZIPF_HH
