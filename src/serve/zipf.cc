#include "serve/zipf.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/logging.hh"

namespace abndp
{
namespace serve
{

ZipfianSampler::ZipfianSampler(std::uint64_t n, double s)
{
    abndp_assert(n > 0, "Zipfian sampler needs a nonempty key space");
    abndp_assert(s >= 0.0, "Zipfian exponent must be non-negative");
    cdf.resize(n);
    // Sequential accumulation in a fixed order keeps the table (and
    // therefore every sampled key) bit-identical across hosts; the
    // reference sampler rebuilds it the same way.
    double total = 0.0;
    for (std::uint64_t k = 0; k < n; ++k) {
        total += std::pow(static_cast<double>(k + 1), -s);
        cdf[k] = total;
    }
    for (std::uint64_t k = 0; k < n; ++k)
        cdf[k] /= total;
    // Guard against rounding leaving the last bucket unreachable.
    cdf[n - 1] = 1.0;

    // Eight keys per slice on average: the slice search then stays
    // within a few cache lines of the CDF (docs/ARCHITECTURE.md §10).
    const std::uint64_t m =
        std::bit_floor(std::max<std::uint64_t>(n / 8, 1));
    guide.resize(m + 1);
    std::uint64_t k = 0;
    for (std::uint64_t j = 0; j <= m; ++j) {
        const double edge =
            static_cast<double>(j) / static_cast<double>(m);
        while (k < n && !(edge < cdf[k]))
            ++k;
        guide[j] = k;
    }
}

std::uint64_t
ZipfianSampler::keyFor(double u) const
{
    // j = floor(u * m) is exact, so j/m <= u < (j+1)/m and the first
    // key whose cumulative probability exceeds u lies in
    // [guide[j], guide[j+1]]: searching only there with the predicate
    // of a linear scan agrees with it on every draw. u >= 1 (and NaN)
    // takes the last slice and falls off its end like a whole-table
    // search would; u < 0 takes the first.
    const std::uint64_t m = guide.size() - 1;
    const double x = u * static_cast<double>(m);
    const std::uint64_t j = x < static_cast<double>(m)
        ? (x > 0 ? static_cast<std::uint64_t>(x) : 0)
        : m - 1;
    const double *lo = cdf.data() + guide[j];
    const double *hi = cdf.data() + guide[j + 1];
    const double *it = std::upper_bound(lo, hi, u);
    if (it == cdf.data() + cdf.size())
        --it;
    return static_cast<std::uint64_t>(it - cdf.data());
}

std::uint64_t
ZipfianSampler::operator()(Rng &rng) const
{
    return keyFor(rng.uniform());
}

double
ZipfianSampler::probabilityOf(std::uint64_t k) const
{
    abndp_assert(k < cdf.size());
    return k == 0 ? cdf[0] : cdf[k] - cdf[k - 1];
}

} // namespace serve
} // namespace abndp
