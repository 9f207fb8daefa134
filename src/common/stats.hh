/**
 * @file
 * Lightweight statistics framework in the spirit of gem5's Stats package.
 *
 * Components own counters/scalars/distributions/histograms and register
 * them under a named node of the per-system obs::StatsRegistry
 * (obs/stats_registry.hh), which dumps the whole tree.
 */

#ifndef ABNDP_COMMON_STATS_HH
#define ABNDP_COMMON_STATS_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"

namespace abndp
{
namespace stats
{

/** Monotonically increasing event counter. */
class Counter
{
  public:
    Counter &operator++() { ++count; return *this; }
    Counter &operator+=(std::uint64_t n) { count += n; return *this; }
    void reset() { count = 0; }
    std::uint64_t value() const { return count; }

  private:
    std::uint64_t count = 0;
};

/** Arbitrary floating-point accumulator (e.g., picojoules). */
class Scalar
{
  public:
    Scalar &operator+=(double v) { total += v; return *this; }
    void set(double v) { total = v; }
    void reset() { total = 0.0; }
    double value() const { return total; }

  private:
    double total = 0.0;
};

/** Running min/max/mean/stddev over observed samples. */
class Distribution
{
  public:
    void
    sample(double v)
    {
        ++n;
        sum += v;
        sumSq += v * v;
        if (v < minV || n == 1)
            minV = v;
        if (v > maxV || n == 1)
            maxV = v;
    }

    void
    reset()
    {
        n = 0;
        sum = sumSq = 0.0;
        minV = maxV = 0.0;
    }

    std::uint64_t samples() const { return n; }
    double mean() const { return n ? sum / n : 0.0; }
    double total() const { return sum; }
    double min() const { return minV; }
    double max() const { return maxV; }
    double variance() const;
    double stddev() const;

  private:
    std::uint64_t n = 0;
    double sum = 0.0;
    double sumSq = 0.0;
    double minV = 0.0;
    double maxV = 0.0;
};

/** Fixed-bucket histogram over [lo, hi) with overflow/underflow bins. */
class Histogram
{
  public:
    Histogram() = default;

    Histogram(double lo_, double hi_, std::size_t buckets)
    {
        init(lo_, hi_, buckets);
    }

    void
    init(double lo_, double hi_, std::size_t buckets)
    {
        abndp_assert(hi_ > lo_ && buckets > 0);
        lo = lo_;
        hi = hi_;
        bins.assign(buckets, 0);
        under = over = 0;
    }

    void
    sample(double v)
    {
        abndp_assert(!bins.empty(), "histogram not initialized");
        if (v < lo) {
            ++under;
        } else if (v >= hi) {
            ++over;
        } else {
            auto idx = static_cast<std::size_t>(
                (v - lo) / (hi - lo) * bins.size());
            if (idx >= bins.size())
                idx = bins.size() - 1;
            ++bins[idx];
        }
    }

    const std::vector<std::uint64_t> &buckets() const { return bins; }
    std::uint64_t underflow() const { return under; }
    std::uint64_t overflow() const { return over; }

  private:
    double lo = 0.0;
    double hi = 1.0;
    std::vector<std::uint64_t> bins;
    std::uint64_t under = 0;
    std::uint64_t over = 0;
};

} // namespace stats
} // namespace abndp

#endif // ABNDP_COMMON_STATS_HH
