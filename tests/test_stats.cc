/** @file Unit tests for the statistics framework. */

#include <gtest/gtest.h>

#include <cmath>

#include "common/stats.hh"

namespace abndp
{
namespace stats
{

TEST(Counter, IncrementAndAdd)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c += 41;
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Scalar, AccumulatesDoubles)
{
    Scalar s;
    s += 1.5;
    s += 2.5;
    EXPECT_DOUBLE_EQ(s.value(), 4.0);
    s.set(7.0);
    EXPECT_DOUBLE_EQ(s.value(), 7.0);
}

TEST(Distribution, TracksMoments)
{
    Distribution d;
    for (double v : {2.0, 4.0, 6.0, 8.0})
        d.sample(v);
    EXPECT_EQ(d.samples(), 4u);
    EXPECT_DOUBLE_EQ(d.mean(), 5.0);
    EXPECT_DOUBLE_EQ(d.min(), 2.0);
    EXPECT_DOUBLE_EQ(d.max(), 8.0);
    EXPECT_DOUBLE_EQ(d.total(), 20.0);
    EXPECT_NEAR(d.stddev(), std::sqrt(5.0), 1e-9);
}

TEST(Distribution, EmptyIsSafe)
{
    Distribution d;
    EXPECT_EQ(d.samples(), 0u);
    EXPECT_DOUBLE_EQ(d.mean(), 0.0);
    EXPECT_DOUBLE_EQ(d.stddev(), 0.0);
}

TEST(Histogram, BucketsAndOverflow)
{
    Histogram h(0.0, 10.0, 5);
    h.sample(-1.0);
    h.sample(0.0);
    h.sample(3.0);
    h.sample(9.99);
    h.sample(10.0);
    h.sample(100.0);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_EQ(h.buckets()[0], 1u);
    EXPECT_EQ(h.buckets()[1], 1u);
    EXPECT_EQ(h.buckets()[4], 1u);
}

} // namespace stats
} // namespace abndp
