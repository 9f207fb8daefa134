/** @file Tests for the bucketed bandwidth meter. */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "sim/bandwidth_meter.hh"

namespace abndp
{

TEST(BandwidthMeter, UncontendedStartsImmediately)
{
    BandwidthMeter m(1000);
    EXPECT_EQ(m.reserve(500, 100), 500u);
    EXPECT_EQ(m.reserve(5000, 100), 5000u);
}

TEST(BandwidthMeter, ZeroServiceIsFree)
{
    BandwidthMeter m(1000);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(m.reserve(10, 0), 10u);
}

TEST(BandwidthMeter, FullBucketSpillsToNext)
{
    BandwidthMeter m(1000);
    // Fill bucket [0, 1000) completely.
    EXPECT_EQ(m.reserve(0, 1000), 0u);
    // The next reservation at t=0 must start in the next bucket.
    Tick start = m.reserve(0, 100);
    EXPECT_GE(start, 1000u);
}

TEST(BandwidthMeter, CapacityIsNeverOverbooked)
{
    const Tick width = 256;
    BandwidthMeter m(width);
    // Issue many reservations at the same instant; aggregate service per
    // bucket can never exceed the bucket width, so the k-th reservation
    // must start no earlier than k * service / (width/service) buckets.
    const Tick service = 64;
    Tick lastStart = 0;
    for (int i = 0; i < 64; ++i)
        lastStart = std::max(lastStart, m.reserve(0, service));
    // 64 x 64 = 4096 ticks of service over 256-tick buckets: at least
    // 16 buckets are needed, so the last start is >= 15 * 256.
    EXPECT_GE(lastStart, 15 * width);
}

TEST(BandwidthMeter, BackfillDoesNotBlockEarlierTraffic)
{
    BandwidthMeter m(1000);
    // A reservation far in the future must not delay earlier requests —
    // the failure mode of the naive next-free-time model.
    m.reserve(1000000, 500);
    EXPECT_EQ(m.reserve(0, 100), 0u);
    EXPECT_EQ(m.reserve(2000, 100), 2000u);
}

TEST(BandwidthMeter, ResetClearsReservations)
{
    BandwidthMeter m(1000);
    m.reserve(0, 1000);
    m.reset();
    EXPECT_EQ(m.reserve(0, 1000), 0u);
}

TEST(BandwidthMeter, LargeServiceSpansBuckets)
{
    BandwidthMeter m(100);
    EXPECT_EQ(m.reserve(0, 250), 0u); // fills buckets 0,1 and half of 2
    // The next request must queue behind all of it.
    Tick next = m.reserve(0, 100);
    EXPECT_GE(next, 250u);
}

TEST(BandwidthMeter, BurstDelayGrowsWithBurstSize)
{
    BandwidthMeter light(1000), heavy(1000);
    Tick lightDelay = 0, heavyDelay = 0;
    // Bursts arriving at the same instant: the larger burst must spill
    // into later buckets and accumulate more queueing delay.
    for (int i = 0; i < 8; ++i)
        lightDelay += light.reserve(0, 200);
    for (int i = 0; i < 40; ++i)
        heavyDelay += heavy.reserve(0, 200);
    EXPECT_LT(lightDelay / 8, heavyDelay / 40);
}

TEST(BandwidthMeter, ChurnedMeterLeavesNoStaleEntries)
{
    // Backlogged, sparse and spilling reservations cycle pages through
    // discardBefore(), the congestion cursor's self-retirement, the
    // spare stash and reset(); the touched marks must cover every
    // entry written and the stash must hold only clean pages.
    const Tick width = 256;
    BandwidthMeter m(width);
    Rng gen(17);
    Tick fence = 0;
    for (int round = 0; round < 2; ++round) {
        for (int w = 0; w < 400; ++w) {
            const bool dense = w % 100 < 10;
            const int n = dense ? 400 : 8;
            for (int i = 0; i < n; ++i)
                m.reserve(fence + gen.below(256 * width),
                          1 + gen.below(dense ? 2 * width : width + 8));
            fence += 256 * width;
            m.discardBefore(fence);
            ASSERT_EQ(m.staleEntries(), 0u) << "window " << w;
        }
        m.reset();
        fence = 0;
        EXPECT_EQ(m.staleEntries(), 0u);
        EXPECT_EQ(m.bucketsInUse(), 0u);
    }
}

} // namespace abndp
