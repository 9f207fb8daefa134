/**
 * @file
 * Bucketed bandwidth accounting for contended resources (DRAM banks,
 * crossbar ports, mesh links).
 *
 * A naive per-resource next-free-time is unstable under the simulator's
 * task-granularity timing (reservations arrive out of time order): one
 * reservation far in the future blocks every later-processed request with
 * an earlier start time, and the backlog feeds on itself. The meter
 * instead divides time into fixed buckets of service capacity and lets
 * requests backfill the earliest bucket with room, which converges to the
 * same steady-state queueing delay as a FIFO server without the runaway.
 *
 * reserve() is the single hottest call in the simulator (every DRAM
 * access and every mesh hop reserves a bucket), so buckets live in flat
 * fixed-size pages found through a last-page cache — no hashing and no
 * per-reservation allocation — while time-sparse use (a bank idle for a
 * simulated hour) still costs one page, not a dense array. The meter
 * also keeps that last page's first bucket and fill row itself, so the
 * fast path reads a bucket's fill with one dependent load instead of
 * three (the page count, the page's first bucket, its fill pointer).
 *
 * A bucket's fill never exceeds the bucket width, so fills are stored
 * as 32 bits and the width is bounded by UINT32_MAX ticks (~4.29 ms at
 * 1 ps per tick): a page's fill row is 1 KB, and a page 1.5 KB with its
 * skip row. Every meter in the simulator is far below the bound: links,
 * ports and banks use 256 ns buckets, and the DDR ACT meter one tFAW
 * window, which SystemConfig::validationError() bounds.
 *
 * Pages are retired once simulated time has passed them: the run loop
 * fences time every fenceInterval (half a page of 256 ns buckets) and
 * calls discardBefore(), so a meter holds the pages its backlog ahead
 * of now needs plus about two, not a whole epoch's worth. The meter
 * remembers how far it has retired pages (its retirement floor) and
 * panics if a reservation would need a page wholly below it: the fence
 * contract is checked, not assumed.
 */

#ifndef ABNDP_SIM_BANDWIDTH_METER_HH
#define ABNDP_SIM_BANDWIDTH_METER_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace abndp
{

/** Earliest-fit bucketed reservation of a serially shared resource. */
class BandwidthMeter
{
  public:
    /** Bucket width of the link, port and DRAM bank meters. */
    static constexpr Tick defaultBucketTicks = 256 * ticksPerNs;
    /** Buckets per page; a power of two. */
    static constexpr std::uint64_t pageBuckets = 256;
    /**
     * Simulated time between discardBefore() fences: half a page of
     * default-width buckets, so such a meter keeps at most two pages
     * behind now between fences.
     */
    static constexpr Tick fenceInterval =
        pageBuckets * defaultBucketTicks / 2;

    /**
     * @param bucketTicks bucket width. A service may be longer than
     *        one bucket (the DRAM backends reserve 260 ns refreshes on
     *        the default 256 ns buckets): reserve() pours it into the
     *        free room of consecutive buckets until all of it is
     *        booked. At most UINT32_MAX ticks: fills are 32 bits.
     */
    explicit BandwidthMeter(Tick bucketTicks = defaultBucketTicks)
        : width(bucketTicks)
    {
        abndp_assert(width > 0);
        abndp_assert(width <= std::numeric_limits<Fill>::max(),
                     "bucket width ", width,
                     " ticks does not fit a 32-bit fill");
    }

    /**
     * A copy caches its own pages' row, not the source's. There is no
     * move: it would leave the source's row in the destination's pages,
     * so a move copies.
     */
    BandwidthMeter(const BandwidthMeter &other)
        : width(other.width),
          pages(other.pages),
          lastIdx(other.lastIdx),
          lastBucket(other.lastBucket),
          lastBucketStart(other.lastBucketStart),
          minFreeBucket(other.minFreeBucket),
          nTouched(other.nTouched),
          retiredMaxFill(other.retiredMaxFill),
          retireFloor(other.retireFloor),
          peakPages(other.peakPages),
          spares(other.spares)
    {
        syncRow();
    }

    BandwidthMeter &
    operator=(const BandwidthMeter &other)
    {
        width = other.width;
        pages = other.pages;
        lastIdx = other.lastIdx;
        lastBucket = other.lastBucket;
        lastBucketStart = other.lastBucketStart;
        minFreeBucket = other.minFreeBucket;
        nTouched = other.nTouched;
        retiredMaxFill = other.retiredMaxFill;
        retireFloor = other.retireFloor;
        peakPages = other.peakPages;
        spares = other.spares;
        syncRow();
        return *this;
    }

    /**
     * Reserve @p service ticks of the resource at or after @p t; large
     * services span consecutive buckets.
     * @return the tick at which service begins (>= @p t).
     */
    Tick
    reserve(Tick t, Tick service)
    {
        if (service == 0)
            return t;

        // Resolve t's bucket number without the 64-bit division when t
        // falls in the same bucket as the previous reservation — on a
        // hot meter nearly every time.
        std::uint64_t b;
        if (t >= lastBucketStart && t - lastBucketStart < width) {
            b = lastBucket;
        } else {
            b = t / width;
            lastBucket = b;
            lastBucketStart = b * width;
        }

        // Congestion cursor: fills only grow between resets, so every
        // bucket below minFreeBucket is known full and the skip loop
        // would walk straight across it — jump over the whole run. On
        // a saturated meter this turns the O(backlog) scan per
        // reservation into O(1).
        if (b < minFreeBucket)
            b = minFreeBucket;

        // Fast path covering almost every reservation: the bucket lives
        // in the most recently touched page and has room for the whole
        // service, so the skip loop would stop right here and the pour
        // loop would drain in one take.
        const std::uint64_t first = b & ~(pageBuckets - 1);
        if (first == curFirst) {
            Fill &used = curRow[b - first];
            if (used + service <= width) {
                if (used == 0) {
                    ++nTouched;
                    markTouched(pages[lastIdx], b - first);
                }
                Tick begin = b * width + used;
                used = static_cast<Fill>(used + service);
                return begin < t ? t : begin;
            }
        }
        return reserveSlow(t, b, service);
    }

  private:
    /** reserve() continuation past the single-bucket fast path. */
    Tick
    reserveSlow(Tick t, std::uint64_t b, Tick service)
    {
        const std::uint64_t scanStart = b;

        // Skip full buckets, scanning each page's flat fill row in
        // place — the page is resolved once per page, not once per
        // bucket. An absent page is all-empty, so the scan stops at
        // its first bucket.
        //
        // Full buckets additionally carry a skip pointer (skip[i] > i
        // means buckets [i, skip[i]) are all full). A bucket's fill
        // only grows between resets, so a recorded fact never expires
        // and jumping the run lands exactly where the linear scan
        // would. Entry-point compression plus path halving keep the
        // chains short, so a reservation behind a deep backlog (a hub
        // bank under design B) costs amortized O(1) instead of
        // O(backlog) — without this the scan is quadratic in the
        // backlog length over a congested run.
        // Pages carry a second, cross-page fact: fullUpTo > 0 means
        // every bucket in [page.first, fullUpTo) is full — fullUpTo
        // may point far beyond the page, so a scan entering anywhere
        // under it jumps straight to the proven frontier in one hop.
        // Pages the scan proves full (contiguously from their start)
        // are collected and stamped with the landing bucket, so the
        // frontier fact compresses toward O(1) hops per scan even
        // when the backlog spans hundreds of pages.
        Tick beginFill = 0;
        Page *proven[maxProven];
        std::uint32_t nProven = 0;
        while (true) {
            const std::uint64_t first = b & ~(pageBuckets - 1);
            Page *p = findPage(first);
            if (!p)
                break;
            if (p->fullUpTo > b) {
                // [first, fullUpTo) is full and stays so; contiguity
                // with the walk lets the landing extend this fact.
                if (nProven < maxProven)
                    proven[nProven++] = p;
                b = p->fullUpTo;
                continue;
            }
            const Fill *fill = p->fill.data();
            std::uint16_t *skip = p->skip.data();
            std::uint64_t idx = b - first;
            const std::uint64_t entry = idx;
            while (idx < pageBuckets) {
                const std::uint32_t nxt = skip[idx];
                if (nxt > idx) {
                    // Path halving: point at the jump target's own
                    // target so the next walker takes one hop fewer.
                    const std::uint32_t nn =
                        nxt < pageBuckets ? skip[nxt] : 0;
                    if (nn > nxt)
                        skip[idx] = static_cast<std::uint16_t>(nn);
                    idx = nxt;
                    continue;
                }
                if (fill[idx] >= width) {
                    skip[idx] = static_cast<std::uint16_t>(idx + 1);
                    ++idx;
                    continue;
                }
                break;
            }
            if (idx > entry)
                skip[entry] = static_cast<std::uint16_t>(idx);
            if (idx < pageBuckets) {
                b = first + idx;
                beginFill = fill[idx];
                break;
            }
            // The page is full from the entry on; it qualifies for a
            // fullUpTo stamp only when also full from its start
            // (entered at offset 0, or the existing fact covers the
            // prefix), keeping the [first, fullUpTo) meaning exact.
            if ((entry == 0 || p->fullUpTo >= first + entry)
                && nProven < maxProven)
                proven[nProven++] = p;
            b = first + pageBuckets;
        }

        // Stamp before the pour loop: ensurePage() may insert into the
        // pages vector and invalidate the collected pointers.
        for (std::uint32_t i = 0; i < nProven; ++i)
            if (b > proven[i]->fullUpTo)
                proven[i]->fullUpTo = b;

        // Every bucket in [scanStart, b) was full; if the scan began
        // at the known-full prefix's end, the prefix now extends to b.
        // Pages wholly under the advanced cursor self-retire on the
        // spot: reserve() clamps every start bucket up to
        // minFreeBucket, so nothing can ever scan or pour below it —
        // no fence needed, and a saturated meter keeps O(1) live
        // pages instead of accreting one per page span of simulated
        // congestion. (Runs after the proven[] stamps above;
        // retirement invalidates page pointers.)
        if (scanStart <= minFreeBucket && b > minFreeBucket) {
            minFreeBucket = b;
            retirePagesBelow(minFreeBucket);
        }

        // Requests landing mid-bucket start no earlier than t; the
        // bucket's fill level approximates the queue ahead of them.
        Tick begin = b * width + beginFill;
        if (begin < t)
            begin = t;

        // Pour the service into consecutive buckets page by page. A
        // page entered with work remaining gets created exactly as the
        // bucket-at-a-time loop would have: its first bucket is empty,
        // so the first take there is positive.
        Tick remaining = service;
        while (true) {
            const std::uint64_t first = b & ~(pageBuckets - 1);
            Page &pg = ensurePage(first);
            Fill *fill = pg.fill.data();
            std::uint16_t *skip = pg.skip.data();
            for (std::uint64_t idx = b - first; idx < pageBuckets;
                 ++idx) {
                Fill &used = fill[idx];
                Tick free = width - used;
                Tick take = remaining < free ? remaining : free;
                if (take > 0 && used == 0) {
                    ++nTouched;
                    markTouched(pg, idx);
                }
                used = static_cast<Fill>(used + take);
                remaining -= take;
                if (used >= width)
                    skip[idx] = static_cast<std::uint16_t>(idx + 1);
                if (remaining == 0) {
                    // The scan and the pour moved lastIdx, and page
                    // inserts or retirement may have moved pages.
                    syncRow();
                    return begin;
                }
            }
            b = first + pageBuckets;
        }
    }

  public:
    /**
     * Drop all reservations (e.g., between independent runs); pages
     * are cleaned in place, touched groups only, so the next run
     * allocates nothing. The retirement floor returns to 0.
     */
    void
    reset()
    {
        for (Page &p : pages)
            cleanPage(p);
        nTouched = 0;
        minFreeBucket = 0;
        retiredMaxFill = 0;
        retireFloor = 0;
        syncRow();
    }

    /**
     * Retire pages that end strictly before @p t's bucket. Sound only
     * when the caller guarantees every future reserve() on this meter
     * uses a start tick >= @p t: reservations only scan and pour
     * forward from their start bucket, so buckets wholly below it are
     * unreachable and their storage can be reclaimed. NdpSystem's run
     * loop calls it (through MemSystem) at a time fence at least every
     * fenceInterval of simulated time, which bounds live pages to the
     * backlog ahead of now instead of an epoch's or the whole
     * timeline's. Retired storage is cleaned, stashed and recycled by
     * ensurePage(), so a steady run allocates nothing. A page cycled
     * this way costs time per touched group of buckets, not per
     * bucket: a sparse meter (a DRAM bank seeing only refreshes)
     * cycles many pages holding a few reservations each.
     *
     * A retirement raises the meter's retirement floor to @p t's
     * bucket (it never falls until reset()): a later reservation that
     * needs a page wholly below the floor panics naming it, so a
     * caller that breaks the contract cannot get a grant out of a
     * retired page.
     *
     * Observational state is preserved exactly: retired pages' peak
     * fill folds into maxBucketFill() and bucketsInUse() keeps its
     * count, so audits and stats cannot tell a discard happened.
     */
    void
    discardBefore(Tick t)
    {
        // Most fences pass no page's end: tell that by a multiply, not
        // the division a bucket number takes.
        if (!pages.empty()
            && (pages.front().first + pageBuckets) * width <= t)
            retirePagesBelow(t / width);
    }

    /** Buckets holding at least one reservation. */
    std::size_t bucketsInUse() const { return nTouched; }

    // ---- Audit accessors (src/check invariant: fill <= width) ----

    /** Configured bucket width in ticks. */
    Tick bucketWidth() const { return width; }

    /**
     * Most pages this meter has held at once (retired ones excluded),
     * counted where ensurePage() creates a page; reset() keeps it, as
     * it keeps the pages. Not a stat: it depends on the fence cadence,
     * which the simulated results do not.
     */
    std::size_t peakLivePages() const { return peakPages; }

    /**
     * Largest fill level of any bucket. The reserve() loop caps every
     * bucket at the width by construction; the invariant checkers
     * audit it anyway so a future fast path cannot silently overbook
     * the resource. Walks every page — audit-time only, never on the
     * reservation hot path.
     */
    Tick
    maxBucketFill() const
    {
        Tick mx = retiredMaxFill;
        for (const Page &p : pages)
            for (Fill f : p.fill)
                mx = std::max<Tick>(mx, f);
        return mx;
    }

    /**
     * Entries the touched marks fail to cover: nonzero fill or skip
     * entries in an unmarked group of a live page, plus every nonzero
     * entry, mark or frontier fact left in a stashed spare. Cleaning
     * walks only marked groups, so anything counted here would survive
     * into a recycled page and move later reservations; 0 by
     * construction. A cached fast-path row that is not pages[lastIdx]'s
     * counts one more: reserve() would book into the wrong page. Walks
     * every page — audit-time only.
     */
    std::size_t
    staleEntries() const
    {
        const Page *cur = lastIdx < pages.size() ? &pages[lastIdx] : nullptr;
        std::size_t n = curFirst != (cur ? cur->first : noPage)
            || curRow != (cur ? cur->fill.data() : nullptr);
        for (const Page &p : pages)
            for (std::uint64_t i = 0; i < pageBuckets; ++i)
                if (!isTouched(p, i) && (p.fill[i] != 0 || p.skip[i] != 0))
                    ++n;
        for (const Page &p : spares) {
            for (std::uint64_t i = 0; i < pageBuckets; ++i)
                n += (p.fill[i] != 0) + (p.skip[i] != 0);
            for (std::uint64_t w : p.touched)
                n += static_cast<std::size_t>(std::popcount(w));
            n += p.fullUpTo != 0;
        }
        return n;
    }

  private:
    /** A bucket's fill in ticks; never above the width. */
    using Fill = std::uint32_t;
    /** Buckets per touched mark: 16 bytes of fill and 8 of skip. */
    static constexpr std::uint64_t groupBuckets = 4;
    /** 64-bit words of touched marks per page (64 bits). */
    static constexpr std::uint64_t markWords = pageBuckets / groupBuckets / 64;
    /** Pages stampable with the frontier fact per scan (the rest
     *  compress over subsequent scans). */
    static constexpr std::uint32_t maxProven = 8;

    struct Page
    {
        std::uint64_t first;     // bucket number of fill[0]
        std::vector<Fill> fill;  // pageBuckets entries
        /**
         * Next-maybe-free pointers over full buckets: skip[i] > i
         * means buckets [i, skip[i]) are all full (0 = no knowledge).
         * Facts never expire between resets because fills only grow.
         */
        std::vector<std::uint16_t> skip;
        /**
         * Cross-page frontier fact: every bucket in [first, fullUpTo)
         * is full (0 = none). May point beyond the page; a scan
         * entering under it jumps to the frontier in one hop.
         */
        std::uint64_t fullUpTo = 0;
        /**
         * One bit per group of groupBuckets buckets, set on a bucket's
         * first write. A skip entry is only ever set on a full bucket,
         * so every nonzero fill and skip entry lies in a marked group
         * and cleaning walks only those.
         */
        std::uint64_t touched[markWords] = {};
    };
    static_assert(pageBuckets < 65535, "skip pointers are uint16");
    static_assert(pageBuckets % (groupBuckets * 64) == 0,
                  "touched marks fill whole words");

    static void
    markTouched(Page &p, std::uint64_t idx)
    {
        const std::uint64_t g = idx / groupBuckets;
        p.touched[g / 64] |= std::uint64_t{1} << (g % 64);
    }

    static bool
    isTouched(const Page &p, std::uint64_t idx)
    {
        const std::uint64_t g = idx / groupBuckets;
        return (p.touched[g / 64] >> (g % 64)) & 1;
    }

    /**
     * Zero the fill and skip entries of @p p's touched groups, then its
     * marks and frontier fact, leaving the page as clean as a fresh
     * one at a cost per touched group.
     * @return the largest fill cleaned (the page's peak).
     */
    static Tick
    cleanPage(Page &p)
    {
        Tick peak = 0;
        for (std::uint64_t w = 0; w < markWords; ++w) {
            for (std::uint64_t bits = p.touched[w]; bits != 0;
                 bits &= bits - 1) {
                const std::uint64_t lo =
                    (w * 64 + static_cast<std::uint64_t>(
                                  std::countr_zero(bits)))
                    * groupBuckets;
                for (std::uint64_t i = lo; i < lo + groupBuckets; ++i) {
                    peak = std::max<Tick>(peak, p.fill[i]);
                    p.fill[i] = 0;
                    p.skip[i] = 0;
                }
            }
            p.touched[w] = 0;
        }
        p.fullUpTo = 0;
        return peak;
    }

    /**
     * The page starting at bucket @p first, or nullptr if absent
     * (reserveSlow's scan; it re-derives the cached row at its exit).
     */
    Page *
    findPage(std::uint64_t first)
    {
        if (lastIdx < pages.size() && pages[lastIdx].first == first)
            return &pages[lastIdx];
        auto it = std::lower_bound(
            pages.begin(), pages.end(), first,
            [](const Page &p, std::uint64_t f) { return p.first < f; });
        if (it == pages.end() || it->first != first)
            return nullptr;
        lastIdx = static_cast<std::size_t>(it - pages.begin());
        return &*it;
    }

    /**
     * Retire every page that ends at or below bucket @p floorBucket
     * (shared by discardBefore() and the minFreeBucket self-retire;
     * both callers guarantee no future scan or pour reaches below it)
     * and raise the retirement floor to it. Cleans each retired page's
     * touched groups, folding their peak into retiredMaxFill, stashes
     * the clean storage for ensurePage() reuse, and resets the page
     * cache index.
     */
    void
    retirePagesBelow(std::uint64_t floorBucket)
    {
        retireFloor = std::max(retireFloor, floorBucket);
        std::size_t n = 0;
        while (n < pages.size()
               && pages[n].first + pageBuckets <= floorBucket)
            ++n;
        if (n == 0)
            return;
        for (std::size_t i = 0; i < n; ++i) {
            retiredMaxFill = std::max(retiredMaxFill, cleanPage(pages[i]));
            if (spares.size() < maxSpares)
                spares.push_back(std::move(pages[i]));
        }
        pages.erase(pages.begin(),
                    pages.begin() + static_cast<std::ptrdiff_t>(n));
        lastIdx = 0;
        syncRow();
    }

    /**
     * The page starting at bucket @p first. If absent, it is made from
     * a stashed spare as it stands (retirement left it clean) or from
     * a fresh allocation; a page wholly below the retirement floor is
     * never made again (panic). Only the pour reaches here, so the
     * check stays off the fast path: the cached page is live, and a
     * live page ends above the floor.
     */
    Page &
    ensurePage(std::uint64_t first)
    {
        if (lastIdx < pages.size() && pages[lastIdx].first == first)
            return pages[lastIdx];
        auto it = std::lower_bound(
            pages.begin(), pages.end(), first,
            [](const Page &p, std::uint64_t f) { return p.first < f; });
        if (it == pages.end() || it->first != first) {
            if (first + pageBuckets <= retireFloor)
                panic("bandwidth meter: a reservation reached the page "
                      "at tick ", first * width, ", below the "
                      "retirement floor at tick ", retireFloor * width,
                      " (every reservation must start at or after the "
                      "last discardBefore() fence)");
            // Prefer retired storage: a stashed page was cleaned at
            // retirement, so reusing it takes no zeroing pass and no
            // fresh 1.5 KB allocation per created page.
            if (!spares.empty()) {
                Page pg = std::move(spares.back());
                spares.pop_back();
                pg.first = first;
                it = pages.insert(it, std::move(pg));
            } else {
                it = pages.insert(
                    it, Page{first, std::vector<Fill>(pageBuckets, 0),
                             std::vector<std::uint16_t>(pageBuckets, 0)});
            }
            peakPages = std::max(peakPages, pages.size());
        }
        lastIdx = static_cast<std::size_t>(it - pages.begin());
        return *it;
    }

    /**
     * Point the fast path's cache at pages[lastIdx]: after anything
     * that moves lastIdx or changes pages. A page's fill row is its own
     * heap block, so inserting or erasing other pages does not move it.
     */
    void
    syncRow()
    {
        if (lastIdx < pages.size()) {
            curFirst = pages[lastIdx].first;
            curRow = pages[lastIdx].fill.data();
        } else {
            curFirst = noPage;
            curRow = nullptr;
        }
    }

    /** Matches no page: a page's first bucket is a multiple of
     *  pageBuckets. */
    static constexpr std::uint64_t noPage = ~std::uint64_t{0};

    Tick width;
    /** Pages sorted by first bucket; benchmarks touch a handful. */
    std::vector<Page> pages;
    /** Index of the most recently touched page (almost always hits). */
    std::size_t lastIdx = 0;
    /** First bucket and fill row of pages[lastIdx] (noPage and null
     *  without pages), kept in step by syncRow(). */
    std::uint64_t curFirst = noPage;
    Fill *curRow = nullptr;
    /**
     * Bucket of the previous reservation's t and its start tick; the
     * t -> bucket mapping is time-invariant, so the cache survives
     * reset() and never needs invalidation.
     */
    std::uint64_t lastBucket = 0;
    Tick lastBucketStart = 0;
    /** All buckets below this are full (fills are monotone between
     *  resets); lets reserve() jump the saturated backlog in O(1). */
    std::uint64_t minFreeBucket = 0;
    std::size_t nTouched = 0;
    /** Peak fill among retired pages, so the bucket-overbooking
     *  audit still sees the whole timeline. */
    Tick retiredMaxFill = 0;
    /** Highest bucket pages were retired below; no page wholly under
     *  it may be made again. */
    std::uint64_t retireFloor = 0;
    /** peakLivePages(). */
    std::size_t peakPages = 0;
    /** Retired page storage awaiting reuse (bounded stash). */
    static constexpr std::size_t maxSpares = 8;
    std::vector<Page> spares;
};

/**
 * Visits one meter of a component (audits only): its kind ("dram
 * bank", "net link", ...), its index among that kind, and the meter.
 */
using MeterVisitor = std::function<void(
    const char *kind, std::size_t index, const BandwidthMeter &meter)>;

} // namespace abndp

#endif // ABNDP_SIM_BANDWIDTH_METER_HH
