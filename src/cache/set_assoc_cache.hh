/**
 * @file
 * Generic set-associative cache model storing block presence only (the
 * simulator never stores data contents; workloads keep real data in host
 * memory). Used for L1-D/L1-I, the TLB, and the host LLC (TravellerCache
 * keeps its own arrays).
 *
 * The lookup path is one of the hottest in the simulator (every modelled
 * memory reference probes an L1), so it is defined inline here: tags and
 * recency stamps live in separate parallel arrays (struct-of-arrays) so
 * the probe is a contiguous, vectorizable scan over 8-byte tags — a set
 * of 8 ways spans one cacheline instead of two — and power-of-two set
 * counts index with a mask instead of a 64-bit division.
 */

#ifndef ABNDP_CACHE_SET_ASSOC_CACHE_HH
#define ABNDP_CACHE_SET_ASSOC_CACHE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/config.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "obs/stats_registry.hh"

namespace abndp
{

/** Set-associative block cache with pluggable replacement. */
class SetAssocCache
{
  public:
    /**
     * @param numSets number of sets (power of two not required)
     * @param assoc ways per set
     * @param repl replacement policy
     * @param seed RNG seed for random replacement
     */
    SetAssocCache(std::uint64_t numSets, std::uint32_t assoc,
                  ReplPolicy repl, std::uint64_t seed = Rng::defaultSeed,
                  bool hashedIndex = true)
        : sets(numSets), ways(assoc), repl(repl), hashed(hashedIndex),
          pow2(numSets > 0 && (numSets & (numSets - 1)) == 0),
          rng(seed),
          tags(static_cast<std::size_t>(numSets) * assoc, invalidAddr),
          stamps(static_cast<std::size_t>(numSets) * assoc, 0)
    {
        abndp_assert(numSets > 0 && assoc > 0,
                     "degenerate cache geometry");
    }

    /** Build from a CacheGeometry. */
    SetAssocCache(const CacheGeometry &geom,
                  std::uint64_t seed = Rng::defaultSeed)
        : SetAssocCache(geom.numSets(), geom.assoc, geom.repl, seed,
                        geom.hashedIndex)
    {
    }

    /**
     * Look up a block; updates recency on hit, counts hit/miss stats.
     * Does NOT allocate on miss (see insert()).
     */
    bool
    access(Addr blockAddr)
    {
        const std::size_t base = setIndex(blockAddr) * ways;
        const Addr *tag = tags.data() + base;
        for (std::uint32_t w = 0; w < ways; ++w) {
            if (tag[w] == blockAddr) {
                if (repl == ReplPolicy::Lru)
                    stamps[base + w] = ++tick;
                ++nHits;
                return true;
            }
        }
        ++nMisses;
        return false;
    }

    /** Presence check without stats or recency side effects. */
    bool
    contains(Addr blockAddr) const
    {
        const Addr *tag = tags.data() + setIndex(blockAddr) * ways;
        for (std::uint32_t w = 0; w < ways; ++w)
            if (tag[w] == blockAddr)
                return true;
        return false;
    }

    /**
     * Insert a block, evicting per the replacement policy if needed.
     * @return the evicted block address, or invalidAddr if none.
     */
    Addr
    insert(Addr blockAddr)
    {
        const std::size_t base = setIndex(blockAddr) * ways;
        const Addr *tag = tags.data() + base;
        for (std::uint32_t w = 0; w < ways; ++w) {
            if (tag[w] == blockAddr) {
                // Already present: refresh recency only.
                if (repl == ReplPolicy::Lru)
                    stamps[base + w] = ++tick;
                return invalidAddr;
            }
        }
        const std::size_t slot = base + victimWay(base);
        Addr evicted = tags[slot];
        if (evicted != invalidAddr)
            ++nEvicts;
        tags[slot] = blockAddr;
        stamps[slot] = ++tick;
        ++nInserts;
        return evicted;
    }

    /** Invalidate one block if present. @return true if it was present. */
    bool
    invalidate(Addr blockAddr)
    {
        const std::size_t base = setIndex(blockAddr) * ways;
        for (std::uint32_t w = 0; w < ways; ++w) {
            if (tags[base + w] == blockAddr) {
                tags[base + w] = invalidAddr;
                return true;
            }
        }
        return false;
    }

    /** Drop all blocks (bulk invalidation; tag clear). */
    void
    invalidateAll()
    {
        std::fill(tags.begin(), tags.end(), invalidAddr);
    }

    std::uint64_t hits() const { return nHits.value(); }
    std::uint64_t misses() const { return nMisses.value(); }
    std::uint64_t insertions() const { return nInserts.value(); }
    std::uint64_t evictions() const { return nEvicts.value(); }
    std::uint64_t numSets() const { return sets; }
    std::uint32_t associativity() const { return ways; }

    /** Number of valid blocks currently cached. */
    std::uint64_t
    occupancy() const
    {
        std::uint64_t n = 0;
        for (Addr t : tags)
            n += t != invalidAddr ? 1 : 0;
        return n;
    }

    /** Register this cache's stats under @p node. */
    void
    regStats(obs::StatNode &node) const
    {
        node.addCounter("hits", &nHits);
        node.addCounter("misses", &nMisses);
        node.addCounter("insertions", &nInserts);
        node.addCounter("evictions", &nEvicts);
    }

  private:
    /**
     * Set indexing. Hashed by default: the range-partitioned address
     * space aligns every unit's data at large power-of-two bases, so
     * plain low-bit indexing would alias all units' hot records into a
     * few sets. Sequential-access caches (L1-I) use low-bit indexing so
     * consecutive blocks occupy distinct sets.
     */
    std::size_t
    setIndex(Addr blockAddr) const
    {
        std::uint64_t block = blockNumber(blockAddr);
        std::uint64_t h = hashed ? mix64(block) : block;
        return pow2 ? (h & (sets - 1)) : (h % sets);
    }

    /** Victim choice within the set starting at flat index @p base. */
    std::uint32_t
    victimWay(std::size_t base)
    {
        const Addr *tag = tags.data() + base;
        // Prefer an invalid way.
        for (std::uint32_t w = 0; w < ways; ++w)
            if (tag[w] == invalidAddr)
                return w;
        if (repl == ReplPolicy::Random)
            return static_cast<std::uint32_t>(rng.below(ways));
        // LRU and FIFO both evict the smallest stamp.
        const std::uint64_t *stamp = stamps.data() + base;
        std::uint32_t victim = 0;
        for (std::uint32_t w = 1; w < ways; ++w)
            if (stamp[w] < stamp[victim])
                victim = w;
        return victim;
    }

    std::uint64_t sets;
    std::uint32_t ways;
    ReplPolicy repl;
    bool hashed;
    bool pow2;
    Rng rng;
    std::uint64_t tick = 0;
    std::vector<Addr> tags;         // way tags (invalidAddr = empty)
    std::vector<std::uint64_t> stamps; // recency (LRU) / insertion (FIFO)

    stats::Counter nHits;
    stats::Counter nMisses;
    stats::Counter nInserts;
    stats::Counter nEvicts;
};

} // namespace abndp

#endif // ABNDP_CACHE_SET_ASSOC_CACHE_HH
