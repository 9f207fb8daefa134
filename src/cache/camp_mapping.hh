/**
 * @file
 * Camp-location mapping for the Traveller Cache (paper Section 4.2).
 *
 * Every cache block has one home (its memory location) plus C camp
 * locations, one in each localized group other than the home's group.
 * Camp unit IDs are deterministic functions of the block address; with
 * skewed mapping each group uses a different function (a la skewed
 * associative caches), with identical mapping all groups use the same one.
 *
 * Implementation note (documented divergence): the paper derives the camp
 * unit index from distinct physical-address bit slices. We derive it from
 * group-salted mixes of the block number instead, which preserves the
 * properties that matter (determinism, per-group diversity, uniformity,
 * no per-block metadata) while staying uniform under any allocator
 * layout. The tag-size accounting below still follows the paper's
 * bit-slice arithmetic, since a hardware implementation would use slices.
 */

#ifndef ABNDP_CACHE_CAMP_MAPPING_HH
#define ABNDP_CACHE_CAMP_MAPPING_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/config.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "mem/address_map.hh"
#include "net/topology.hh"
#include "sched/lb/home_indirection.hh"

namespace abndp
{

/** Fixed-capacity list of candidate locations (home + camps). */
struct CandidateList
{
    static constexpr std::uint32_t maxGroups = 16;
    std::array<UnitId, maxGroups> loc;
    std::uint32_t n = 0;
};

/** Deterministic home/camp location mapping. */
class CampMapping
{
  public:
    CampMapping(const SystemConfig &cfg, const Topology &topo,
                const AddressMap &amap);

    /**
     * Home unit of an address: the static range partition, overlaid
     * by the re-homing indirection when migration has moved the
     * block. With no indirection attached (every classic design) or
     * an empty table, this is exactly the static map plus one branch.
     */
    UnitId
    homeOf(Addr addr) const
    {
        UnitId h = amap.homeOf(addr);
        if (indir && indir->active()) [[unlikely]]
            h = indir->resolve(blockAlign(addr), h);
        return h;
    }

    /** Attach the migration indirection table (MemSystem owns it). */
    void setHomeIndirection(const HomeIndirection *p) { indir = p; }

    /**
     * Candidate location of @p addr in group @p g: the home unit if the
     * home lies in @p g, otherwise the camp unit of that group.
     */
    UnitId locationInGroup(Addr addr, GroupId g) const;

    /** All candidate locations, one per group, in group order. */
    void candidates(Addr addr, CandidateList &out) const;

    /**
     * Every unit that may hold a camp copy of @p addr, whatever its
     * home: the camp unit of each group, the home's own group included.
     * A camp unit depends only on the block and the group, so a copy
     * inserted before the block was re-homed sits in one of these
     * units, even in the group the new home now serves directly.
     */
    void campsUnderAnyHome(Addr addr, CandidateList &out) const;

    /**
     * Candidate location nearest to @p from (the "always probe only the
     * nearest camp location" rule of Section 4.3).
     */
    UnitId nearestCandidate(Addr addr, UnitId from) const;

    /**
     * Cache set index of a block: low bits by default (paper Section
     * 4.2 — keeps a set's ways row-adjacent in the cache region), or a
     * hashed index when traveller.hashedIndex is set (the comparison
     * knob for the row-locality claim; see EXPERIMENTS.md).
     */
    std::uint64_t
    setIndex(Addr addr) const
    {
        std::uint64_t block = blockNumber(addr);
        return setSplit.mod(hashedIdx ? mix64(block) : block);
    }

    /**
     * Physical address of a block's slot inside a camp's DRAM cache
     * region (used so camp accesses derive DRAM rows from the cache
     * layout: neighboring sets share rows).
     */
    Addr
    cacheSlotAddr(Addr addr) const
    {
        std::uint64_t way = assocSplit.mod(mix64(blockNumber(addr)));
        return (setIndex(addr) * assoc + way) * cachelineBytes;
    }

    /** Tag bits per block with the camp restriction (Section 4.3). */
    std::uint32_t tagBits() const { return nTagBits; }

    /** Tag bits per block without the camp restriction, for comparison. */
    std::uint32_t tagBitsUnrestricted() const { return nTagBitsFree; }

    /** Total SRAM tag storage per NDP unit in bytes. */
    std::uint64_t tagStorageBytes() const;

    bool skewed() const { return useSkew; }
    std::uint32_t numGroups() const { return topo.numGroups(); }

  private:
    /**
     * Camp unit of block @p block in group @p g (the non-home case of
     * locationInGroup); callers hoist homeOf/blockNumber so the per-
     * group loops of candidates()/nearestCandidate() resolve them once.
     */
    UnitId campOf(std::uint64_t block, GroupId g) const;

    const Topology &topo;
    const AddressMap &amap;
    /** Re-homing overlay; null unless migration is configured. */
    const HomeIndirection *indir = nullptr;
    std::uint64_t nSets;
    std::uint32_t assoc;
    std::uint32_t nTagBits;
    std::uint32_t nTagBitsFree;
    bool useSkew;

    // Hot-path precomputation (all derived from the topology, which is
    // immutable after construction). Division/modulo goes through the
    // shared Pow2Split decoder (src/mem/address_map.hh) — the same
    // shift/mask arithmetic the memory backends use.
    std::uint32_t upg = 0;       // units per group
    Pow2Split groupSplit;        // mod units-per-group
    Pow2Split setSplit;          // mod nSets
    Pow2Split assocSplit;        // mod assoc
    bool hashedIdx = false;
    /** groupUnits flattened to [g * upg + idx] (one indirection). */
    std::vector<UnitId> groupUnitsFlat;
    /** Per-group mapping salts (groupSalt(g)). */
    std::vector<std::uint64_t> salts;
};

} // namespace abndp

#endif // ABNDP_CACHE_CAMP_MAPPING_HH
