#include "cache/camp_mapping.hh"

#include <bit>

#include "common/logging.hh"

namespace abndp
{

namespace
{

/** Per-group salt for the skewed camp-unit mapping. */
constexpr std::uint64_t
groupSalt(GroupId g)
{
    return 0x5851f42d4c957f2dULL * (g + 1);
}

} // namespace

CampMapping::CampMapping(const SystemConfig &cfg, const Topology &topo,
                         const AddressMap &amap)
    : topo(topo), amap(amap), nSets(cfg.travellerSets()),
      assoc(cfg.traveller.assoc), useSkew(cfg.traveller.skewedMapping),
      setSplit(cfg.travellerSets()), assocSplit(cfg.traveller.assoc),
      hashedIdx(cfg.traveller.hashedIndex)
{
    abndp_assert(topo.numGroups() <= CandidateList::maxGroups,
                 "too many camp groups for CandidateList");

    // Paper Section 4.3: full tag = log2(total capacity) - block offset -
    // set bits; the camp restriction saves the log2(units per group)
    // unit-ID bits.
    auto log2u64 = [](std::uint64_t v) {
        return static_cast<std::uint32_t>(std::bit_width(v) - 1);
    };
    std::uint32_t cap_bits = log2u64(cfg.totalMemBytes());
    std::uint32_t set_bits = log2u64(nSets);
    nTagBitsFree = cap_bits - cachelineBits - set_bits;
    std::uint32_t unit_bits = log2u64(topo.unitsPerGroup());
    nTagBits = nTagBitsFree >= unit_bits ? nTagBitsFree - unit_bits : 0;

    // Flatten the per-group unit lists and salts for the per-access
    // loops below; power-of-two group sizes index with a mask instead
    // of a 64-bit modulo.
    upg = topo.unitsPerGroup();
    groupSplit = Pow2Split(upg);
    const GroupId ngroups = topo.numGroups();
    groupUnitsFlat.resize(static_cast<std::size_t>(ngroups) * upg);
    salts.resize(ngroups);
    for (GroupId g = 0; g < ngroups; ++g) {
        salts[g] = groupSalt(g);
        for (std::uint32_t i = 0; i < upg; ++i)
            groupUnitsFlat[static_cast<std::size_t>(g) * upg + i] =
                topo.unitInGroup(g, i);
    }
}

UnitId
CampMapping::campOf(std::uint64_t block, GroupId g) const
{
    std::uint64_t h = useSkew ? mix64(block ^ salts[g]) : mix64(block);
    auto idx = static_cast<std::uint32_t>(groupSplit.mod(h));
    return groupUnitsFlat[static_cast<std::size_t>(g) * upg + idx];
}

UnitId
CampMapping::locationInGroup(Addr addr, GroupId g) const
{
    UnitId home = homeOf(addr);
    if (topo.groupOf(home) == g)
        return home;
    return campOf(blockNumber(addr), g);
}

void
CampMapping::candidates(Addr addr, CandidateList &out) const
{
    const UnitId home = homeOf(addr);
    const GroupId hg = topo.groupOf(home);
    const std::uint64_t block = blockNumber(addr);
    out.n = topo.numGroups();
    for (GroupId g = 0; g < out.n; ++g)
        out.loc[g] = g == hg ? home : campOf(block, g);
}

void
CampMapping::campsUnderAnyHome(Addr addr, CandidateList &out) const
{
    const std::uint64_t block = blockNumber(addr);
    out.n = topo.numGroups();
    for (GroupId g = 0; g < out.n; ++g)
        out.loc[g] = campOf(block, g);
}

UnitId
CampMapping::nearestCandidate(Addr addr, UnitId from) const
{
    const UnitId home = homeOf(addr);
    const GroupId hg = topo.groupOf(home);
    const std::uint64_t block = blockNumber(addr);
    const double *row = topo.distanceRow(from);
    UnitId best = invalidUnit;
    double bestCost = 0.0;
    for (GroupId g = 0; g < topo.numGroups(); ++g) {
        UnitId cand = g == hg ? home : campOf(block, g);
        double cost = row ? row[cand] : topo.distanceCost(from, cand);
        if (best == invalidUnit || cost < bestCost) {
            best = cand;
            bestCost = cost;
        }
    }
    return best;
}

std::uint64_t
CampMapping::tagStorageBytes() const
{
    return nSets * assoc * nTagBits / 8;
}

} // namespace abndp
