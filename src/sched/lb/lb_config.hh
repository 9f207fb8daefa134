/**
 * @file
 * Configuration of the hierarchical load-balancer family
 * (src/sched/lb; ROADMAP item 2): a two-tier structure — an
 * intra-stack crossbar tier and an inter-stack mesh tier — where each
 * tier runs one of the pluggable balancers ported from the authors'
 * later zsim-ndp code (stealing / average / reserve), plus the
 * hotness-driven migration engine that re-homes persistently hot
 * blocks.  Off by default: the `HLB` / `HLB-mig` design points
 * (common/config.cc) are what turn it on, so every classic Table-2
 * run stays bit-identical.
 */

#ifndef ABNDP_SCHED_LB_LB_CONFIG_HH
#define ABNDP_SCHED_LB_LB_CONFIG_HH

#include <cstdint>

#include "common/name_table.hh"

namespace abndp
{

/** Balancer run by one tier of the hierarchical load balancer. */
enum class LbTierKind
{
    /** Tier disabled: no commands are exchanged at this level. */
    None,
    /** Idle members pull work from the most loaded member. */
    Stealing,
    /** Surplus above the tier mean flows greedily to deficits. */
    Average,
    /** Average with per-member targets shrunk by data hotness, so
     *  owners of hot blocks keep queue headroom for local work. */
    Reserve,
};

/** The tier balancers' names (common/name_table.hh). */
EnumNames<LbTierKind> nameTable(LbTierKind);

/** Hotness-driven data re-homing (the `HLB-mig` design point). */
struct LbMigrationConfig
{
    /** Master switch; requires the load balancer itself to be on. */
    bool enabled = false;
    /** Decayed hotness count a block needs before it may re-home. */
    std::uint32_t threshold = 8;
    /** Exchange windows a block must rest between two re-homes. */
    std::uint32_t cooldownWindows = 4;
    /** Cap on blocks migrated per exchange window (whole machine). */
    std::uint32_t maxPerExchange = 8;
};

/** The hierarchical load balancer (off unless a design enables it). */
struct LbConfig
{
    /**
     * Master switch, set by applyDesign() for the `HLB` family.
     * When false, NdpSystem constructs no engine and every hook site
     * is a single bool test, so classic designs stay bit-identical to
     * their pre-HLB goldens.
     */
    bool enabled = false;
    /** Balancer of the intra-stack (crossbar) tier. */
    LbTierKind intraTier = LbTierKind::Stealing;
    /** Balancer of the inter-stack (mesh) tier. */
    LbTierKind interTier = LbTierKind::Average;
    /** Hot-block counters tracked per home unit (top-K). */
    std::uint32_t hotK = 16;
    /** Per-window decay: every count ages as cnt >>= decayShift. */
    std::uint32_t decayShift = 1;
    /** Ready-queue length at or below which a member counts as idle
     *  (stealing tier) / is never chosen as a donor. */
    std::uint32_t idleThreshold = 2;
    /** Max tasks moved per shed command. */
    std::uint32_t chunkSize = 4;
    /** Reserve tier: fraction of a member's fair share withheld in
     *  proportion to its share of tracked hotness, within [0, 1]. */
    double reserveFrac = 0.5;
    /** Data re-homing on top of the balancer. */
    LbMigrationConfig migration;
};

} // namespace abndp

#endif // ABNDP_SCHED_LB_LB_CONFIG_HH
