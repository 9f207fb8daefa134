/**
 * @file
 * Task scheduling policies (paper Sections 2.3 and 5).
 *
 * One Scheduler instance serves the whole system but models the paper's
 * distributed decision making: every creating unit scores with the shared
 * periodic workload snapshot plus its own local adjustments, never with
 * other units' true instantaneous state.
 *
 * score(t, u) = costmem(t, u) + B * costload(t, u)        (Eq. 1)
 * costmem     = avg over hint addrs of the distance from u to the
 *               nearest candidate location of that address  (Eq. 2)
 * costload    = W_u / W_avg - 1                             (Eq. 3)
 */

#ifndef ABNDP_SCHED_SCHEDULER_HH
#define ABNDP_SCHED_SCHEDULER_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "cache/camp_mapping.hh"
#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "fault/fault_model.hh"
#include "net/topology.hh"
#include "obs/stats_registry.hh"
#include "obs/trace.hh"
#include "sched/scheduling_policy.hh"
#include "tasking/task.hh"

namespace abndp
{

/**
 * Score-based task placement. The placement decision itself is
 * delegated to a SchedulingPolicy object (built from the configured
 * policy name or enum via the policy registry); this class owns the
 * shared scoring machinery and the W bookkeeping every policy uses.
 */
class Scheduler
{
  public:
    /**
     * @param faults optional fault-injection engine: the periodic load
     *               snapshot divides each unit's W by its service-speed
     *               factor, so costload sees derated (straggler) units
     *               as proportionally busier and steers tasks away.
     * @param tracer optional event tracer: every snapshot exchange
     *               records one CampExchange instant on the system track.
     */
    Scheduler(const SystemConfig &cfg, const Topology &topo,
              const CampMapping &camps,
              const FaultModel *faults = nullptr,
              obs::Tracer *tracer = nullptr);

    /**
     * Scheduler-visible load estimate of a task: the programmer-supplied
     * hint.workload if present, otherwise the total memory access cost of
     * the hint addresses (Section 3.1).
     */
    double estimateLoad(const Task &task) const;

    /**
     * Pick the execution unit for @p task created at unit @p creator.
     * Does not mutate W bookkeeping; callers pair this with onEnqueued().
     */
    UnitId choose(const Task &task, UnitId creator);

    /** Account a task (with loadEstimate set) entering unit @p u. */
    void onEnqueued(UnitId u, double load);

    /** Account a task leaving unit @p u (dequeued for execution). */
    void onDequeued(UnitId u, double load);

    /** Move @p load of queued work from @p victim to @p thief (steal). */
    void onStolen(UnitId victim, UnitId thief, double load);

    /**
     * Account a scheduling-window forward of @p load from @p from to
     * @p to, visible immediately in the forwarding unit's own local W
     * adjustments (its view when it next scores as a creator).
     */
    void onForwarded(UnitId from, UnitId to, double load);

    /**
     * Periodic hierarchical workload information exchange: refresh the
     * global snapshot from true per-unit W values and clear all local
     * adjustment deltas. @p now (the exchange tick) samples the
     * straggler service speeds the snapshot observes.
     */
    void exchangeSnapshot(Tick now = 0);

    /** Snapshot W value of a unit (used for steal victim choice too). */
    double snapshotW(UnitId u) const { return wSnap[u]; }

    /** True instantaneous W (for stats/tests; not used for decisions). */
    double trueW(UnitId u) const { return wTrue[u]; }

    /** The hybrid weight B in the units of costmem (ns). */
    double hybridWeight() const { return weightB; }

    /** Whether choose() considers every unit (paper) or a pruned set. */
    bool exhaustive() const { return exhaustiveScoring; }

    /** The active placement policy object. */
    const SchedulingPolicy &policy() const { return *policyObj; }

    /** Whether tasks pass through pending queues (Figure 4 windows). */
    bool usesSchedulingWindow() const
    {
        return policyObj->usesSchedulingWindow();
    }

    /** Whether idle units dynamically steal work. */
    bool stealingEnabled() const { return policyObj->stealing(); }

    std::uint64_t decisions() const { return nDecisions; }

    // ---- Scoring services for SchedulingPolicy implementations ----
    //
    // A policy composes these into a decision; the arithmetic lives
    // here so every policy scores with identical, bit-reproducible
    // math. All of them operate on the shared unitScore scratch.

    std::uint32_t unitCount() const { return nUnits; }

    /** Whether camp locations count as data copies in costmem (§4.3). */
    bool campAwareScoring() const { return campAware; }

    /**
     * Graceful-degradation service: @p u itself while it is live, its
     * deterministic live stand-in (FaultModel::rehomeOf buddy) while it
     * is down. Exact identity whenever no unit failure is active, so
     * the no-fault decision stream is untouched.
     */
    UnitId
    liveTarget(UnitId u) const
    {
        if (faults && faults->anyUnitDown() && !faults->isLive(u))
            return faults->rehomeOf(u);
        return u;
    }

    /**
     * Score every unit into the shared score row and return the argmin:
     * the lowest-numbered unit of minimum score, among live units only
     * while a unit failure is active. The score is costmem (Eq. 2;
     * camp copies count as data locations when @p withCamps); with
     * @p withLoad it adds the rest of Eq. 1 from @p creator's view:
     * the task-descriptor shipping cost, then B * costload (the stale
     * snapshot plus the creator's own forwards, its true local queue
     * for itself, straggler speed derating and the deadband, Eq. 3).
     */
    UnitId scoreUnits(const Task &task, UnitId creator, bool withCamps,
                      bool withLoad);

    /** Argmin over the pruned candidate set (hardware-scorer mode). */
    UnitId argminPruned(const Task &task, UnitId creator);

    /**
     * Tie resolution: prefer the creating unit, then the main home,
     * whenever they score within epsilon of @p best (a cold camp must
     * not move the task).
     */
    UnitId resolveTies(const Task &task, UnitId creator, UnitId best) const;

    /** The score row written by the last scoreUnits() call. */
    const std::vector<double> &scores() const { return unitScore; }

    /** Snapshot exchanges performed so far. */
    std::uint64_t exchanges() const { return nExchanges.value(); }

    /** Register the scheduler stats under @p node. */
    void
    regStats(obs::StatNode &node) const
    {
        node.addValue("decisions",
                      [this]() {
                          return static_cast<double>(nDecisions);
                      },
                      obs::StatKind::Counter, true);
        node.addCounter("exchanges", &nExchanges);
    }

  private:
    /** How scoreUnits() adds the descriptor shipping cost. */
    enum class Penalty
    {
        None,     ///< penalty is zero (or the score is costmem only)
        Row,      ///< premultiplied fwdPen row of the creator
        OnTheFly, ///< forwardPenalty * distanceCost (above fwdPenMaxUnits)
    };

    /**
     * Eq. 2 sums of @p task's sampled hint addresses: stackBase gets
     * each sample's nearest-candidate cost per stack, unitBonus the
     * (Dintra - Dlocal) saving of each unit that is a candidate.
     * Returns 1 / samples, or 0 for a task without hint addresses
     * (whose costmem is then exactly 0.0 on every unit).
     */
    double accumulateCostMem(const Task &task, bool withCamps);

    /**
     * Cost of each stack to its nearest candidate in @p cl: the stored
     * row of the candidates' stack tuple, or the per-candidate minimum
     * when the machine is too large for stackMinRows.
     */
    const double *nearestStackRow(const CandidateList &cl);

    /** B * costload of unit @p u with queued work @p w (Eq. 3). */
    double loadTerm(UnitId u, double w) const;

    /**
     * The one pass over the units: costmem, then the shipping cost,
     * then B * costload, summed per unit in that order into unitScore
     * while tracking the first-min argmin.
     */
    template <Penalty Pen, bool Load>
    UnitId scorePass(double inv, UnitId creator);

    const SystemConfig &cfg;
    const Topology &topo;
    const CampMapping &camps;
    const FaultModel *faults;
    obs::Tracer *tracer;
    std::unique_ptr<SchedulingPolicy> policyObj;
    bool campAware;
    bool exhaustiveScoring;
    double weightB;
    double forwardPenalty;
    double deadband;
    std::uint32_t nUnits;
    std::uint32_t nStacks;
    /** Intra-stack estimate Dintra * meanIntraHops (Eq. 2). */
    double dIntraEst;
    Penalty penalty;

    /** Max hint addresses sampled when scoring huge tasks. */
    static constexpr std::uint32_t sampleCap = 64;

    // True queued work per unit, and the periodically exchanged snapshot.
    std::vector<double> wTrue;
    std::vector<double> wSnap;
    double wSnapSum = 0.0;
    /** wSnapSum / nUnits, refreshed at each exchange (costload's W_avg). */
    double wAvg = 0.0;
    /**
     * Per-unit local adjustments since the last exchange (tracking only
     * that unit's own forwarding decisions). Stored as one flat
     * nUnits x nUnits row-major array; rows are touched lazily — a
     * viewer that never forwarded since the last exchange has an
     * all-zero row, marked clean in deltaDirty so the exchange refill
     * skips it and scoring reads loadSnap instead of its view row.
     */
    std::vector<double> wDelta;
    std::vector<std::uint8_t> deltaDirty;
    std::vector<UnitId> dirtyViewers;
    /**
     * Service-speed factor of each unit as of the last exchange (1.0
     * healthy, the straggler derating otherwise). costload divides W by
     * it, so a half-speed unit with the same queue looks twice as
     * loaded.
     */
    std::vector<double> speed;
    /**
     * B * costload of every unit from the snapshot alone, computed at
     * each exchange; read only while wAvg > 0 (before that the
     * costload term is skipped).
     */
    std::vector<double> loadSnap;
    /**
     * Per-viewer B * costload rows, row-major nUnits x nUnits. Row v
     * is valid while v is dirty: onForwarded copies loadSnap into it
     * on the first forward of an interval and recomputes the two
     * entries each forward moves from snapshot + delta. An untouched
     * entry has a delta of exactly 0.0, so it equals loadSnap's.
     */
    std::vector<double> loadView;

    /** Most-idle units as of the last exchange (pruned-mode hint). */
    std::vector<UnitId> idleHint;

    // ---- Precomputed scoring tables (struct-of-arrays rows) ----
    /**
     * Eq. 2 stack-pair cost, row-major [cs * nStacks + s]: Dintra *
     * meanIntraHops on the diagonal, Dinter * mesh hops off it. Rows
     * are contiguous so the per-sample stack walk is a vectorizable
     * streaming add / min over nStacks doubles.
     */
    std::vector<double> stackPairCost;
    /**
     * Element-wise minimum of the stackPairCost rows of every tuple of
     * candidate stacks, row-major [tuple * nStacks + s]. A block has
     * one candidate per camp group, so a tuple has one digit per group
     * ranging over that group's stacks (a single value for a group
     * inside one stack). Built for camp-aware scoring while it holds
     * at most stackMinMaxDoubles; empty otherwise.
     */
    std::vector<double> stackMinRows;
    /** Per unit: its stack's digit times its group's place value, so a
     *  candidate list's tuple index is the sum over its units. */
    std::vector<std::uint32_t> tupleWeight;
    /** 512 KiB; an 8x8 mesh at C = 3 (16^4 tuples x 64) exceeds it. */
    static constexpr std::size_t stackMinMaxDoubles = std::size_t{1} << 16;
    /** topo.stackOf(u) flattened for the final scoring pass. */
    std::vector<StackId> stackOfUnit;
    /**
     * forwardPenalty * distanceCost(creator, u) premultiplied,
     * row-major per creator (empty above fwdPenMaxUnits or when the
     * penalty is zero). The products use the identical operand pairs
     * as the on-the-fly computation, so both paths are bit-equal.
     */
    std::vector<double> fwdPen;
    static constexpr std::uint32_t fwdPenMaxUnits = 1024;

    // Scoring scratch (reused across calls; single-threaded simulator).
    std::vector<Addr> sampleScratch;
    std::vector<UnitId> prunedScratch;
    std::vector<double> stackBase;
    std::vector<double> stackMin;
    std::vector<double> unitBonus;
    std::vector<UnitId> bonusDirty;
    std::vector<double> unitScore;

    std::uint64_t nDecisions = 0;
    stats::Counter nExchanges;
};

} // namespace abndp

#endif // ABNDP_SCHED_SCHEDULER_HH
