#include "mem/ddr_backend.hh"

#include <algorithm>

#include "check/check_context.hh"

namespace abndp
{

namespace
{

/** a - b saturating at zero (anchors may postdate the start tick). */
constexpr Tick
satSub(Tick a, Tick b)
{
    return a > b ? a - b : 0;
}

/** One quarter of the four-activate window, rounded up so four
 *  reservations always span at least the configured tFAW. */
Tick
quarterWindow(double tFawNs)
{
    auto faw = static_cast<Tick>(tFawNs * ticksPerNs);
    return (faw + 3) / 4;
}

} // namespace

DdrBackend::DdrBackend(const SystemConfig &cfg, EnergyAccount &energy,
                       UnitId unit, const FaultModel *faults)
    : MemBackend(cfg, energy, unit, faults),
      banks(cfg.dram.banks),
      amap(cfg.dram, cfg.memBytesPerUnit),
      policy(cfg.dram.pagePolicy),
      tRas(static_cast<Tick>(cfg.dram.tRasNs * ticksPerNs)),
      tWr(static_cast<Tick>(cfg.dram.tWrNs * ticksPerNs)),
      actQuarter(quarterWindow(cfg.dram.tFawNs)),
      actMeter(std::max<Tick>(4 * actQuarter, 1))
{
    staggerRefresh();
}

void
DdrBackend::staggerRefresh()
{
    // Banks refresh round-robin so no refresh lands exactly at t = 0.
    for (std::size_t b = 0; b < banks.size(); ++b)
        banks[b].nextRefresh = tRefi * (b + 1) / banks.size();
}

Tick
DdrBackend::access(Addr addr, std::uint32_t bytes, bool isWrite,
                   bool cacheRegion, Tick start)
{
    DramCoord c = amap.decode(addr);
    auto &bank = banks[c.bank];

    // Lazy per-bank refresh, exactly as in the meter backend; a
    // refresh precharges the bank (closes the row buffer).
    if (refreshOn && bank.nextRefresh <= start) {
        std::uint32_t catchup = 0;
        while (bank.nextRefresh <= start && catchup < refreshCatchupMax) {
            bank.meter.reserve(bank.nextRefresh, tRfc);
            bank.nextRefresh += tRefi;
            ++nRefreshes;
            ++bank.refreshCount;
            ++catchup;
        }
        if (bank.nextRefresh <= start)
            bank.nextRefresh = start + tRefi;
        bank.rowOpen = false;
        bank.openRow = ~0ull;
    }

    // The bank meter reserves only the constant command footprint
    // (core + burst); bank-state recovery waits and ACT-window
    // stalls accumulate in extra as pure latency. Recovery anchors
    // are saturating against this access's start and capped at one
    // worst-case bank turnaround, so an anchor written by a
    // logically-later access (reservations arrive out of time
    // order) cannot charge an unbounded wait (see file comment).
    Tick core;
    Tick extra = 0;
    std::uint32_t keepScore;
    bool row_miss = !(bank.rowOpen && bank.openRow == c.row);
    if (row_miss) {
        ++nRowMisses;
        ++bank.rowMisses;
        Tick pre;
        Tick recovery;
        // Misses decide the page policy with the score *before* this
        // miss is charged: the access's own conflict must not be able
        // to close the row it just opened (the fresh-bank score of 2
        // would otherwise dead-end at "always closed", since hits can
        // only happen to a row left open).
        keepScore = bank.openScore;
        if (bank.rowOpen) {
            // Precharge now: wait out tRAS since the row's ACT and
            // tWR since the last write burst, then pay tRP.
            pre = tRp;
            recovery = std::max(satSub(bank.lastActAt + tRas, start),
                                satSub(bank.writeEnd + tWr, start));
            if (bank.openScore > 0)
                --bank.openScore;
        } else {
            // Auto-precharged earlier; it may still be completing.
            pre = 0;
            recovery = satSub(bank.bankReadyAt, start);
            if (c.row == bank.lastClosedRow) {
                // Wasted close: this access would have hit the row
                // the policy threw away — the strongest signal to
                // drift back toward open-page.
                if (bank.openScore < 3)
                    ++bank.openScore;
            } else if (bank.openScore > 0) {
                --bank.openScore;
            }
        }
        recovery = std::min(recovery, tRas + tWr + tRp);

        // Four-activate window: claim one of the four ACT slots per
        // tFAW bucket at or after the earliest command time.
        Tick actReady = start + recovery + pre;
        Tick actAt = actReady;
        if (actQuarter > 0)
            actAt = actMeter.reserve(actReady, actQuarter);
        if (actAt > actReady) {
            ++nActStalls;
            ++bank.actStallCount;
        }
        extra = recovery + (actAt - actReady);
        bank.lastActAt = std::max(bank.lastActAt, actAt);
        bank.openRow = c.row;
        bank.rowOpen = true;
        core = pre + tRcd + tCas;
    } else {
        ++bank.rowHits;
        core = tCas;
        // Hits decide with the score *after* the credit, so fresh
        // locality counts immediately.
        if (bank.openScore < 3)
            ++bank.openScore;
        keepScore = bank.openScore;
    }

    auto burst = static_cast<Tick>(ticksPerByte * bytes);
    if (faultsActive)
        applyFaults(core, burst, start);
    Tick begin = bank.meter.reserve(start, core + burst);
    Tick queue = begin - start;
    waitNs.sample(queue ? static_cast<double>(queue) / ticksPerNs : 0.0);
    Tick end = begin + core + burst + extra;

    if (isWrite) {
        ++nWrites;
        bank.writeEnd = std::max(bank.writeEnd, end);
    } else {
        ++nReads;
    }

    // Page policy: does the row buffer stay open for the next access?
    bool leave_open = policy == PagePolicy::Open
        || (policy == PagePolicy::Adaptive && keepScore >= 2);
    if (!leave_open) {
        // Auto-precharge: the bank is ready for its next ACT once the
        // burst (plus write recovery) and the precharge complete.
        bank.lastClosedRow = bank.openRow;
        bank.rowOpen = false;
        bank.openRow = ~0ull;
        bank.bankReadyAt = std::max(bank.bankReadyAt,
                                    end + (isWrite ? tWr : 0) + tRp);
    }
    energy.addDramAccess(bytes, row_miss, cacheRegion);

    return queue + core + burst + extra;
}

void
DdrBackend::forEachMeter(const MeterVisitor &visit) const
{
    for (std::size_t b = 0; b < banks.size(); ++b)
        visit("ddr bank", b, banks[b].meter);
    visit("ddr channel ACT", unit, actMeter);
}

void
DdrBackend::auditTiming(check::CheckContext &ctx) const
{
    if (actQuarter == 0)
        return; // tFAW disabled: the ACT meter is never reserved
    Tick fill = actMeter.maxBucketFill();
    ctx.require(fill <= actMeter.bucketWidth(), "ddr channel ", unit,
                ": ACT window overbooked — bucket fill ", fill,
                " exceeds ", actMeter.bucketWidth(),
                " (five ACTs within one tFAW window)");
    ctx.require(fill % actQuarter == 0, "ddr channel ", unit,
                ": ACT meter fill ", fill,
                " is not a whole number of quarter windows (",
                actQuarter, " ticks) — something other than ACT",
                " slots was poured into the ACT meter");
}

void
DdrBackend::regStats(obs::StatNode &node) const
{
    MemBackend::regStats(node);
    node.addValue("rowHits", [this] {
        return static_cast<double>(rowHits());
    }, obs::StatKind::Counter, true);
    node.addCounter("actStalls", &nActStalls);

    std::vector<std::string> names(banks.size());
    for (std::size_t b = 0; b < banks.size(); ++b)
        names[b] = std::to_string(b);
    obs::StatNode &bn = node.child("bank");
    bn.addVector("rowHits", names, [this](std::size_t b) {
        return static_cast<double>(banks[b].rowHits);
    }, obs::StatKind::Counter, true);
    bn.addVector("rowMisses", names, [this](std::size_t b) {
        return static_cast<double>(banks[b].rowMisses);
    }, obs::StatKind::Counter, true);
    bn.addVector("actStalls", names, [this](std::size_t b) {
        return static_cast<double>(banks[b].actStallCount);
    }, obs::StatKind::Counter, true);
    bn.addVector("refreshes", names, [this](std::size_t b) {
        return static_cast<double>(banks[b].refreshCount);
    }, obs::StatKind::Counter, true);
}

void
DdrBackend::discardBefore(Tick tb)
{
    for (auto &bank : banks) {
        Tick floor = refreshOn && bank.nextRefresh < tb
            ? bank.nextRefresh : tb;
        bank.meter.discardBefore(floor);
    }
    // ACT reservations start at or after their access's start tick,
    // so the caller's time fence applies to the ACT meter unchanged.
    actMeter.discardBefore(tb);
}

void
DdrBackend::resetState()
{
    for (auto &bank : banks) {
        bank.meter.reset();
        bank.openRow = ~0ull;
        bank.rowOpen = false;
        bank.lastActAt = 0;
        bank.writeEnd = 0;
        bank.bankReadyAt = 0;
        bank.openScore = 2;
        bank.lastClosedRow = ~0ull;
        // Stat counters (channel and per-bank) survive, as in the
        // meter backend: resetState forgets timing state only.
    }
    actMeter.reset();
    staggerRefresh();
}

} // namespace abndp
