#include "common/config.hh"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/logging.hh"

namespace abndp
{

namespace
{

using logging_detail::concat;

bool
isPow2(std::uint64_t x)
{
    return x != 0 && std::has_single_bit(x);
}

/** Shared geometry rules for the per-core SRAM caches. */
std::string
cacheGeometryError(const CacheGeometry &geom, const char *name)
{
    if (geom.sizeBytes == 0 || !isPow2(geom.sizeBytes))
        return concat(name, " size (", geom.sizeBytes,
                      " bytes) must be a nonzero power of two");
    if (geom.lineBytes == 0 || !isPow2(geom.lineBytes))
        return concat(name, " line size (", geom.lineBytes,
                      " bytes) must be a nonzero power of two");
    if (geom.assoc == 0)
        return concat(name, " associativity must be nonzero");
    if (geom.numSets() == 0)
        return concat(name, " geometry degenerate: ", geom.sizeBytes,
                      "B / ", geom.lineBytes, "B lines / ", geom.assoc,
                      "-way leaves zero sets");
    return {};
}

} // namespace

const char *
memBackendName(MemBackendKind k)
{
    switch (k) {
      case MemBackendKind::Meter: return "meter";
      case MemBackendKind::Ddr: return "ddr";
    }
    panic("unknown memory backend kind");
}

MemBackendKind
memBackendFromName(const std::string &name)
{
    if (name == "meter")
        return MemBackendKind::Meter;
    if (name == "ddr")
        return MemBackendKind::Ddr;
    fatal("unknown memory backend '", name, "' (valid: meter, ddr)");
}

const char *
pagePolicyName(PagePolicy p)
{
    switch (p) {
      case PagePolicy::Open: return "open";
      case PagePolicy::Close: return "close";
      case PagePolicy::Adaptive: return "adaptive";
    }
    panic("unknown page policy");
}

PagePolicy
pagePolicyFromName(const std::string &name)
{
    if (name == "open")
        return PagePolicy::Open;
    if (name == "close")
        return PagePolicy::Close;
    if (name == "adaptive")
        return PagePolicy::Adaptive;
    fatal("unknown page policy '", name,
          "' (valid: open, close, adaptive)");
}

const char *
dramAddrMapName(DramAddrMapKind k)
{
    switch (k) {
      case DramAddrMapKind::RowBankColumn: return "rbc";
      case DramAddrMapKind::RowColumnBank: return "rcb";
      case DramAddrMapKind::BankRowColumn: return "brc";
    }
    panic("unknown dram address map");
}

DramAddrMapKind
dramAddrMapFromName(const std::string &name)
{
    if (name == "rbc")
        return DramAddrMapKind::RowBankColumn;
    if (name == "rcb")
        return DramAddrMapKind::RowColumnBank;
    if (name == "brc")
        return DramAddrMapKind::BankRowColumn;
    fatal("unknown dram address map '", name, "' (valid: rbc, rcb, brc)");
}

std::string
SystemConfig::validationError() const
{
    if (meshX == 0 || meshY == 0)
        return "mesh dimensions must be nonzero";
    if (unitsPerStack == 0 || coresPerUnit == 0)
        return "unitsPerStack and coresPerUnit must be nonzero (a system "
               "with zero NDP units cannot execute tasks)";
    // numStacks(), numUnits() and numCores() are 32-bit products; a
    // wrapped count would pass every rule below. The running product
    // stays below 2^64: it stops growing once it passes 2^32.
    std::uint64_t cores = 1;
    for (std::uint64_t factor : {meshX, meshY, unitsPerStack, coresPerUnit})
        if (cores <= std::numeric_limits<std::uint32_t>::max())
            cores *= factor;
    if (cores > std::numeric_limits<std::uint32_t>::max())
        return concat("meshX*meshY*unitsPerStack*coresPerUnit (", meshX,
                      "*", meshY, "*", unitsPerStack, "*", coresPerUnit,
                      ") exceeds the 32-bit core count limit (",
                      std::numeric_limits<std::uint32_t>::max(), ")");
    if (!isPow2(memBytesPerUnit))
        return "memBytesPerUnit must be a power of two";
    if (auto e = cacheGeometryError(l1d, "L1-D"); !e.empty())
        return e;
    if (auto e = cacheGeometryError(l1i, "L1-I"); !e.empty())
        return e;
    if (prefetchBufBytes < cachelineBytes)
        return concat("prefetchBufBytes must hold at least one ",
                      cachelineBytes, "-byte block, got ",
                      prefetchBufBytes);
    if (traveller.style != CacheStyle::None) {
        if (!isPow2(traveller.ratioDenom))
            return "traveller ratio denominator must be a power of two";
        if (traveller.assoc == 0 || travellerSets() == 0)
            return "traveller cache geometry degenerate";
        if (traveller.campCount == 0)
            return "campCount must be >= 1 when the Traveller Cache is on";
        // In 64 bits: numGroups() wraps to 0 at the largest campCount.
        const std::uint64_t groups = std::uint64_t{traveller.campCount} + 1;
        if (numUnits() % groups != 0)
            return concat("numUnits (", numUnits(), ") must be divisible "
                          "by the number of camp groups (", groups, ")");
        if (traveller.bypassProb < 0.0 || traveller.bypassProb > 1.0)
            return "bypassProb must be within [0, 1]";
        if (traveller.tagCheckNs < 0.0 || traveller.sramDataNs < 0.0)
            return "traveller tagCheckNs and sramDataNs must be "
                   "non-negative";
    }
    if (pbHitNs < 0.0)
        return concat("pbHitNs must be non-negative, got ", pbHitNs);
    if (l1iMissNs < 0.0)
        return concat("l1iMissNs must be non-negative, got ", l1iMissNs);
    if (sched.prefetchWindow == 0)
        return "prefetchWindow must be nonzero";
    if (sched.schedulingWindow == 0)
        return "schedulingWindow must be nonzero";
    if (sched.stealBatch == 0 && sched.workStealing)
        return "stealBatch must be nonzero when work stealing is enabled";
    if (sched.exchangeIntervalCycles == 0)
        return "exchangeIntervalCycles must be nonzero (a zero-cycle "
               "exchange interval re-arms the snapshot chain every tick "
               "and livelocks the epoch)";
    if (sched.missPipelineDepth < 1 || sched.missPipelineDepth > 64)
        return concat("missPipelineDepth must be within [1, 64], got ",
                      sched.missPipelineDepth);
    if (coreFreqGHz <= 0.0)
        return "coreFreqGHz must be positive";
    if (tlb.enabled) {
        if (tlb.pageBytes == 0 || !isPow2(tlb.pageBytes))
            return "TLB page size must be a nonzero power of two";
        if (tlb.assoc == 0 || tlb.entries == 0
            || tlb.entries % tlb.assoc != 0)
            return concat("TLB entries (", tlb.entries,
                          ") must be a nonzero multiple of the "
                          "associativity (", tlb.assoc, ")");
    }

    // ---- Fault injection (src/fault) ----
    const auto &st = fault.straggler;
    if (st.computeDerate <= 0.0 || st.computeDerate > 1.0)
        return concat("straggler computeDerate must be within (0, 1], "
                      "got ", st.computeDerate, " (1.0 = full speed; use "
                      "count=0 to disable straggler injection)");
    if (st.bandwidthDerate <= 0.0 || st.bandwidthDerate > 1.0)
        return concat("straggler bandwidthDerate must be within (0, 1], "
                      "got ", st.bandwidthDerate);
    if (st.count > numUnits())
        return concat("straggler count (", st.count,
                      ") exceeds the unit count (", numUnits(), ")");
    for (std::uint32_t u : st.units)
        if (u >= numUnits())
            return concat("straggler unit id ", u, " is out of range "
                          "(system has ", numUnits(), " units, ids 0..",
                          numUnits() - 1, ")");
    if (st.windowEndNs < 0.0 || st.windowStartNs < 0.0)
        return "straggler window bounds must be non-negative";
    if (st.windowEndNs != 0.0 && st.windowEndNs <= st.windowStartNs)
        return concat("straggler window is empty: windowEndNs (",
                      st.windowEndNs, ") must exceed windowStartNs (",
                      st.windowStartNs,
                      "), or be 0 for an always-on straggler");

    const auto &lf = fault.link;
    if (lf.dropProb < 0.0 || lf.dropProb >= 1.0)
        return concat("link dropProb must be within [0, 1), got ",
                      lf.dropProb,
                      " (a link dropping every packet never delivers)");
    if (lf.extraLatencyNs < 0.0 || lf.retryBackoffNs < 0.0)
        return "link extraLatencyNs and retryBackoffNs must be "
               "non-negative";
    if (lf.count > numStacks() * 4)
        return concat("faulty link count (", lf.count, ") exceeds the "
                      "directed mesh link count (", numStacks() * 4, ")");
    for (std::uint32_t l : lf.links)
        if (l >= numStacks() * 4)
            return concat("faulty link index ", l, " is out of range "
                          "(mesh has ", numStacks() * 4,
                          " directed links, stack*4+dir)");
    if (lf.enabled() && lf.dropProb > 0.0 && lf.maxRetries == 0)
        return "link maxRetries must be nonzero when dropProb > 0 "
               "(a dropped packet needs at least one retry to arrive)";

    // ---- Memory backend (src/mem) ----
    if (dram.banks == 0)
        return "dram banks must be nonzero";
    if (dram.rowBytes == 0)
        return "dram rowBytes must be nonzero";
    if (dram.busBits == 0)
        return "dram busBits must be nonzero";
    if (dram.busGHz <= 0.0)
        return concat("dram busGHz must be positive, got ", dram.busGHz);
    if (dram.tCasNs < 0.0 || dram.tRcdNs < 0.0 || dram.tRpNs < 0.0)
        return "dram tCAS/tRCD/tRP must be non-negative";
    if (dram.refreshEnabled) {
        if (dram.tRefiNs <= 0.0)
            return concat("dram tREFI must be positive when refresh is "
                          "enabled, got ", dram.tRefiNs);
        if (dram.tRfcNs < 0.0)
            return concat("dram tRFC must be non-negative, got ",
                          dram.tRfcNs);
        if (dram.refreshCatchupMax == 0)
            return "dram refreshCatchupMax must be nonzero (a zero bound "
                   "never charges a lagging bank any refresh at all)";
    }
    if (dram.backend == MemBackendKind::Ddr) {
        if (!isPow2(dram.burstBytes))
            return concat("dram burstBytes must be a nonzero power of "
                          "two, got ", dram.burstBytes);
        if (dram.rowBytes % dram.burstBytes != 0)
            return concat("dram rowBytes (", dram.rowBytes, ") must be a "
                          "multiple of burstBytes (", dram.burstBytes,
                          ")");
        if (dram.bankGroups == 0 || dram.banks % dram.bankGroups != 0)
            return concat("dram banks (", dram.banks, ") must be a "
                          "nonzero multiple of bankGroups (",
                          dram.bankGroups, ")");
        if (dram.tRasNs < dram.tRcdNs)
            return concat("dram tRAS (", dram.tRasNs, "ns) must cover at "
                          "least tRCD (", dram.tRcdNs, "ns): the row "
                          "must stay open through its own column access");
        if (dram.tWrNs < 0.0 || dram.tFawNs < 0.0)
            return "dram tWR and tFAW must be non-negative";
        if (dram.addrMap == DramAddrMapKind::BankRowColumn
            && memBytesPerUnit % dram.banks != 0)
            return concat("the brc address map slices each unit's region "
                          "evenly across banks: memBytesPerUnit (",
                          memBytesPerUnit, ") must be a multiple of dram "
                          "banks (", dram.banks, ")");
    }

    if (!traceOut.empty() && traceBufferEvents == 0)
        return "traceBufferEvents must be nonzero when event tracing is "
               "enabled (--trace-out)";

    const auto &df = fault.dram;
    if (df.eccRetryProb < 0.0 || df.eccRetryProb >= 1.0)
        return concat("dram eccRetryProb must be within [0, 1), got ",
                      df.eccRetryProb);
    if (df.eccRetryNs < 0.0)
        return "dram eccRetryNs must be non-negative";

    // ---- Online serving (src/serve) ----
    if (serving.enabled()) {
        if (serving.ratePerUs <= 0.0)
            return concat("serving ratePerUs must be positive, got ",
                          serving.ratePerUs, " (an open-loop stream "
                          "needs a nonzero arrival rate)");
        if (serving.burstFactor < 1.0)
            return concat("serving burstFactor must be >= 1, got ",
                          serving.burstFactor, " (the burst phase cannot "
                          "run below the mean rate)");
        if (serving.burstFraction < 0.0 || serving.burstFraction >= 1.0)
            return concat("serving burstFraction must be within [0, 1), "
                          "got ", serving.burstFraction);
        if (serving.profile == RateProfile::Bursty
            && serving.burstFactor * serving.burstFraction >= 1.0)
            return concat("serving burstFactor (", serving.burstFactor,
                          ") * burstFraction (", serving.burstFraction,
                          ") must stay below 1 so the off-phase rate that "
                          "preserves the mean remains positive");
        if (serving.burstPeriodUs <= 0.0)
            return concat("serving burstPeriodUs must be positive, got ",
                          serving.burstPeriodUs);
        if (serving.diurnalPeriodUs <= 0.0)
            return concat("serving diurnalPeriodUs must be positive, got ",
                          serving.diurnalPeriodUs);
        if (serving.diurnalDepth < 0.0 || serving.diurnalDepth >= 1.0)
            return concat("serving diurnalDepth must be within [0, 1), "
                          "got ", serving.diurnalDepth,
                          " (depth 1 would zero the trough rate and the "
                          "thinning sampler would stall)");
        if (serving.zipfS < 0.0)
            return concat("serving zipfS must be non-negative, got ",
                          serving.zipfS);
        if (serving.tenants == 0)
            return "serving tenants must be nonzero (every request "
                   "belongs to some tenant)";
        if (serving.tenants > 64)
            return concat("serving tenants must be at most 64, got ",
                          serving.tenants, " (per-tenant latency logs "
                          "are dense and tasks carry an 8-bit tenant id)");
        if (!serving.tenantWeights.empty()
            && serving.tenantWeights.size() != serving.tenants)
            return concat("serving tenantWeights has ",
                          serving.tenantWeights.size(), " entries but ",
                          serving.tenants, " tenants are configured "
                          "(leave it empty for equal shares)");
        for (double w : serving.tenantWeights)
            if (w <= 0.0)
                return concat("serving tenant weights must be positive, "
                              "got ", w);
        if (serving.sloNs <= 0.0)
            return concat("serving sloNs must be positive, got ",
                          serving.sloNs);
    }

    // ---- Hierarchical load balancing (src/sched/lb) ----
    if (lb.enabled) {
        if (lb.intraTier == LbTierKind::None
            && lb.interTier == LbTierKind::None)
            return "lb enabled with both tiers set to none balances "
                   "nothing; disable it or pick a tier balancer";
        if (lb.hotK == 0)
            return "lb hotK must be nonzero (the hotness tracker needs "
                   "at least one counter slot per unit)";
        if (lb.decayShift > 63)
            return concat("lb decayShift must be at most 63, got ",
                          lb.decayShift, " (counters are 64-bit; larger "
                          "shifts are undefined)");
        if (lb.chunkSize == 0
            && (lb.intraTier == LbTierKind::Stealing
                || lb.interTier == LbTierKind::Stealing))
            return "lb chunkSize must be nonzero when a stealing tier is "
                   "configured (a zero chunk sheds no tasks)";
        if ((lb.reserveFrac < 0.0 || lb.reserveFrac > 1.0)
            && (lb.intraTier == LbTierKind::Reserve
                || lb.interTier == LbTierKind::Reserve))
            return concat("lb reserveFrac must be within [0, 1], got ",
                          lb.reserveFrac);
    }
    if (lb.migration.enabled) {
        if (!lb.enabled)
            return "lb migration requires the load balancer itself: "
                   "re-homing decisions ride the exchange windows";
        if (lb.migration.threshold == 0)
            return "lb migration threshold must be nonzero (a zero "
                   "threshold re-homes every tracked block every "
                   "window)";
        if (lb.migration.maxPerExchange == 0)
            return "lb migration maxPerExchange must be nonzero (a zero "
                   "cap silently disables migration; disable it "
                   "explicitly instead)";
    }

    const auto &uf = fault.unitFailure;
    for (std::uint32_t u : uf.units)
        if (u >= numUnits())
            return concat("failed unit id ", u, " is out of range (system "
                          "has ", numUnits(), " units, ids 0..",
                          numUnits() - 1, ")");
    if (uf.enabled()) {
        // Recovery re-homes dead ranges onto live buddies; killing the
        // whole machine leaves nowhere to recover to.
        std::uint32_t nFailed;
        if (!uf.units.empty()) {
            auto ids = uf.units;
            std::sort(ids.begin(), ids.end());
            ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
            nFailed = static_cast<std::uint32_t>(ids.size());
        } else {
            nFailed = uf.count;
        }
        if (nFailed >= numUnits())
            return concat("unit failures must leave at least one live "
                          "unit (", nFailed, " failures configured for ",
                          numUnits(), " units)");
        if (uf.failAtNs < 0.0 || uf.recoverAtNs < 0.0)
            return "unit-failure failAtNs and recoverAtNs must be "
                   "non-negative";
        if (uf.recoverAtNs != 0.0 && uf.recoverAtNs <= uf.failAtNs)
            return concat("unit-failure recoverAtNs (", uf.recoverAtNs,
                          ") must exceed failAtNs (", uf.failAtNs,
                          "), or be 0 for a permanent kill");
        if (uf.ackTimeoutNs <= 0.0)
            return "unit-failure ackTimeoutNs must be positive (a zero "
                   "timeout redispatches every send instantly)";
        if (uf.redispatchBackoffNs < 0.0)
            return "unit-failure redispatchBackoffNs must be "
                   "non-negative";
        if (uf.maxRedispatch == 0)
            return "unit-failure maxRedispatch must be nonzero (an "
                   "undeliverable task needs at least one redispatch "
                   "to reach a live unit)";
    }
    return {};
}

void
SystemConfig::validate() const
{
    if (auto e = validationError(); !e.empty())
        fatal(e);
}

void
SystemConfig::print(std::ostream &os) const
{
    os << "NDP system      : " << meshX << "x" << meshY
       << " stacks in mesh, " << unitsPerStack << " NDP units per stack; "
       << (totalMemBytes() >> 30) << "GB in total, "
       << (memBytesPerUnit >> 20) << "MB per unit\n";
    os << "NDP core        : " << coreFreqGHz << "GHz, " << coresPerUnit
       << " cores per NDP unit (" << numCores() << " in total)\n";
    os << "L1-D cache      : " << (l1d.sizeBytes >> 10) << "kB, "
       << l1d.assoc << "-way, " << l1d.lineBytes << "B cachelines, LRU\n";
    os << "L1-I cache      : " << (l1i.sizeBytes >> 10) << "kB, "
       << l1i.assoc << "-way, " << l1i.lineBytes << "B cachelines, LRU\n";
    os << "Prefetch buffer : " << (prefetchBufBytes >> 10) << "kB, "
       << cachelineBytes << "B blocks, FIFO\n";
    os << "DRAM channel    : " << dram.busBits << " bits; tCAS=tRCD=tRP="
       << dram.tCasNs << "ns; " << dram.pjPerBitRw << "pJ/bit RD/WR, "
       << dram.pjActPre << "pJ ACT/PRE\n";
    os << "Memory backend  : " << memBackendName(dram.backend);
    if (dram.backend == MemBackendKind::Ddr)
        os << " (" << pagePolicyName(dram.pagePolicy) << " page, "
           << dramAddrMapName(dram.addrMap) << " map, " << dram.banks
           << " banks / " << dram.bankGroups << " groups; tRAS="
           << dram.tRasNs << "ns, tWR=" << dram.tWrNs << "ns, tFAW="
           << dram.tFawNs << "ns)";
    os << "\n";
    os << "Intra-stack net : " << net.intraLinkBits << "-bit link; "
       << net.intraHopNs << "ns/hop; " << net.intraPjPerBit << "pJ/bit\n";
    os << "Inter-stack net : " << net.interGBs << "GB/s per direction; "
       << net.interHopNs << "ns/hop; " << net.interPjPerBit << "pJ/bit\n";
    if (traveller.style != CacheStyle::None) {
        os << "Traveller Cache : 1/R=1/" << traveller.ratioDenom
           << " of local mem. capacity, " << traveller.assoc << "-way; C="
           << traveller.campCount << " camp loc.; "
           << (traveller.repl == ReplPolicy::Random ? "random" : "LRU")
           << " repl., " << static_cast<int>(traveller.bypassProb * 100)
           << "% bypass\n";
    } else {
        os << "Traveller Cache : disabled\n";
    }
    os << "Scheduler       : " << sched.exchangeIntervalCycles
       << "-cycle workload exchange interval; hybrid scheduling weight B="
       << sched.hybridAlpha << "*Dinter\n";
    if (lb.enabled) {
        os << "Hierarchical LB : intra=" << lbTierName(lb.intraTier)
           << ", inter=" << lbTierName(lb.interTier) << "; hotK="
           << lb.hotK << ", decay>>" << lb.decayShift;
        if (lb.migration.enabled)
            os << "; migration (threshold=" << lb.migration.threshold
               << ", cooldown=" << lb.migration.cooldownWindows
               << " windows, max " << lb.migration.maxPerExchange
               << "/exchange)";
        os << "\n";
    }
    if (fault.anyInjector()) {
        os << "Fault injection :";
        if (fault.straggler.enabled())
            os << " stragglers="
               << (fault.straggler.units.empty()
                       ? fault.straggler.count
                       : static_cast<std::uint32_t>(
                             fault.straggler.units.size()))
               << " (compute x" << fault.straggler.computeDerate
               << ", bandwidth x" << fault.straggler.bandwidthDerate
               << ");";
        if (fault.link.enabled())
            os << " faulty links="
               << (fault.link.links.empty()
                       ? fault.link.count
                       : static_cast<std::uint32_t>(
                             fault.link.links.size()))
               << " (drop " << fault.link.dropProb << ", +"
               << fault.link.extraLatencyNs << "ns);";
        if (fault.dram.enabled())
            os << " dram ECC retry p=" << fault.dram.eccRetryProb << " (+"
               << fault.dram.eccRetryNs << "ns);";
        if (fault.unitFailure.enabled())
            os << " failed units="
               << (fault.unitFailure.units.empty()
                       ? fault.unitFailure.count
                       : static_cast<std::uint32_t>(
                             fault.unitFailure.units.size()))
               << " (fail@" << fault.unitFailure.failAtNs << "ns, "
               << (fault.unitFailure.recoverAtNs == 0.0
                       ? std::string("permanent")
                       : std::string("recover@")
                             + std::to_string(
                                   fault.unitFailure.recoverAtNs)
                             + "ns")
               << ");";
        os << "\n";
    }
}

const char *
designName(Design d)
{
    switch (d) {
      case Design::H: return "H";
      case Design::B: return "B";
      case Design::Sm: return "Sm";
      case Design::Sl: return "Sl";
      case Design::Sh: return "Sh";
      case Design::C: return "C";
      case Design::O: return "O";
      case Design::Hlb: return "HLB";
      case Design::HlbM: return "HLB-mig";
    }
    panic("unknown design");
}

} // namespace abndp
