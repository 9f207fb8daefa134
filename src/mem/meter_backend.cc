#include "mem/meter_backend.hh"

namespace abndp
{

MeterBackend::MeterBackend(const SystemConfig &cfg, EnergyAccount &energy,
                           UnitId unit, const FaultModel *faults)
    : MemBackend(cfg, energy, unit, faults),
      banks(cfg.dram.banks),
      rowSplit(cfg.dram.rowBytes),
      bankSplit(cfg.dram.banks)
{
    staggerRefresh();
}

void
MeterBackend::staggerRefresh()
{
    // Banks refresh round-robin so no refresh lands exactly at t = 0.
    for (std::size_t b = 0; b < banks.size(); ++b)
        banks[b].nextRefresh = tRefi * (b + 1) / banks.size();
}

Tick
MeterBackend::access(Addr addr, std::uint32_t bytes, bool isWrite,
                     bool cacheRegion, Tick start)
{
    std::uint64_t row = rowSplit.div(addr);
    auto &bank = banks[bankSplit.mod(row)];

    // Lazy per-bank refresh: account the refreshes due before this
    // access; long idle gaps only charge a bounded backlog (the rest is
    // hidden in idle time anyway). Refresh closes the row buffer.
    if (refreshOn && bank.nextRefresh <= start) {
        std::uint32_t catchup = 0;
        while (bank.nextRefresh <= start && catchup < refreshCatchupMax) {
            bank.meter.reserve(bank.nextRefresh, tRfc);
            bank.nextRefresh += tRefi;
            ++nRefreshes;
            ++catchup;
        }
        if (bank.nextRefresh <= start)
            bank.nextRefresh = start + tRefi;
        bank.openRow = ~0ull;
    }

    Tick core;
    bool row_miss = bank.openRow != row;
    if (row_miss) {
        ++nRowMisses;
        core = tRp + tRcd + tCas;
        bank.openRow = row;
    } else {
        core = tCas;
    }

    auto burst = static_cast<Tick>(ticksPerByte * bytes);
    if (faultsActive)
        applyFaults(core, burst, start);
    Tick begin = bank.meter.reserve(start, core + burst);
    Tick queue = begin - start;
    // Skip the int-to-double divide for uncontended accesses; 0/1000
    // is exactly 0.0, so the sampled distribution is unchanged.
    waitNs.sample(queue ? static_cast<double>(queue) / ticksPerNs : 0.0);

    if (isWrite)
        ++nWrites;
    else
        ++nReads;
    energy.addDramAccess(bytes, row_miss, cacheRegion);

    return queue + core + burst;
}

void
MeterBackend::forEachMeter(const MeterVisitor &visit) const
{
    for (std::size_t b = 0; b < banks.size(); ++b)
        visit("dram bank", b, banks[b].meter);
}

void
MeterBackend::discardBefore(Tick tb)
{
    for (auto &bank : banks) {
        Tick floor = refreshOn && bank.nextRefresh < tb
            ? bank.nextRefresh : tb;
        bank.meter.discardBefore(floor);
    }
}

void
MeterBackend::resetState()
{
    for (auto &bank : banks) {
        bank.meter.reset();
        bank.openRow = ~0ull;
    }
    staggerRefresh();
}

} // namespace abndp
