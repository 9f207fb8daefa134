#include "core/access_path.hh"

#include <bit>

#include "common/logging.hh"

namespace abndp
{

AccessPath::AccessPath(const SystemConfig &cfg, MemSystem &mem,
                       EnergyAccount &energy, const FaultModel &faults)
    : cfg(cfg), mem(mem), energy(energy), faults(faults),
      pbHitTicks(static_cast<Tick>(cfg.pbHitNs * ticksPerNs)),
      l1HitTicks(cfg.ticksPerCycle()),
      tlbMissTicks(static_cast<Tick>(cfg.tlb.missNs * ticksPerNs)),
      l1iMissTicks(static_cast<Tick>(cfg.l1iMissNs * ticksPerNs)),
      pageShift(static_cast<std::uint32_t>(
          std::countr_zero(static_cast<std::uint64_t>(
              cfg.tlb.pageBytes))))
{
    // The prefetch unit fetches every hint address of window tasks, up
    // to the buffer capacity per task (larger hints finish on demand).
    std::uint64_t pb_blocks = cfg.prefetchBufBytes / cachelineBytes;
    quota = static_cast<std::uint32_t>(pb_blocks);
}

std::span<const Addr>
AccessPath::taskBlocks(const Task &task)
{
    if (!task.blocks.empty())
        return {task.blocks.data(), task.blocks.size()};
    blockScratch.resize(task.hint.totalLines());
    return {blockScratch.data(),
            deriveBlocks(task.hint, blockScratch.data())};
}

void
AccessPath::prefetchTask(NdpUnit &unit, Task &task, Tick now)
{
    task.prefetched = true;
    const auto blocks = taskBlocks(task);
    std::uint32_t issued = 0;
    for (Addr block : blocks) {
        if (issued >= quota)
            break;
        if (unit.pb->peek(block))
            continue; // already buffered or in flight
        bool in_l1 = false;
        for (const auto &core : unit.cores) {
            if (core.l1d->contains(block)) {
                in_l1 = true;
                break;
            }
        }
        if (in_l1)
            continue; // a core already holds the line
        AccessRequest req{unit.id(), 0, block, now, true};
        AccessResult res = mem.read(req);
        notify(req, res.served, now + res.latency);
        unit.pb->fill(block, now + res.latency);
        ++issued;
    }
}

Tick
AccessPath::executeTask(NdpUnit &unit, std::uint32_t coreIdx,
                        const Task &task, Tick start)
{
    const UnitId u = unit.id();
    auto &core = unit.cores[coreIdx];
    Tick t = start;

    const auto blocks = taskBlocks(task);

    // Straggler compute derating stretches every core-local latency
    // (instruction fetch, TLB walks, L1/buffer hits, compute cycles);
    // remote-memory latencies are derated at their own subsystems. The
    // default slowdown of 1.0 leaves every term bit-identical.
    const double slow = faults.computeSlowdown(u, start);
    auto stretch = [slow](Tick ticks) {
        return static_cast<Tick>(ticks * slow);
    };

    // Instruction fetch: the task handler's code streams through the
    // L1-I; only cold/capacity misses cost latency (local code fill).
    if (cfg.taskCodeBytes > 0) {
        Addr code_base = (1ull << 40)
            + static_cast<Addr>(task.func) * cfg.taskCodeBytes;
        for (Addr a = code_base; a < code_base + cfg.taskCodeBytes;
             a += cachelineBytes) {
            if (!core.l1i->access(a)) {
                t += stretch(l1iMissTicks);
                core.l1i->insert(a);
            }
            energy.addL1Access();
        }
    }

    // Address translation: one TLB lookup per distinct page touched
    // (Section 3.2: per-core local TLBs).
    if (cfg.tlb.enabled) {
        Addr last_page = invalidAddr;
        for (Addr block : blocks) {
            Addr page = block >> pageShift;
            if (page == last_page)
                continue;
            last_page = page;
            energy.addTlbAccess();
            if (!core.tlb->access(page << cachelineBits)) {
                t += stretch(tlbMissTicks);
                core.tlb->insert(page << cachelineBits);
                notify({u, coreIdx, block, t, false},
                       AccessLevel::Tlb, t);
            }
        }
    }

    // Demand misses of the executing task may overlap up to
    // missPipelineDepth outstanding requests (1 = a strictly in-order
    // core that stalls on every miss).
    const std::uint32_t depth = cfg.sched.missPipelineDepth;
    abndp_assert(depth >= 1 && depth <= 64);
    Tick inflight[64] = {};
    std::uint32_t slot = 0;
    for (Addr block : blocks) {
        Tick ready = unit.pb->lookup(block, t);
        if (ready != tickNever) {
            if (ready > t)
                t = ready; // prefetch still in flight
            t += stretch(pbHitTicks);
            energy.addPrefetchBufAccess();
            notify({u, coreIdx, block, t, false},
                   AccessLevel::PrefetchBuf, t);
            // Consumed prefetches are installed into the core's L1 so a
            // block fetched once serves every later task on this core
            // within the timestamp (the FIFO buffer itself is tiny).
            core.l1d->insert(block);
        } else if (core.l1d->access(block)) {
            t += stretch(l1HitTicks);
            energy.addL1Access();
            notify({u, coreIdx, block, t, false}, AccessLevel::L1, t);
        } else {
            energy.addL1Access(); // the miss probe
            Tick issue = t > inflight[slot] ? t : inflight[slot];
            AccessRequest req{u, coreIdx, block, issue, false};
            AccessResult res = mem.read(req);
            Tick done = issue + res.latency;
            notify(req, res.served, done);
            inflight[slot] = done;
            slot = (slot + 1) % depth;
            t = done;
            core.l1d->insert(block);
        }
    }

    t += stretch(task.computeInstrs * cfg.ticksPerCycle());
    energy.addCoreInstructions(task.computeInstrs + blocks.size());

    for (Addr w : task.writes)
        mem.writeBlock(u, w, t);

    return t;
}

} // namespace abndp
