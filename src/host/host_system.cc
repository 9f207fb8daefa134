#include "host/host_system.hh"

#include <algorithm>
#include <chrono>

#include "common/logging.hh"
#include "common/rng.hh"

namespace abndp
{

HostSystem::HostSystem(const SystemConfig &cfg_)
    : cfg(cfg_),
      alloc(cfg),
      llc(cfg.host.llc, mix64(cfg.seed ^ 0x4000ull)),
      channelMeter(cfg.host.ddrChannels),
      cores(cfg.host.cores),
      llcHitTicks(static_cast<Tick>(cfg.host.llcHitNs * ticksPerNs)),
      ddrLatencyTicks(static_cast<Tick>(cfg.host.ddrLatencyNs * ticksPerNs)),
      ddrTicksPerByte(1000.0 / cfg.host.ddrGBsPerChannel),
      cycleTicks(1000.0 / cfg.host.freqGHz)
{
}

void
HostSystem::enqueueTask(Task &&task)
{
    abndp_assert(workload != nullptr);
    if (inExecute)
        abndp_assert(task.timestamp == curEpoch + 1);
    else
        abndp_assert(task.timestamp == curEpoch);
    task.finalizeBlocks();
    staged.push_back(std::move(task));
}

Tick
HostSystem::executeTiming(const Task &task, Tick start)
{
    Tick t = start;

    // Blocks were memoized at enqueue (Task::finalizeBlocks); an empty
    // list means an empty hint.
    double stall = 0.0;
    for (Addr block : task.blocks) {
        if (llc.access(block)) {
            stall += static_cast<double>(llcHitTicks);
        } else {
            auto ch = blockNumber(block) % channelMeter.size();
            auto burst = static_cast<Tick>(ddrTicksPerByte
                                           * cachelineBytes);
            Tick begin = channelMeter[ch].reserve(t, burst);
            stall += static_cast<double>((begin - t) + ddrLatencyTicks
                                         + burst);
            llc.insert(block);
        }
    }

    // Out-of-order cores overlap independent misses: effective stall is
    // the serial latency divided by the MLP factor.
    t += static_cast<Tick>(stall / cfg.host.mlp);
    t += static_cast<Tick>(static_cast<double>(task.computeInstrs)
                           / cfg.host.ipc * cycleTicks);

    // Writes: LLC write-allocate, cost folded into compute.
    for (Addr w : task.writes)
        llc.insert(blockAlign(w));

    if (t == start)
        t = start + 1;
    return t;
}

void
HostSystem::tryDispatch()
{
    for (std::size_t c = 0; c < cores.size(); ++c) {
        auto &core = cores[c];
        if (core.busy)
            continue;
        if (active.empty())
            break;
        Task task = std::move(active.front());
        active.pop_front();

        inExecute = true;
        workload->executeTask(task, *this);
        inExecute = false;

        Tick now = eq.now();
        Tick end = executeTiming(task, now);
        core.busy = true;
        core.activeTicks += end - now;
        ++totalTasks;
        eq.schedule(end, [this, c] {
            cores[c].busy = false;
            abndp_assert(activeRemaining > 0);
            --activeRemaining;
            lastCompletionTick = eq.now();
            tryDispatch();
        });
    }
}

RunMetrics
HostSystem::run(Workload &wl)
{
    abndp_assert(workload == nullptr, "HostSystem::run() may be called once");
    const auto hostStart = std::chrono::steady_clock::now();
    workload = &wl;
    wl.setup(alloc);

    curEpoch = 0;
    wl.emitInitialTasks(*this);

    std::uint64_t ts = 0;
    while (!staged.empty() && (cfg.maxEpochs == 0 || ts < cfg.maxEpochs)) {
        curEpoch = ts;
        active.swap(staged);
        staged.clear();
        activeRemaining = active.size();
        tryDispatch();
        eq.runAll();
        abndp_assert(activeRemaining == 0);
        // Bulk boundary: the LLC may keep data (hardware-coherent host),
        // but primary data changed, so invalidate for conservatism.
        llc.invalidateAll();
        wl.endEpoch(ts);
        ++ts;
    }

    RunMetrics m;
    m.ticks = lastCompletionTick;
    m.epochs = ts;
    m.tasks = totalTasks;
    for (const auto &core : cores)
        m.coreActiveTicks.push_back(core.activeTicks);
    m.l1Hits = llc.hits();
    m.l1Misses = llc.misses();
    m.simEvents = eq.executed();
    m.hostSeconds = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - hostStart).count();
    return m;
}

} // namespace abndp
