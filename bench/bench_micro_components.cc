/**
 * @file
 * Component microbenchmarks (google-benchmark): throughput of the hot
 * simulator primitives — camp mapping, cache probes, the event queue,
 * DRAM/network reservations and meter pages, scheduler scoring, the
 * serving key draw — of the graph set-up every graph workload starts
 * with, of building one graph task's hint, and of one task's trip
 * through a TaskPool slot. These guard the simulator's own
 * performance, not the paper's results.
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <utility>
#include <vector>

#include "cache/camp_mapping.hh"
#include "cache/set_assoc_cache.hh"
#include "cache/traveller_cache.hh"
#include "common/config.hh"
#include "common/rng.hh"
#include "energy/energy.hh"
#include "mem/address_map.hh"
#include "mem/meter_backend.hh"
#include "net/network.hh"
#include "net/topology.hh"
#include "sched/scheduler.hh"
#include "serve/zipf.hh"
#include "sim/bandwidth_meter.hh"
#include "sim/event_queue.hh"
#include "tasking/task_pool.hh"
#include "workloads/graph_gen.hh"
#include "workloads/graph_layout.hh"
#include "workloads/kvstore.hh"

namespace abndp
{

namespace
{

SystemConfig
cachedConfig()
{
    SystemConfig cfg;
    cfg.traveller.style = CacheStyle::TravellerSramTags;
    return cfg;
}

void
BM_Mix64(benchmark::State &state)
{
    std::uint64_t x = 1;
    for (auto _ : state) {
        x = mix64(x);
        benchmark::DoNotOptimize(x);
    }
}
BENCHMARK(BM_Mix64);

void
BM_RngNext(benchmark::State &state)
{
    Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_RngNext);

void
BM_EventQueueSchedule(benchmark::State &state)
{
    EventQueue eq;
    Tick t = 0;
    for (auto _ : state) {
        eq.schedule(++t, [] {});
        if (eq.size() > 1024)
            eq.runAll();
    }
}
BENCHMARK(BM_EventQueueSchedule);

void
BM_CampCandidates(benchmark::State &state)
{
    auto cfg = cachedConfig();
    Topology topo(cfg);
    AddressMap amap(cfg);
    CampMapping camps(cfg, topo, amap);
    CandidateList cl;
    Addr a = 0;
    for (auto _ : state) {
        camps.candidates(a, cl);
        benchmark::DoNotOptimize(cl.loc[0]);
        a += 64;
    }
}
BENCHMARK(BM_CampCandidates);

void
BM_NearestCandidate(benchmark::State &state)
{
    auto cfg = cachedConfig();
    Topology topo(cfg);
    AddressMap amap(cfg);
    CampMapping camps(cfg, topo, amap);
    Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            camps.nearestCandidate(a, static_cast<UnitId>(a / 64 % 128)));
        a += 64;
    }
}
BENCHMARK(BM_NearestCandidate);

void
BM_L1Access(benchmark::State &state)
{
    SystemConfig cfg;
    SetAssocCache l1(cfg.l1d);
    Addr a = 0;
    for (auto _ : state) {
        if (!l1.access(a))
            l1.insert(a);
        a = (a + 64) % (1 << 20);
    }
}
BENCHMARK(BM_L1Access);

void
BM_TravellerLookupInsert(benchmark::State &state)
{
    auto cfg = cachedConfig();
    TravellerCache tc(cfg, 1);
    Addr a = 0;
    for (auto _ : state) {
        if (!tc.lookup(a))
            tc.maybeInsert(a);
        a = (a + 64) % (1 << 22);
    }
}
BENCHMARK(BM_TravellerLookupInsert);

/** A full-size Traveller with @p blocks resident (no bypassing). */
std::unique_ptr<TravellerCache>
filledTraveller(std::uint64_t blocks)
{
    auto cfg = cachedConfig();
    cfg.traveller.bypassProb = 0.0;
    auto tc = std::make_unique<TravellerCache>(cfg, 1);
    for (std::uint64_t b = 0; b < blocks; ++b)
        tc->maybeInsert(b * 64);
    return tc;
}

/**
 * Dropping a re-homed block's copy from one camp: the one-set probe
 * migration uses, against the whole-cache predicate sweep it replaced
 * (one Traveller's share of the old per-migration cost).
 */
void
BM_TravellerInvalidateBlock(benchmark::State &state)
{
    auto tc = filledTraveller(1 << 16);
    Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tc->invalidate(a));
        tc->maybeInsert(a);
        a = (a + 64) % (1 << 22);
    }
}
BENCHMARK(BM_TravellerInvalidateBlock);

void
BM_TravellerInvalidateSweep(benchmark::State &state)
{
    auto tc = filledTraveller(1 << 16);
    Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            tc->invalidateMatching([a](Addr b) { return b == a; }));
        tc->maybeInsert(a);
        a = (a + 64) % (1 << 22);
    }
}
BENCHMARK(BM_TravellerInvalidateSweep);

/**
 * One DRAM read per 100 ns. Time only advances, so a fence every
 * BandwidthMeter::fenceInterval of simulated time (~328 accesses)
 * retires every page behind it, as NdpSystem's run loop does; without
 * one the meter keeps every page it ever touched.
 */
void
BM_DramAccess(benchmark::State &state)
{
    SystemConfig cfg;
    EnergyAccount energy(cfg);
    MeterBackend dram(cfg, energy);
    Tick t = 0;
    Tick nextFence = BandwidthMeter::fenceInterval;
    Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(dram.access(a, 64, false, false, t));
        a += 4096;
        t += 100000;
        if (t >= nextFence) {
            dram.discardBefore(t);
            nextFence = t + BandwidthMeter::fenceInterval;
        }
    }
}
BENCHMARK(BM_DramAccess);

/** Unit 0 sends one packet per 100 ns; fenced like BM_DramAccess. */
void
BM_NetworkTransfer(benchmark::State &state)
{
    SystemConfig cfg;
    Topology topo(cfg);
    EnergyAccount energy(cfg);
    Network net(cfg, topo, energy);
    Tick t = 0;
    Tick nextFence = BandwidthMeter::fenceInterval;
    UnitId dst = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(net.transfer(0, dst, 80, t));
        dst = (dst + 17) % 128;
        if (dst == 0)
            dst = 1;
        t += 100000;
        if (t >= nextFence) {
            net.discardBefore(t);
            nextFence = t + BandwidthMeter::fenceInterval;
        }
    }
}
BENCHMARK(BM_NetworkTransfer);

/**
 * Mesh traffic as pr-B sends it: (src, dst) drawn over all 128 units,
 * so packets spread over every link and port meter, one every 3 ns at
 * out-of-order starts inside a sliding 2 us window, whose start a
 * fence passes every BandwidthMeter::fenceInterval (~10,900 packets),
 * as NdpSystem's run loop does.
 */
void
BM_NetworkTransferMesh(benchmark::State &state)
{
    SystemConfig cfg;
    Topology topo(cfg);
    EnergyAccount energy(cfg);
    Network net(cfg, topo, energy);
    const std::uint32_t units = topo.numUnits();
    const Tick window = 2000 * ticksPerNs;
    Rng rng(11);
    Tick now = window;
    Tick nextFence = window + BandwidthMeter::fenceInterval;
    for (auto _ : state) {
        const auto src = static_cast<UnitId>(rng.below(units));
        const auto dst = static_cast<UnitId>(rng.below(units));
        benchmark::DoNotOptimize(net.transfer(src, dst, PacketSizes::data,
                                              now - rng.below(window)));
        now += 3 * ticksPerNs;
        if (now >= nextFence) {
            net.discardBefore(now - window);
            nextFence = now + BandwidthMeter::fenceInterval;
        }
    }
}
BENCHMARK(BM_NetworkTransferMesh);

void
BM_BandwidthMeterReserve(benchmark::State &state)
{
    BandwidthMeter m;
    Tick t = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(m.reserve(t, 50));
        t += 60;
    }
}
BENCHMARK(BM_BandwidthMeterReserve);

/**
 * The page lifecycle on sparse meters, as kv-serve's DRAM banks see it:
 * each iteration books a 260 ns refresh every 32 buckets of 256 ns
 * across one 256-bucket page of one bank (16 touched buckets, about
 * what a kv-serve page holds at retirement), then
 * fences past the page, so it is retired and its storage reused; time
 * per iteration is ns per page cycled. 512 banks taken in turn keep
 * the pages out of the core's caches, as a run's are.
 */
void
BM_BandwidthMeterPageChurn(benchmark::State &state)
{
    const Tick width = BandwidthMeter::defaultBucketTicks;
    const Tick page = BandwidthMeter::pageBuckets * width;
    std::vector<BandwidthMeter> banks(512, BandwidthMeter(width));
    std::size_t bank = 0;
    Tick base = 0;
    for (auto _ : state) {
        BandwidthMeter &m = banks[bank];
        for (Tick t = base; t < base + page; t += 32 * width)
            benchmark::DoNotOptimize(m.reserve(t, 260 * ticksPerNs));
        m.discardBefore(base + page);
        if (++bank == banks.size()) {
            bank = 0;
            base += page;
        }
    }
}
BENCHMARK(BM_BandwidthMeterPageChurn);

/** kv-serve's key draw: one uniform inverted over 2^20 Zipf keys. */
void
BM_ZipfKeyFor(benchmark::State &state)
{
    const serve::ZipfianSampler zipf(1u << 20, 0.99);
    Rng rng(9);
    for (auto _ : state)
        benchmark::DoNotOptimize(zipf(rng));
}
BENCHMARK(BM_ZipfKeyFor);

/**
 * One hybrid decision on a @p mesh x @p mesh machine as a running
 * system sees it: every unit has queued work in the exchanged snapshot
 * (so costload is scored), and creators alternate between a unit that
 * has forwarded since the exchange (its own patched view row) and one
 * that has not (the snapshot row). At 8x8 the candidate-stack table
 * exceeds its bound, so that variant times the per-candidate minimum.
 */
void
schedulerChoose(benchmark::State &state, std::uint32_t mesh)
{
    auto cfg = cachedConfig();
    cfg.meshX = cfg.meshY = mesh;
    cfg.sched.policy = SchedPolicy::Hybrid;
    Topology topo(cfg);
    AddressMap amap(cfg);
    CampMapping camps(cfg, topo, amap);
    Scheduler sched(cfg, topo, camps);
    const std::uint32_t units = topo.numUnits();

    Rng rng(3);
    for (UnitId u = 0; u < units; ++u)
        sched.onEnqueued(u, 100.0 + static_cast<double>(rng.below(1000)));
    sched.exchangeSnapshot();
    for (UnitId u = 1; u < units; u += 2)
        sched.onForwarded(u, (u + 7) % units, 50.0);

    // A representative vertex task: one main record + 16 neighbors.
    Task task;
    for (int i = 0; i < 17; ++i)
        task.hint.data.push_back(amap.unitBase(
                                     static_cast<UnitId>(rng.below(units)))
                                 + rng.below(1 << 20) * 64);
    task.mainHome = amap.homeOf(task.hint.data[0]);
    task.loadEstimate = sched.estimateLoad(task);

    UnitId creator = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(sched.choose(task, creator));
        creator = (creator + 1) % units;
    }
}

void
BM_SchedulerChoose(benchmark::State &state)
{
    schedulerChoose(state, 4);
}
BENCHMARK(BM_SchedulerChoose);

void
BM_SchedulerChoose8x8(benchmark::State &state)
{
    schedulerChoose(state, 8);
}
BENCHMARK(BM_SchedulerChoose8x8);

/** R-MAT inputs of the set-up benchmarks: scale 12, 64k draws. */
RmatParams
setupGraphParams(bool undirected)
{
    RmatParams p;
    p.scale = 12;
    p.undirected = undirected;
    return p;
}

void
BM_MakeRmatGraph(benchmark::State &state)
{
    const RmatParams p = setupGraphParams(true);
    for (auto _ : state)
        benchmark::DoNotOptimize(makeRmatGraph(p));
}
BENCHMARK(BM_MakeRmatGraph)->Unit(benchmark::kMicrosecond);

/**
 * The CSR build alone: the arcs of a directed R-MAT graph in a seeded
 * shuffle (R-MAT draws arrive in no order), built undirected. Each
 * iteration includes copying the list in.
 */
void
BM_GraphFromEdgesUndirected(benchmark::State &state)
{
    const Graph g = makeRmatGraph(setupGraphParams(false));
    std::vector<Graph::Edge> edges;
    for (std::uint32_t v = 0; v < g.numVertices(); ++v)
        for (std::uint32_t n : g.neighbors(v))
            edges.emplace_back(v, n);
    Rng rng(5);
    for (std::size_t i = edges.size() - 1; i > 0; --i)
        std::swap(edges[i], edges[rng.below(i + 1)]);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            Graph::fromEdges(g.numVertices(), edges, true));
    }
}
BENCHMARK(BM_GraphFromEdgesUndirected)->Unit(benchmark::kMicrosecond);

/** PageRank's in-neighbour graph of a directed R-MAT graph. */
void
BM_GraphTransposed(benchmark::State &state)
{
    const Graph g = makeRmatGraph(setupGraphParams(false));
    for (auto _ : state)
        benchmark::DoNotOptimize(g.transposed());
}
BENCHMARK(BM_GraphTransposed)->Unit(benchmark::kMicrosecond);

/**
 * One pr task's hint and block list per iteration, vertex after vertex
 * over the in-neighbour layout of a scale-12 R-MAT graph: the task
 * borrows both lists from the layout and finalizeBlocks() finds them
 * memoized.
 */
void
BM_GraphVertexTask(benchmark::State &state)
{
    const Graph g = makeRmatGraph(setupGraphParams(false)).transposed();
    SystemConfig cfg;
    SimAllocator alloc(cfg);
    GraphLayout layout(g, 16, 4);
    layout.setup(alloc);
    std::uint32_t v = 0;
    for (auto _ : state) {
        Task t;
        layout.borrowVertexHint(v, t);
        t.finalizeBlocks();
        benchmark::DoNotOptimize(std::as_const(t).blocks.data());
        if (++v == g.numVertices())
            v = 0;
    }
}
BENCHMARK(BM_GraphVertexTask);

/** Accepts each task as a runtime does, then dispatches it at once. */
class PoolSink : public TaskSink
{
  public:
    void
    enqueueTask(Task &&task) override
    {
        task.finalizeBlocks();
        TaskRef ref = pool.add(std::move(task));
        benchmark::DoNotOptimize(ref);
        pool.release(ref);
    }

    TaskPool pool;
};

/**
 * One task's trip through a pool slot: built, its block list
 * finalized, moved into the pool and released. pr_vertex borrows both
 * lists of a scale-12 in-neighbour layout, vertex after vertex;
 * kv_lookup builds the 7-node root-to-leaf path of a 2^20-key tree (a
 * one-lookup batch, so each iteration is one task) on the heap.
 */
void
BM_TaskPoolAddRelease(benchmark::State &state, bool kv)
{
    SystemConfig cfg;
    SimAllocator alloc(cfg);
    PoolSink sink;
    if (kv) {
        KvStoreWorkload wl(1ull << 20, 1);
        wl.setup(alloc);
        for (auto _ : state)
            wl.emitInitialTasks(sink);
        return;
    }
    const Graph g = makeRmatGraph(setupGraphParams(false)).transposed();
    GraphLayout layout(g, 16, 4);
    layout.setup(alloc);
    std::uint32_t v = 0;
    for (auto _ : state) {
        Task t;
        layout.borrowVertexHint(v, t);
        sink.enqueueTask(std::move(t));
        if (++v == g.numVertices())
            v = 0;
    }
}
BENCHMARK_CAPTURE(BM_TaskPoolAddRelease, pr_vertex, false);
BENCHMARK_CAPTURE(BM_TaskPoolAddRelease, kv_lookup, true);

} // namespace
} // namespace abndp

BENCHMARK_MAIN();
