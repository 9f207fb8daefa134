/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single global event queue per simulation orders callbacks by tick,
 * with insertion order breaking ties so runs are fully deterministic.
 *
 * The kernel is allocation-free on the hot path: callbacks are stored
 * in fixed-size inline slots of a pooled, chunked arena (no per-event
 * malloc/free), and the binary heap itself holds only trivially
 * copyable (tick, seq, slot) entries, so sift operations are plain
 * memcpys. Oversized captures are rejected at compile time — there is
 * deliberately no heap fallback.
 */

#ifndef ABNDP_SIM_EVENT_QUEUE_HH
#define ABNDP_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace abndp
{

/** Event-queue based simulation clock and dispatcher. */
class EventQueue
{
  public:
    /**
     * Inline storage per event callback, in bytes. Sized for the
     * largest capture in the simulator core (NdpSystem's forward path:
     * this + task handle + UnitId + bool) with headroom for a
     * std::function-sized closure; callbackFits<F> rejects anything
     * larger at compile time instead of silently heap-allocating.
     */
    static constexpr std::size_t callbackCapacity = 48;
    static constexpr std::size_t callbackAlign = alignof(std::max_align_t);

    /** Can @p F be scheduled (fits inline, invocable, nothrow-movable)? */
    template <typename F>
    static constexpr bool callbackFits =
        std::is_invocable_r_v<void, std::decay_t<F> &>
        && sizeof(std::decay_t<F>) <= callbackCapacity
        && alignof(std::decay_t<F>) <= callbackAlign
        && std::is_nothrow_move_constructible_v<std::decay_t<F>>;

    /** Current simulated time. */
    Tick now() const { return curTick; }

    /** Number of pending events. */
    std::size_t size() const { return heap.size(); }

    bool empty() const { return heap.empty(); }

    /** Total events executed so far. */
    std::uint64_t executed() const { return numExecuted; }

    /**
     * Schedule a callback at an absolute tick; must not be in the past.
     * The capture is placement-constructed into a pooled inline slot;
     * captures above callbackCapacity bytes fail to compile.
     */
    template <typename F>
        requires callbackFits<F>
    void
    schedule(Tick when, F &&cb)
    {
        using Fn = std::decay_t<F>;
        static_assert(sizeof(Fn) <= callbackCapacity,
                      "event capture exceeds the inline slot; enlarge "
                      "callbackCapacity or shrink the capture");
        abndp_assert(when >= curTick, "scheduling into the past: ", when,
                     " < ", curTick);
        std::uint32_t idx = allocSlot();
        Slot &slot = slotAt(idx);
        ::new (static_cast<void *>(slot.store)) Fn(std::forward<F>(cb));
        slot.invoke = [](void *p) { (*static_cast<Fn *>(p))(); };
        slot.destroy = [](void *p) { static_cast<Fn *>(p)->~Fn(); };
        heap.push_back(HeapEntry{when, nextSeq++, idx});
        std::push_heap(heap.begin(), heap.end(), Later{});
    }

    /** Schedule a callback delta ticks from now. */
    template <typename F>
        requires callbackFits<F>
    void
    scheduleIn(Tick delta, F &&cb)
    {
        schedule(curTick + delta, std::forward<F>(cb));
    }

    /**
     * Execute the earliest pending event.
     * @return false if the queue was empty.
     */
    bool
    runOne()
    {
        if (heap.empty())
            return false;
        std::pop_heap(heap.begin(), heap.end(), Later{});
        HeapEntry ev = heap.back();
        heap.pop_back();
        curTick = ev.when;
        ++numExecuted;
        // Slot addresses are stable (chunked arena), so the callback may
        // freely schedule further events while it runs; its own slot is
        // released only after it returns.
        Slot &slot = slotAt(ev.slot);
        slot.invoke(slot.store);
        releaseSlot(ev.slot);
        return true;
    }

    /** Run until the queue drains. */
    void
    runAll()
    {
        while (runOne()) {}
    }

    /** Run events with tick <= limit (inclusive). */
    void
    runUntil(Tick limit)
    {
        while (!heap.empty() && heap.front().when <= limit)
            runOne();
        if (curTick < limit)
            curTick = limit;
    }

    /**
     * Drop all pending events without running them; the clock keeps its
     * current value. Used at bulk-synchronous barriers to cancel
     * periodic bookkeeping events (exchange ticks, steal backoffs) that
     * must not stretch the epoch. Clears in place: both the heap's
     * vector capacity and the slot arena survive, so the next epoch
     * ramps up without reallocating.
     */
    void
    clearPending()
    {
        for (const HeapEntry &ev : heap)
            releaseSlot(ev.slot);
        heap.clear();
    }

    /**
     * Reset to an empty queue at tick 0. Keeps the heap capacity and
     * the callback arena (capacity-preserving, like clearPending()) as
     * well as the configured watchdog budgets; only the watchdog
     * baselines are rewound.
     */
    void
    reset()
    {
        clearPending();
        curTick = 0;
        nextSeq = 0;
        numExecuted = 0;
        wdBaseTick = 0;
        wdBaseEvents = 0;
    }

    // ---- Capacity introspection (tests / self-measurement) ----

    /** Current capacity of the pending-event heap, in events. */
    std::size_t heapCapacity() const { return heap.capacity(); }

    /** Callback slots allocated in the arena (high-water mark). */
    std::size_t arenaSlots() const { return slotsUsed; }

    // ---- Watchdog ----
    //
    // Guard against silent hangs/livelocks: the driver sets budgets for
    // one drain phase (a bulk-synchronous epoch), re-arms the baseline
    // at each phase start, and polls watchdogTripped() while draining.
    // The queue itself stays policy-free: the caller decides how to
    // report (NdpSystem dumps per-unit queue depths and calls fatal()).

    /** Set the per-phase budgets; 0 disables the respective check. */
    void
    setWatchdog(Tick maxTicks, std::uint64_t maxEvents)
    {
        wdMaxTicks = maxTicks;
        wdMaxEvents = maxEvents;
    }

    /** Restart the watchdog budgets from the current time/event count. */
    void
    armWatchdog()
    {
        wdBaseTick = curTick;
        wdBaseEvents = numExecuted;
    }

    /** Has the current phase exceeded a configured budget? */
    bool
    watchdogTripped() const
    {
        if (wdMaxTicks > 0 && curTick - wdBaseTick > wdMaxTicks)
            return true;
        if (wdMaxEvents > 0 && numExecuted - wdBaseEvents > wdMaxEvents)
            return true;
        return false;
    }

    /** Ticks elapsed in the current watchdog phase. */
    Tick watchdogTicks() const { return curTick - wdBaseTick; }

    /** Events executed in the current watchdog phase. */
    std::uint64_t
    watchdogEvents() const
    {
        return numExecuted - wdBaseEvents;
    }

    ~EventQueue() { clearPending(); }

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

  private:
    /**
     * One pooled callback slot: inline capture storage plus its type's
     * invoke/destroy thunks. Slots live in fixed chunks so their
     * addresses never move while the arena grows.
     */
    struct Slot
    {
        alignas(callbackAlign) unsigned char store[callbackCapacity];
        void (*invoke)(void *) = nullptr;
        void (*destroy)(void *) = nullptr;
        std::uint32_t nextFree = noSlot;
    };

    /** Trivially copyable heap element; sifts are plain memcpys. */
    struct HeapEntry
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    struct Later
    {
        bool
        operator()(const HeapEntry &a, const HeapEntry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    static constexpr std::uint32_t chunkSlots = 256;
    static constexpr std::uint32_t noSlot =
        std::numeric_limits<std::uint32_t>::max();

    Slot &
    slotAt(std::uint32_t idx)
    {
        return chunks[idx / chunkSlots][idx % chunkSlots];
    }

    std::uint32_t
    allocSlot()
    {
        if (freeHead != noSlot) {
            std::uint32_t idx = freeHead;
            freeHead = slotAt(idx).nextFree;
            return idx;
        }
        if (slotsUsed == chunks.size() * chunkSlots)
            chunks.push_back(std::make_unique<Slot[]>(chunkSlots));
        return slotsUsed++;
    }

    void
    releaseSlot(std::uint32_t idx)
    {
        Slot &slot = slotAt(idx);
        slot.destroy(slot.store);
        slot.nextFree = freeHead;
        freeHead = idx;
    }

    std::vector<HeapEntry> heap;
    std::vector<std::unique_ptr<Slot[]>> chunks;
    std::uint32_t freeHead = noSlot;
    std::uint32_t slotsUsed = 0;

    Tick curTick = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t numExecuted = 0;

    Tick wdMaxTicks = 0;
    std::uint64_t wdMaxEvents = 0;
    Tick wdBaseTick = 0;
    std::uint64_t wdBaseEvents = 0;
};

} // namespace abndp

#endif // ABNDP_SIM_EVENT_QUEUE_HH
