/**
 * @file
 * Vector-backed FIFO for per-unit task queues.
 *
 * std::deque allocates and frees a fixed-size segment roughly every few
 * tasks and releases them all at every bulk-synchronous barrier, which
 * shows up as steady-state allocator traffic in the epoch staging path.
 * This container keeps one contiguous buffer with a sliding head index:
 * pops are an index bump, clears keep capacity, and swap() lets the
 * barrier recycle the previous epoch's buffers for the next epoch's
 * staged tasks, so the hot path is allocation-free after warm-up.
 */

#ifndef ABNDP_TASKING_TASK_DEQUE_HH
#define ABNDP_TASKING_TASK_DEQUE_HH

#include <cstddef>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace abndp
{

/** FIFO queue over a reusable contiguous buffer (see file comment). */
template <typename T>
class SlidingDeque
{
  public:
    bool empty() const { return headIdx == buf.size(); }
    std::size_t size() const { return buf.size() - headIdx; }

    /** Ensure room for @p n live elements without reallocation. */
    void reserve(std::size_t n) { buf.reserve(headIdx + n); }

    T &front() { return buf[headIdx]; }
    const T &front() const { return buf[headIdx]; }
    T &back() { return buf.back(); }
    const T &back() const { return buf.back(); }

    /** i-th live element from the front. */
    T &operator[](std::size_t i) { return buf[headIdx + i]; }
    const T &operator[](std::size_t i) const { return buf[headIdx + i]; }

    void push_back(const T &v) { buf.push_back(v); }

    /**
     * Drop the front element. The slot is compacted away only once the
     * queue drains.
     */
    void
    pop_front()
    {
        abndp_assert(!empty());
        ++headIdx;
        if (headIdx == buf.size())
            clear();
    }

    /** Drop the back element (work stealing takes from the tail). */
    void
    pop_back()
    {
        abndp_assert(!empty());
        buf.pop_back();
        if (headIdx == buf.size())
            clear();
    }

    /** Remove all elements; the buffer's capacity is retained. */
    void
    clear()
    {
        buf.clear();
        headIdx = 0;
    }

    /** Exchange buffers (epoch staging recycles drained queues). */
    void
    swap(SlidingDeque &other)
    {
        buf.swap(other.buf);
        std::swap(headIdx, other.headIdx);
    }

    /** Capacity of the underlying buffer (tests / tuning). */
    std::size_t capacity() const { return buf.capacity(); }

  private:
    std::vector<T> buf;
    std::size_t headIdx = 0;
};

} // namespace abndp

#endif // ABNDP_TASKING_TASK_DEQUE_HH
