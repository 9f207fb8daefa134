/**
 * @file
 * Small-size-inlined span container for task hints.
 *
 * Behaves like a minimal std::vector for trivially copyable elements,
 * with three storage tiers, so that short and shared lists cost a task
 * no heap allocation:
 *
 *   1. inline: up to N elements live inside the object (the common
 *      case for writes and low-degree hint lists);
 *   2. heap: an owned buffer for anything longer, sized exactly by
 *      reserve() when the builder knows the final length;
 *   3. borrowed: borrow() views a run-lived list someone else owns
 *      (GraphLayout's per-vertex hint and block lists) — read-only: no
 *      operation writes into or frees the borrowed storage.
 *
 * The object is two 32-bit counts, len and cap, and one word-aligned
 * union of the inline elements with the heap or borrowed pointer
 * (24 bytes for SmallVec<Addr, 2> and SmallVec<AddrRange, 1>). cap
 * alone names the tier: 0 is borrowed, N is inline, anything larger is
 * a heap buffer. So every heap buffer holds more than N elements, and
 * a borrowed span of N or fewer that has to become writable (a mutable
 * accessor, resize(), reserve() or push_back()) lands inline.
 *
 * Moves copy the counts and the N-element buffer, which covers the
 * pointer, whatever the tier, and leave the source inline and empty;
 * copies are deep and always land inline or on the heap, never
 * aliasing a borrowed list the copy does not control. clear() on the
 * borrowed tier drops back to the inline buffer.
 */

#ifndef ABNDP_TASKING_SMALL_VEC_HH
#define ABNDP_TASKING_SMALL_VEC_HH

#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <type_traits>

#include "common/logging.hh"

namespace abndp
{

/** Where a SmallVec's elements live (see the file comment). */
enum class SmallVecTier : std::uint8_t
{
    Inline,
    Heap,
    Borrowed,
};

/** Vector-like container with inline/heap/borrowed storage. */
template <typename T, std::uint32_t N>
class SmallVec
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "SmallVec is memcpy-based");
    static_assert(N > 0, "inline capacity must be nonzero");
    static_assert(sizeof(T[N]) >= sizeof(T *),
                  "the inline buffer must cover the pointer it overlays");

  public:
    // Not defaulted: a union member whose type has default member
    // initializers (AddrRange) makes GCC delete a defaulted
    // constructor, even with the pointer member initialized in place.
    SmallVec() noexcept : ptr(nullptr) {}

    SmallVec(std::initializer_list<T> il) { assign(il.begin(), il.size()); }

    SmallVec(const SmallVec &o) { assign(o.data(), o.len); }

    SmallVec(SmallVec &&o) noexcept { steal(o); }

    SmallVec &
    operator=(const SmallVec &o)
    {
        if (this != &o)
            assign(o.data(), o.len);
        return *this;
    }

    SmallVec &
    operator=(SmallVec &&o) noexcept
    {
        if (this != &o) {
            releaseHeap();
            steal(o);
        }
        return *this;
    }

    SmallVec &
    operator=(std::initializer_list<T> il)
    {
        assign(il.begin(), il.size());
        return *this;
    }

    ~SmallVec() { releaseHeap(); }

    std::size_t size() const { return len; }
    bool empty() const { return len == 0; }
    /** Writable capacity: 0 on the borrowed tier. */
    std::size_t capacity() const { return cap; }

    SmallVecTier
    tier() const
    {
        if (cap == 0)
            return SmallVecTier::Borrowed;
        return cap == N ? SmallVecTier::Inline : SmallVecTier::Heap;
    }

    const T *data() const { return cap == N ? inlineBuf : ptr; }
    const T *begin() const { return data(); }
    const T *end() const { return data() + len; }
    const T &operator[](std::size_t i) const { return data()[i]; }
    const T &front() const { return data()[0]; }
    const T &back() const { return data()[len - 1]; }

    // Mutable access: a borrowed span is first copied into owned
    // storage, so a write can never reach the lender's list.
    T *data() { return writable(); }
    T *begin() { return writable(); }
    T *end() { return writable() + len; }
    T &operator[](std::size_t i) { return writable()[i]; }
    T &front() { return writable()[0]; }
    T &back() { return writable()[len - 1]; }

    /**
     * Drop all elements; inline or heap storage is kept, and a
     * borrowed span is let go (the inline buffer takes over).
     */
    void
    clear()
    {
        len = 0;
        if (cap == 0)
            cap = N;
    }

    /** Drop elements past @p n (sort+unique tail trim). */
    void
    truncate(std::size_t n)
    {
        abndp_assert(n <= len);
        len = static_cast<std::uint32_t>(n);
    }

    /**
     * Make room for exactly @p n elements, moving to a heap buffer of
     * that size when the current capacity is smaller (a borrowed span
     * that fits in N lands inline). Hint builders that know the final
     * length (degree counts) call it first, so the push_backs that
     * follow never regrow.
     */
    void
    reserve(std::size_t n)
    {
        if (n > cap)
            own(n < len ? len : n);
    }

    /**
     * Grow or shrink to @p n elements; new ones are left uninitialized
     * for the caller to fill. Grows on the heap past the capacity, and
     * copies a borrowed span into owned storage first.
     */
    void
    resize(std::size_t n)
    {
        if (n > cap)
            own(n);
        len = static_cast<std::uint32_t>(n);
    }

    /**
     * View @p n elements at @p src, owned elsewhere and outliving this
     * container, without copying them (the borrowed tier).
     */
    void
    borrow(const T *src, std::size_t n)
    {
        releaseHeap();
        ptr = const_cast<T *>(src);
        len = static_cast<std::uint32_t>(n);
        cap = 0;
    }

    void
    push_back(const T &v)
    {
        // Only a borrowed span is shorter than N here; past N, the
        // heap buffer is at least 8 slots or twice the length.
        if (len >= cap)
            own(len < N ? N : len < 4 ? 8 : std::size_t{len} * 2);
        writable()[len++] = v;
    }

  private:
    T *
    writable()
    {
        if (cap == 0)
            own(len);
        return cap == N ? inlineBuf : ptr;
    }

    /** Replace the elements with a copy of @p n at @p src. */
    void
    assign(const T *src, std::size_t n)
    {
        // src may be this container's own borrowed span: releaseHeap()
        // leaves it alone, and the copy lands in fresh storage.
        releaseHeap();
        T *dst = inlineBuf;
        if (n > N) {
            dst = ptr = new T[n];
            cap = static_cast<std::uint32_t>(n);
        }
        if (n > 0)
            std::memcpy(dst, src, n * sizeof(T));
        len = static_cast<std::uint32_t>(n);
    }

    /**
     * Move the first min(len, @p n) elements into owned storage with
     * room for @p n: the inline buffer when @p n <= N (only a borrowed
     * span is ever that short of room), else a heap buffer of exactly
     * @p n slots.
     */
    void
    own(std::size_t n)
    {
        const std::size_t keep = len < n ? len : n;
        if (n <= N) {
            // The buffer overlays only the pointer to the lender's
            // list, read into src first, not the list itself.
            const T *src = ptr;
            if (keep > 0)
                std::memcpy(inlineBuf, src, keep * sizeof(T));
            cap = N;
            return;
        }
        const T *src = cap == N ? inlineBuf : ptr;
        T *np = new T[n];
        if (keep > 0)
            std::memcpy(np, src, keep * sizeof(T));
        releaseHeap();
        ptr = np;
        cap = static_cast<std::uint32_t>(n);
    }

    void
    steal(SmallVec &o) noexcept
    {
        // The inline buffer covers the pointer, so one fixed-size copy
        // moves every tier.
        len = o.len;
        cap = o.cap;
        std::memcpy(inlineBuf, o.inlineBuf, sizeof inlineBuf);
        o.len = 0;
        o.cap = N;
    }

    /** Free an owned buffer; every tier ends on the inline buffer. */
    void
    releaseHeap()
    {
        if (cap > N)
            delete[] ptr;
        cap = N;
    }

    std::uint32_t len = 0;
    /** 0: borrowed, N: inline, more than N: heap (file comment). */
    std::uint32_t cap = N;
    union
    {
        /** The heap buffer or the borrowed span. */
        T *ptr;
        T inlineBuf[N];
    };
};

} // namespace abndp

#endif // ABNDP_TASKING_SMALL_VEC_HH
