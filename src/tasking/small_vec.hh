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
 * Moves transfer the pointer (or memcpy the inline prefix); copies are
 * deep and always land inline or on the heap, never aliasing a
 * borrowed list the copy does not control. On the borrowed tier,
 * push_back() copies the span to the heap first, clear() drops back to
 * the inline buffer, and every mutable accessor first copies the span
 * into storage the container owns.
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

  public:
    SmallVec() = default;

    SmallVec(std::initializer_list<T> il) { assign(il.begin(), il.size()); }

    SmallVec(const SmallVec &o) { assign(o.ptr, o.len); }

    SmallVec(SmallVec &&o) noexcept { steal(o); }

    SmallVec &
    operator=(const SmallVec &o)
    {
        if (this != &o)
            assign(o.ptr, o.len);
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
    SmallVecTier tier() const { return where; }

    const T *data() const { return ptr; }
    const T *begin() const { return ptr; }
    const T *end() const { return ptr + len; }
    const T &operator[](std::size_t i) const { return ptr[i]; }
    const T &front() const { return ptr[0]; }
    const T &back() const { return ptr[len - 1]; }

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
        if (where == SmallVecTier::Borrowed)
            useInline();
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
     * that size when the current capacity is smaller. Hint builders
     * that know the final length (degree counts) call it first, so the
     * push_backs that follow never regrow.
     */
    void
    reserve(std::size_t n)
    {
        if (n > cap)
            growHeap(n);
    }

    /**
     * Grow or shrink to @p n elements; new ones are left uninitialized
     * for the caller to fill. Grows on the heap past the capacity (and
     * always on the borrowed tier).
     */
    void
    resize(std::size_t n)
    {
        if (n > cap)
            growHeap(n);
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
        where = SmallVecTier::Borrowed;
    }

    void
    push_back(const T &v)
    {
        if (len >= cap)
            growHeap(len < 4 ? 8 : std::size_t{len} * 2);
        ptr[len++] = v;
    }

  private:
    void
    useInline()
    {
        ptr = inlineBuf;
        cap = N;
        where = SmallVecTier::Inline;
    }

    T *
    writable()
    {
        if (where == SmallVecTier::Borrowed)
            assign(ptr, len);
        return ptr;
    }

    void
    assign(const T *src, std::size_t n)
    {
        // src may be this container's own borrowed span: releaseHeap()
        // leaves it alone, and the copy lands in fresh storage.
        releaseHeap();
        if (n > N) {
            ptr = new T[n];
            cap = static_cast<std::uint32_t>(n);
            where = SmallVecTier::Heap;
        }
        if (n > 0)
            std::memcpy(ptr, src, n * sizeof(T));
        len = static_cast<std::uint32_t>(n);
    }

    void
    steal(SmallVec &o) noexcept
    {
        len = o.len;
        if (o.where == SmallVecTier::Inline) {
            useInline();
            if (len > 0)
                std::memcpy(inlineBuf, o.inlineBuf, len * sizeof(T));
        } else {
            ptr = o.ptr;
            cap = o.cap;
            where = o.where;
        }
        o.useInline();
        o.len = 0;
    }

    /** Move the elements into an owned buffer of @p newCap slots. */
    void
    growHeap(std::size_t newCap)
    {
        T *np = new T[newCap];
        const std::size_t keep = len < newCap ? len : newCap;
        if (keep > 0)
            std::memcpy(np, ptr, keep * sizeof(T));
        releaseHeap();
        ptr = np;
        cap = static_cast<std::uint32_t>(newCap);
        where = SmallVecTier::Heap;
    }

    /** Free an owned buffer; every tier ends on the inline buffer. */
    void
    releaseHeap()
    {
        if (where == SmallVecTier::Heap)
            delete[] ptr;
        useInline();
    }

    T *ptr = inlineBuf;
    std::uint32_t len = 0;
    std::uint32_t cap = N;
    SmallVecTier where = SmallVecTier::Inline;
    T inlineBuf[N];
};

} // namespace abndp

#endif // ABNDP_TASKING_SMALL_VEC_HH
