/**
 * @file
 * Zero-initialized arrays backed by anonymous memory mappings.
 *
 * A ZeroPages<T> maps its elements with mmap(MAP_PRIVATE |
 * MAP_ANONYMOUS): every element reads as all-zero bytes, and a page
 * becomes resident only when one of its elements is first written
 * (reading an untouched page maps the kernel's shared zero page, which
 * adds no RSS). Construction therefore costs address space and one
 * system call, not a zero-fill pass, and a large array that a run
 * touches sparsely holds only the pages it wrote. Heap allocation
 * gives no such guarantee: std::vector(n, 0) writes every element, and
 * calloc returns untouched pages only when glibc maps the block
 * itself, which depends on the heap's history.
 *
 * Transparent huge pages are declined for the mapping, so on a host
 * that backs anonymous memory with 2 MB pages by default one write
 * still faults in one base page.
 */

#ifndef ABNDP_COMMON_ZERO_PAGES_HH
#define ABNDP_COMMON_ZERO_PAGES_HH

#include <cstddef>
#include <type_traits>

namespace abndp
{

namespace zero_pages_detail
{

/** Map @p bytes of zero pages (nullptr for 0); fatal() on failure. */
void *map(std::size_t bytes);

/** Unmap what map(@p bytes) returned; a null @p p is a no-op. */
void unmap(void *p, std::size_t bytes);

} // namespace zero_pages_detail

/** A fixed-size array of @p T whose pages fault in on first write. */
template <typename T>
class ZeroPages
{
    static_assert(std::is_trivial_v<T>,
                  "all-zero bytes must be a valid, live T");

  public:
    /** @p count zero elements (none maps nothing); fatal() if the
     *  mapping fails. */
    explicit ZeroPages(std::size_t count)
        : elems(static_cast<T *>(
              zero_pages_detail::map(count * sizeof(T)))),
          n(count)
    {
    }

    ZeroPages(const ZeroPages &) = delete;
    ZeroPages &operator=(const ZeroPages &) = delete;

    ~ZeroPages() { zero_pages_detail::unmap(elems, n * sizeof(T)); }

    T &operator[](std::size_t i) { return elems[i]; }
    const T &operator[](std::size_t i) const { return elems[i]; }

  private:
    T *elems = nullptr;
    std::size_t n = 0;
};

} // namespace abndp

#endif // ABNDP_COMMON_ZERO_PAGES_HH
