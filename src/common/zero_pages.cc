#include "common/zero_pages.hh"

#include <sys/mman.h>

#include <cerrno>
#include <cstring>

#include "common/logging.hh"

namespace abndp
{

namespace zero_pages_detail
{

void *
map(std::size_t bytes)
{
    if (bytes == 0)
        return nullptr;
    void *p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        fatal("cannot map ", bytes, " bytes of zero pages: ",
              std::strerror(errno));
    // Advice only: a kernel built without huge pages refuses it, and
    // then there is nothing to decline.
    madvise(p, bytes, MADV_NOHUGEPAGE);
    return p;
}

void
unmap(void *p, std::size_t bytes)
{
    if (p)
        munmap(p, bytes);
}

} // namespace zero_pages_detail

} // namespace abndp
