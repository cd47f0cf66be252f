#include "common/column.h"

#include <sys/mman.h>

namespace gaia {

namespace {

/** True when a block of `bytes` is mapped for its column alone. */
constexpr bool
mapped(std::size_t bytes)
{
#if defined(__SANITIZE_ADDRESS__)
    // See the file comment of common/column.h: ASan guards only
    // what its own allocator hands out.
    (void)bytes;
    return false;
#else
    return bytes >= kPageBlockBytes;
#endif
}

} // namespace

void *
allocateColumnBlock(std::size_t bytes)
{
    if (!mapped(bytes))
        return ::operator new(bytes);
    void *block = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (block == MAP_FAILED)
        throw std::bad_alloc();
    return block;
}

void
freeColumnBlock(void *block, std::size_t bytes) noexcept
{
    if (!mapped(bytes))
        ::operator delete(block, bytes);
    else
        munmap(block, bytes);
}

} // namespace gaia
