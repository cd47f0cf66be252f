/**
 * @file
 * Column: a std::vector whose large blocks come straight from the
 * kernel.
 *
 * A run's per-job and per-slice columns (a result's outcomes and
 * segments, the engine's placement log) are each one block of a
 * few hundred KB to a few MB, freed whole when the run is done or
 * grown by doubling while it runs. glibc serves such a block from
 * mmap only while it is larger than its dynamic threshold, which
 * rises to the largest mmapped block ever freed (up to 32 MB). Once
 * a process has built and freed one multi-MB scratch vector, every
 * later column is carved from a malloc arena instead, and the holes
 * that growing and freeing columns leave there stay resident among
 * the live ones. PageAllocator keeps columns out of the arenas: a
 * block of kPageBlockBytes or more (glibc's threshold before it
 * adapts) is mapped for the column alone and unmapped when the column
 * frees it, so the pages go back to the system at once. A smaller
 * block comes from ::operator new, which serves it without a system
 * call.
 *
 * The allocator is stateless and every instance is equal, so moving
 * a Column keeps its buffer, and a Column costs no more bytes than a
 * std::vector. Under AddressSanitizer every block goes through
 * ::operator new instead: ASan does not poison a mapping it did not
 * make, so a read past a mapped column's end would go unreported.
 */

#ifndef GAIA_COMMON_COLUMN_H
#define GAIA_COMMON_COLUMN_H

#include <cstddef>
#include <limits>
#include <new>
#include <type_traits>
#include <vector>

namespace gaia {

/** Smallest block PageAllocator maps rather than takes from
 *  ::operator new. */
inline constexpr std::size_t kPageBlockBytes = std::size_t{128} << 10;

/** `bytes` of storage aligned for any fundamental type: mapped pages
 *  from kPageBlockBytes up (outside ASan builds), else ::operator
 *  new. Throws std::bad_alloc when the memory is not available. */
void *allocateColumnBlock(std::size_t bytes);

/** Free a block allocateColumnBlock(`bytes`) returned. */
void freeColumnBlock(void *block, std::size_t bytes) noexcept;

/** Stateless allocator for Column; see the file comment. */
template <typename T>
struct PageAllocator
{
    static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                  "a column element must not be over-aligned");

    using value_type = T;
    using is_always_equal = std::true_type;

    PageAllocator() = default;
    template <typename U>
    constexpr PageAllocator(const PageAllocator<U> &) noexcept
    {
    }

    T *
    allocate(std::size_t n)
    {
        if (n > std::numeric_limits<std::size_t>::max() / sizeof(T))
            throw std::bad_array_new_length();
        return static_cast<T *>(allocateColumnBlock(n * sizeof(T)));
    }

    void
    deallocate(T *block, std::size_t n) noexcept
    {
        freeColumnBlock(block, n * sizeof(T));
    }

    friend bool
    operator==(const PageAllocator &, const PageAllocator &) noexcept
    {
        return true;
    }
};

/** A run-sized column: one entry per job or per slice of a run. */
template <typename T>
using Column = std::vector<T, PageAllocator<T>>;

} // namespace gaia

#endif // GAIA_COMMON_COLUMN_H
