/**
 * @file
 * Small-buffer vector for trivially copyable hot-path records.
 *
 * Each in-flight job's plan keeps one tiny array, its run segments,
 * that holds a single element in the overwhelmingly common case —
 * start-time policies emit one segment. std::vector pays a heap
 * allocation for each, which was a measurable share of the per-job
 * floor in the sweep benches. SmallVector stores up to N elements
 * inline and only touches the heap when a suspend-resume plan spills
 * past that. (Placed segments, which a sweep holds for every job of
 * every cell, do not use it: they live in one column per
 * SimulationResult, so an outcome pays neither inline slots its job
 * may not fill nor a heap block per spilled job.)
 *
 * Restricted to trivially copyable element types so growth and
 * copies are memcpy and the move constructor can steal or copy
 * without per-element bookkeeping. Iterators are raw pointers;
 * the usual vector idioms (range-for, std::sort over begin()/end(),
 * operator[], front/back) work unchanged. As with std::vector,
 * push_back(v[i]) and emplace_back() from an element of the same
 * vector are safe: the new element is built before any growth.
 *
 * The header beyond the inline buffer is one 8-byte word: a 32-bit
 * size and a 32-bit capacity. Once the vector spills, the inline
 * buffer holds the heap pointer instead of elements, so the vector
 * is on the heap exactly when capacity > N and needs no data
 * pointer of its own. These vectors live inside every job's plan,
 * where each header byte is paid per job of every cell in flight; a
 * per-job array never nears 2^32 elements, and grow() asserts that
 * it does not.
 *
 * Thread-safety and ownership: SmallVector owns its elements and
 * (when spilled) its heap block exclusively; there is no sharing
 * between instances — copies are deep. Like std::vector it is not
 * internally synchronized: concurrent const access is fine, any
 * mutation needs external locking, and growth invalidates
 * iterators and references (elements may move from the inline
 * buffer to the heap).
 */

#ifndef GAIA_COMMON_SMALL_VECTOR_H
#define GAIA_COMMON_SMALL_VECTOR_H

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <type_traits>
#include <utility>

#include "common/logging.h"

namespace gaia {

template <typename T, std::size_t N>
class SmallVector
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "SmallVector is restricted to trivially copyable "
                  "types (growth and copies are memcpy)");
    static_assert(N > 0, "inline capacity must be positive");

  public:
    using value_type = T;
    using iterator = T *;
    using const_iterator = const T *;

    // User-provided (not `= default`) so const-qualified
    // default-initialized instances are legal despite the
    // deliberately uninitialized inline buffer.
    SmallVector() {}

    SmallVector(const SmallVector &other) { assignFrom(other); }

    SmallVector(SmallVector &&other) noexcept { stealFrom(other); }

    SmallVector &operator=(const SmallVector &other)
    {
        if (this != &other) {
            releaseHeap();
            assignFrom(other);
        }
        return *this;
    }

    SmallVector &operator=(SmallVector &&other) noexcept
    {
        if (this != &other) {
            releaseHeap();
            stealFrom(other);
        }
        return *this;
    }

    ~SmallVector() { releaseHeap(); }

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    std::size_t capacity() const { return capacity_; }

    T *data() { return onHeap() ? heap_ : inlineData(); }
    const T *data() const { return onHeap() ? heap_ : inlineData(); }
    iterator begin() { return data(); }
    iterator end() { return data() + size_; }
    const_iterator begin() const { return data(); }
    const_iterator end() const { return data() + size_; }

    T &operator[](std::size_t i) { return data()[i]; }
    const T &operator[](std::size_t i) const { return data()[i]; }
    T &front() { return data()[0]; }
    const T &front() const { return data()[0]; }
    T &back() { return data()[size_ - 1]; }
    const T &back() const { return data()[size_ - 1]; }

    void clear() { size_ = 0; }

    void reserve(std::size_t wanted)
    {
        if (wanted > capacity_)
            grow(wanted);
    }

    void push_back(const T &value) { emplace_back(value); }

    template <typename... Args>
    T &emplace_back(Args &&...args)
    {
        // Build the element first: an argument may alias an element
        // of this vector, and grow() frees the old heap block.
        const T value{std::forward<Args>(args)...};
        if (size_ == capacity_)
            grow(2 * static_cast<std::size_t>(capacity_));
        T *slot = data() + size_++;
        *slot = value;
        return *slot;
    }

    friend bool operator==(const SmallVector &a, const SmallVector &b)
    {
        if (a.size_ != b.size_)
            return false;
        const T *x = a.data();
        const T *y = b.data();
        for (std::size_t i = 0; i < a.size_; ++i) {
            if (!(x[i] == y[i]))
                return false;
        }
        return true;
    }

  private:
    bool onHeap() const { return capacity_ > N; }

    T *inlineData()
    {
        return std::launder(reinterpret_cast<T *>(inline_));
    }
    const T *inlineData() const
    {
        return std::launder(reinterpret_cast<const T *>(inline_));
    }

    void releaseHeap()
    {
        if (onHeap())
            std::free(heap_);
    }

    void resetToInline()
    {
        size_ = 0;
        capacity_ = N;
    }

    void assignFrom(const SmallVector &other)
    {
        resetToInline();
        reserve(other.size_);
        std::memcpy(static_cast<void *>(data()), other.data(),
                    other.size_ * sizeof(T));
        size_ = other.size_;
    }

    void stealFrom(SmallVector &other) noexcept
    {
        if (other.onHeap()) {
            heap_ = other.heap_;
            size_ = other.size_;
            capacity_ = other.capacity_;
            other.resetToInline();
        } else {
            resetToInline();
            std::memcpy(static_cast<void *>(inlineData()),
                        other.inlineData(), other.size_ * sizeof(T));
            size_ = other.size_;
            other.size_ = 0;
        }
    }

    void grow(std::size_t wanted)
    {
        // At least 2N, so a spilled vector's capacity always
        // exceeds N — the test onHeap() relies on.
        const std::size_t grown = wanted > 2 * N ? wanted : 2 * N;
        GAIA_ASSERT(grown <= std::numeric_limits<std::uint32_t>::max(),
                    "SmallVector capacity ", grown,
                    " overflows its 32-bit field");
        T *fresh =
            static_cast<T *>(std::malloc(grown * sizeof(T)));
        if (fresh == nullptr)
            throw std::bad_alloc();
        // Copy out before heap_ is written: while inline, heap_
        // overlays the elements being copied.
        std::memcpy(static_cast<void *>(fresh), data(),
                    size_ * sizeof(T));
        releaseHeap();
        heap_ = fresh;
        capacity_ = static_cast<std::uint32_t>(grown);
    }

    /** Elements while capacity_ == N; the heap block's address once
     *  spilled (capacity_ > N). */
    union
    {
        T *heap_;
        alignas(T) unsigned char inline_[N * sizeof(T)];
    };
    std::uint32_t size_ = 0;
    std::uint32_t capacity_ = N;
};

} // namespace gaia

#endif // GAIA_COMMON_SMALL_VECTOR_H
