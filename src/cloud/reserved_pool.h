/**
 * @file
 * Counting allocator for the fixed reserved-core pool.
 *
 * Tracks how many reserved cores are busy. Reserved utilization,
 * the quantity that decides whether the upfront reservation paid
 * off, is derived from the finished run's segment columns, not here.
 */

#ifndef GAIA_CLOUD_RESERVED_POOL_H
#define GAIA_CLOUD_RESERVED_POOL_H

namespace gaia {

/** Fixed pool of reserved cores. */
class ReservedPool
{
  public:
    /** @param capacity total reserved cores (may be zero). */
    explicit ReservedPool(int capacity);

    int capacity() const { return capacity_; }
    int inUse() const { return in_use_; }
    int freeCores() const { return capacity_ - in_use_; }

    /** True when `cores` can be acquired right now. */
    bool canFit(int cores) const;

    /** Acquire `cores`; the caller must have checked canFit(). */
    void acquire(int cores);

    /** Release `cores` previously acquired. */
    void release(int cores);

  private:
    int capacity_;
    int in_use_ = 0;
};

} // namespace gaia

#endif // GAIA_CLOUD_RESERVED_POOL_H
