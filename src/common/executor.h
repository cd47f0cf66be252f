/**
 * @file
 * Worker-count resolution for parallel sweeps.
 *
 * parallelFor (analysis/parallel.h) fans each call out over fresh
 * threads, and this header decides how many when the caller names
 * no count: a setParallelThreads() override (a bench's or
 * gaia_run's --threads flag), then the GAIA_THREADS environment
 * variable, then the hardware concurrency. parseThreadCount is the
 * one checked parser behind all three spellings of a count.
 *
 * setParallelThreads mutates a process global and belongs in main()
 * before parallel work starts, not in concurrent code.
 */

#ifndef GAIA_COMMON_EXECUTOR_H
#define GAIA_COMMON_EXECUTOR_H

#include <string_view>

#include "common/status.h"

namespace gaia {

/**
 * Override the default worker count for the process (0 restores
 * automatic selection). Takes precedence over GAIA_THREADS.
 */
void setParallelThreads(unsigned threads);

/**
 * Worker count used when none is passed explicitly:
 * setParallelThreads() override, then GAIA_THREADS, then hardware
 * concurrency (minimum 1). A GAIA_THREADS value parseThreadCount
 * rejects is ignored with a once-per-process warning.
 */
unsigned defaultParallelThreads();

/**
 * Parse a worker count: an integer in [1, UINT_MAX]. Anything else,
 * including a value that would wrap in `unsigned`, is a ParseError
 * or InvalidArgument naming `context`.
 */
Result<unsigned> parseThreadCount(std::string_view text,
                                  std::string_view context);

} // namespace gaia

#endif // GAIA_COMMON_EXECUTOR_H
