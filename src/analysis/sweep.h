/**
 * @file
 * SweepEngine: run a batch of ScenarioSpecs in parallel with shared
 * asset caching and per-cell error isolation.
 *
 * The figure harnesses all follow the same shape — build specs in
 * nested loops, fan them over parallelFor, collect results by index.
 * SweepEngine owns that shape: add() specs (the returned index is
 * stable), run() once, then read result(i). A cell whose inputs are
 * bad records its error Status instead of killing the sweep; the
 * other cells still complete, and printSummary() reports both the
 * failures and the asset-cache hit rate (each distinct trace is
 * built exactly once per sweep).
 *
 * addGroup()/addSeedReplicas() append a batch of related cells
 * (e.g. one configuration under several seeds) at consecutive
 * indices; run() fans every cell out in one flat parallelFor, so
 * replicas spread across the machine like any other cells.
 *
 * Thread-safety and ownership: a SweepEngine is a single-owner
 * object — add() and run() must be called from one thread, and
 * run() must finish before result()/printSummary() are read. The
 * parallelism is internal: run() distributes cells over
 * parallelFor's threads, each writing only its own result slot, and
 * the engine owns every spec and result it hands out references to.
 * run() recycles each cell's result: it takes the previous run's
 * whole SimulationResult back from every OK cell and the cell's
 * rerun refills its `outcomes` and segment columns, and the
 * `job_evictions` and `arrival_delays` columns a faulted or evicting
 * cell fills, in place, so a rerun allocates no new columns. A
 * Result<SimulationResult> reference, and any pointer into its
 * columns, is therefore invalidated by run() as well as by the
 * engine's destruction. The columns map their large blocks for
 * themselves (common/column.h), so a freed one would leave nothing
 * resident; what recycling saves is faulting a fresh column's pages
 * in again on every pass: bench/perf's fig14_year (seed 1) takes
 * 13,455 minor faults per run with it and 224,594 without, at the
 * same peak.
 */

#ifndef GAIA_ANALYSIS_SWEEP_H
#define GAIA_ANALYSIS_SWEEP_H

#include <cstddef>
#include <iosfwd>
#include <optional>
#include <vector>

#include "analysis/scenario.h"
#include "common/status.h"
#include "sim/results.h"

namespace gaia {

/** Parallel scenario runner with shared asset cache. */
class SweepEngine
{
  public:
    /** `threads` = 0 uses defaultParallelThreads(). */
    explicit SweepEngine(unsigned threads = 0) : threads_(threads) {}

    SweepEngine(const SweepEngine &) = delete;
    SweepEngine &operator=(const SweepEngine &) = delete;

    /** Queue a cell; returns its stable index. */
    std::size_t add(ScenarioSpec spec);

    /**
     * Queue a non-empty batch of related cells at consecutive
     * indices; returns the first cell's index.
     */
    std::size_t addGroup(std::vector<ScenarioSpec> specs);

    /**
     * Queue `count` seed replicas of `base` via addGroup: replica r
     * shifts the workload, carbon-model, and forecast-noise seeds
     * by +r (replica 0 runs `base`'s own seeds) and tags each label
     * with its workload seed. Returns the first replica's index.
     */
    std::size_t addSeedReplicas(const ScenarioSpec &base,
                                std::size_t count);

    /** Queued cell count. */
    std::size_t size() const { return specs_.size(); }

    /** The spec queued at `index`. */
    const ScenarioSpec &spec(std::size_t index) const;

    /**
     * Run every queued cell; assets stay cached and each cell's
     * previous outcome and segment columns are refilled in place.
     * Safe to call again after adding more cells. Invalidates every
     * reference result() handed out.
     */
    void run();

    /** Whether run() has completed for cell `index`. */
    bool ran(std::size_t index) const;

    /** Wall-clock seconds the most recent run() took (0 before). */
    double lastRunSeconds() const { return last_run_seconds_; }

    /** Cell outcome; panics unless run() completed for `index`. */
    const Result<SimulationResult> &result(std::size_t index) const;

    /** Cells whose Result is an error (0 before run()). */
    std::size_t failureCount() const;

    /** The shared cache (e.g. to pre-warm or inspect counters). */
    AssetCache &cache() { return cache_; }
    const AssetCache &cache() const { return cache_; }

    /**
     * One-paragraph sweep report: cell/failure counts, cache
     * hits/misses, and each failed cell's label and error message.
     */
    void printSummary(std::ostream &out) const;

  private:
    /** Run cell `index`, recycling `storage`'s columns as its own. */
    void runCell(std::size_t index, SimulationResult storage);

    unsigned threads_ = 0;
    double last_run_seconds_ = 0.0;
    std::vector<ScenarioSpec> specs_;
    /** nullopt until run() fills the slot (Result has no default). */
    std::vector<std::optional<Result<SimulationResult>>> results_;
    AssetCache cache_;
};

} // namespace gaia

#endif // GAIA_ANALYSIS_SWEEP_H
