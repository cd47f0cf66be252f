#include "analysis/sweep.h"

#include <chrono>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/parallel.h"
#include "common/logging.h"
#include "common/obs.h"

namespace gaia {

namespace {

obs::Counter &c_cells_run = obs::counter("sweep.cells_run");
obs::Counter &c_cell_errors = obs::counter("sweep.cell_errors");
obs::Histogram &h_cell_seconds =
    obs::histogram("sweep.cell_seconds");

} // namespace

std::size_t
SweepEngine::add(ScenarioSpec spec)
{
    specs_.push_back(std::move(spec));
    return specs_.size() - 1;
}

std::size_t
SweepEngine::addGroup(std::vector<ScenarioSpec> specs)
{
    GAIA_ASSERT(!specs.empty(), "empty sweep group");
    const std::size_t first = specs_.size();
    for (ScenarioSpec &spec : specs)
        specs_.push_back(std::move(spec));
    return first;
}

std::size_t
SweepEngine::addSeedReplicas(const ScenarioSpec &base,
                             std::size_t count)
{
    GAIA_ASSERT(count > 0, "seed-replica group needs at least one "
                           "replica");
    std::vector<ScenarioSpec> replicas;
    replicas.reserve(count);
    for (std::size_t r = 0; r < count; ++r) {
        ScenarioSpec spec = base;
        spec.workload.options.seed += r;
        spec.carbon.seed += r;
        spec.cis.seed += r;
        if (!spec.label.empty())
            spec.label += ' ';
        spec.label +=
            "seed=" + std::to_string(spec.workload.options.seed);
        replicas.push_back(std::move(spec));
    }
    return addGroup(std::move(replicas));
}

const ScenarioSpec &
SweepEngine::spec(std::size_t index) const
{
    GAIA_ASSERT(index < specs_.size(), "sweep cell ", index,
                " out of range (", specs_.size(), " cells)");
    return specs_[index];
}

void
SweepEngine::runCell(std::size_t index, SimulationResult storage)
{
    const obs::Span span("sweep.cell", specs_[index].label);
    if (obs::detailedTimingEnabled()) {
        // The per-cell clock reads are individually cheap but the
        // golden-scale cells are not; keep the uninstrumented path
        // free of them (see obs.h, "Detailed timing").
        const auto begin = std::chrono::steady_clock::now();
        results_[index] =
            runScenario(specs_[index], cache_, std::move(storage));
        h_cell_seconds.observe(
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - begin)
                .count());
    } else {
        results_[index] =
            runScenario(specs_[index], cache_, std::move(storage));
    }
    c_cells_run.add();
    if (!(*results_[index]).isOk())
        c_cell_errors.add();
}

void
SweepEngine::run()
{
    const obs::Span span("sweep.run");
    const auto begin = std::chrono::steady_clock::now();
    // Take back every OK cell's result so its rerun refills the
    // outcome and segment columns in place. A freed column returns
    // its pages to the system (common/column.h), so a fresh one costs
    // no resident memory, but it faults every page in again, pass
    // after pass: 224,594 minor faults per bench/perf fig14_year run
    // instead of 13,455. Slots stay nullopt until their cell has run.
    std::vector<SimulationResult> storage(specs_.size());
    for (std::size_t i = 0; i < results_.size(); ++i) {
        if (results_[i].has_value() && results_[i]->isOk())
            storage[i] = std::move(*results_[i]).value();
    }
    results_.assign(specs_.size(), std::nullopt);
    parallelFor(
        specs_.size(),
        [&](std::size_t index) {
            runCell(index, std::move(storage[index]));
        },
        threads_);
    last_run_seconds_ =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - begin)
            .count();
}

bool
SweepEngine::ran(std::size_t index) const
{
    return index < results_.size() && results_[index].has_value();
}

const Result<SimulationResult> &
SweepEngine::result(std::size_t index) const
{
    GAIA_ASSERT(index < specs_.size(), "sweep cell ", index,
                " out of range (", specs_.size(), " cells)");
    GAIA_ASSERT(ran(index), "sweep cell ", index,
                " read before run()");
    return *results_[index];
}

std::size_t
SweepEngine::failureCount() const
{
    std::size_t failures = 0;
    for (const std::optional<Result<SimulationResult>> &cell :
         results_) {
        if (cell.has_value() && !cell->isOk())
            ++failures;
    }
    return failures;
}

void
SweepEngine::printSummary(std::ostream &out) const
{
    const std::size_t failures = failureCount();
    out << "sweep: " << specs_.size() << " cells, "
        << specs_.size() - failures << " ok, " << failures
        << " failed; asset cache: " << cache_.misses()
        << " built, " << cache_.hits() << " reused\n";
    for (std::size_t i = 0; i < results_.size(); ++i) {
        const std::optional<Result<SimulationResult>> &cell =
            results_[i];
        if (!cell.has_value() || cell->isOk())
            continue;
        const std::string &label = specs_[i].label;
        out << "  cell " << i;
        if (!label.empty())
            out << " [" << label << "]";
        out << ": " << cell->status().toString() << "\n";
    }
}

} // namespace gaia
