#include "driver/cell_runner.hh"

#include <algorithm>
#include <mutex>
#include <thread>

namespace abndp
{

std::uint32_t
defaultThreads()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

std::vector<RunMetrics>
runCells(const SystemConfig &base, const std::vector<CellSpec> &cells,
         std::uint32_t threads, const CellProgressFn &progress,
         const CellStartFn &onStart)
{
    std::vector<RunMetrics> results(cells.size());
    if (cells.empty())
        return results;
    if (threads == 0)
        threads = defaultThreads();

    auto runOne = [&base, &cells, &onStart](std::size_t idx) {
        if (onStart)
            onStart(idx);
        const CellSpec &cell = cells[idx];
        return runExperiment(cell.config ? *cell.config : base,
                             cell.design, cell.workload, cell.opts);
    };

    if (threads <= 1) {
        for (std::size_t i = 0; i < cells.size(); ++i) {
            results[i] = runOne(i);
            if (progress)
                progress(i + 1, cells.size(), i);
        }
        return results;
    }

    std::mutex lock;
    std::size_t nextCell = 0;
    std::size_t doneCells = 0;

    auto worker = [&] {
        while (true) {
            std::size_t idx;
            {
                std::lock_guard<std::mutex> guard(lock);
                if (nextCell >= cells.size())
                    return;
                idx = nextCell++;
            }
            RunMetrics m = runOne(idx);
            {
                std::lock_guard<std::mutex> guard(lock);
                results[idx] = std::move(m);
                ++doneCells;
                if (progress)
                    progress(doneCells, cells.size(), idx);
            }
        }
    };

    std::vector<std::thread> pool;
    auto poolSize = std::min<std::size_t>(threads, cells.size());
    pool.reserve(poolSize);
    for (std::size_t i = 0; i < poolSize; ++i)
        pool.emplace_back(worker);
    for (auto &t : pool)
        t.join();
    return results;
}

} // namespace abndp
