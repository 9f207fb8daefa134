#include "workloads/spmv.hh"

#include <cmath>

#include "common/logging.hh"
#include "common/rng.hh"

namespace abndp
{

SpmvWorkload::SpmvWorkload(Graph matrix_, std::uint32_t iterations,
                           std::uint64_t seed)
    : matrix(std::move(matrix_)),
      // 16-byte {x, y} record per row/column index; 8 bytes per matrix
      // entry (4-byte column index + 4-byte value).
      layout(matrix, 16, 8),
      iterations(iterations),
      seed(seed),
      x(matrix.numVertices()),
      y(matrix.numVertices(), 0.0)
{
    abndp_assert(iterations >= 1);
    for (std::uint32_t i = 0; i < matrix.numVertices(); ++i)
        x[i] = 1.0 + static_cast<double>(mix64(seed ^ i) % 256) / 256.0;
}

double
SpmvWorkload::valueAt(std::uint32_t row, std::size_t entryIdx) const
{
    std::uint64_t h = mix64(seed ^ 0xabcdULL
                            ^ (matrix.edgeOffset(row) + entryIdx));
    return 0.5 + static_cast<double>(h % 1024) / 1024.0;
}

void
SpmvWorkload::setup(SimAllocator &alloc)
{
    layout.setup(alloc);
}

Task
SpmvWorkload::makeTask(std::uint32_t row, std::uint64_t ts) const
{
    Task t;
    t.timestamp = ts;
    t.arg = row;
    layout.borrowVertexHint(row, t);
    t.writes.push_back(layout.vertexAddr(row));
    t.computeInstrs = 4 + 2ull * matrix.degree(row);
    if (explicitLoadHints)
        t.hint.workload = t.computeInstrs + 51ull * t.hint.data.size();
    return t;
}

void
SpmvWorkload::emitInitialTasks(TaskSink &sink)
{
    for (std::uint32_t r = 0; r < matrix.numVertices(); ++r)
        sink.enqueueTask(makeTask(r, 0));
}

void
SpmvWorkload::executeTask(const Task &task, TaskSink &sink)
{
    auto r = static_cast<std::uint32_t>(task.arg);
    auto cols = matrix.neighbors(r);
    double acc = 0.0;
    for (std::size_t i = 0; i < cols.size(); ++i)
        acc += valueAt(r, i) * x[cols[i]];
    y[r] = acc;
    if (task.timestamp + 1 < iterations)
        sink.enqueueTask(makeTask(r, task.timestamp + 1));
}

void
SpmvWorkload::endEpoch(std::uint64_t ts)
{
    (void)ts;
    double norm = 0.0;
    for (double v : y)
        norm = std::max(norm, std::abs(v));
    if (norm == 0.0)
        norm = 1.0;
    for (std::uint32_t i = 0; i < matrix.numVertices(); ++i)
        x[i] = y[i] / norm;
    ++epochsRun;
}

bool
SpmvWorkload::verify() const
{
    std::uint32_t n = matrix.numVertices();
    std::vector<double> rx(n), ry(n, 0.0);
    for (std::uint32_t i = 0; i < n; ++i)
        rx[i] = 1.0 + static_cast<double>(mix64(seed ^ i) % 256) / 256.0;
    for (std::uint64_t it = 0; it < epochsRun; ++it) {
        for (std::uint32_t r = 0; r < n; ++r) {
            auto cols = matrix.neighbors(r);
            double acc = 0.0;
            for (std::size_t i = 0; i < cols.size(); ++i)
                acc += valueAt(r, i) * rx[cols[i]];
            ry[r] = acc;
        }
        double norm = 0.0;
        for (double v : ry)
            norm = std::max(norm, std::abs(v));
        if (norm == 0.0)
            norm = 1.0;
        for (std::uint32_t i = 0; i < n; ++i)
            rx[i] = ry[i] / norm;
    }
    for (std::uint32_t i = 0; i < n; ++i)
        if (std::abs(rx[i] - x[i]) > 1e-9)
            return false;
    return true;
}

} // namespace abndp
