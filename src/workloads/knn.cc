#include "workloads/knn.hh"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/logging.hh"
#include "common/rng.hh"

namespace abndp
{

namespace
{

constexpr float infF = std::numeric_limits<float>::infinity();

/** Skewed 2D dataset: hotFraction of samples in a tight hot cluster. */
std::vector<float>
makeSkewedPoints(std::uint32_t n, double hotFraction, double hotSigma,
                 Rng &rng)
{
    std::vector<float> pts(static_cast<std::size_t>(n) * KdTree::dims);
    for (std::uint32_t i = 0; i < n; ++i) {
        bool hot = rng.chance(hotFraction);
        for (std::uint32_t d = 0; d < KdTree::dims; ++d) {
            double v = hot ? 5.0 + rng.gaussian() * hotSigma
                           : rng.uniform(-50.0, 50.0);
            pts[static_cast<std::size_t>(i) * KdTree::dims + d] =
                static_cast<float>(v);
        }
    }
    return pts;
}

} // namespace

KnnWorkload::KnnWorkload(std::uint32_t numPoints, std::uint32_t numQueries,
                         std::uint32_t k, double hotFraction,
                         std::uint64_t seed, std::uint32_t leafSize)
    : numPoints(numPoints), numQueries(numQueries), k(k),
      leafSize(leafSize),
      // A small fraction of the points sit in a tight hot cluster that
      // the (heavily skewed) queries keep searching: the cluster's few
      // leaves become the compute hotspot.
      points([&] {
          Rng rng(seed);
          return makeSkewedPoints(numPoints, 0.25 * hotFraction, 0.4, rng);
      }()),
      queries([&] {
          Rng rng(mix64(seed ^ 0xbeefULL));
          return makeSkewedPoints(numQueries, hotFraction, 0.4, rng);
      }()),
      tree(points, leafSize),
      results(numQueries),
      boundSnap(numQueries, infF),
      divedLeaf(numQueries, ~0u)
{
    abndp_assert(k >= 1 && numPoints >= k);
    // Map nodes to leaf indices (leaves numbered in node order).
    nodeLeafIdx.assign(tree.nodes().size(), ~0u);
    std::uint32_t leaf = 0;
    for (std::size_t i = 0; i < tree.nodes().size(); ++i)
        if (tree.nodes()[i].isLeaf())
            nodeLeafIdx[i] = leaf++;
}

void
KnnWorkload::setup(SimAllocator &alloc)
{
    // 32-byte node records, element-interleaved across units.
    nodeAddr = alloc.allocateArray(32, tree.nodes().size(),
                                   Placement::Interleaved);
    // One block per leaf holding its points contiguously.
    std::uint32_t numLeaves = 0;
    for (const auto &n : tree.nodes())
        numLeaves += n.isLeaf() ? 1 : 0;
    leafBlockAddr = alloc.allocateArray(
        static_cast<std::uint64_t>(leafSize) * dims * sizeof(float),
        numLeaves, Placement::Interleaved);
}

Task
KnnWorkload::makeTask(std::uint32_t query, std::uint32_t node, Phase phase,
                      std::uint64_t ts) const
{
    Task t;
    t.timestamp = ts;
    t.func = phase;
    t.arg = (static_cast<std::uint64_t>(query) << 32) | node;
    t.hint.data.push_back(nodeAddr[node]);
    const auto &nd = tree.nodes()[node];
    if (nd.isLeaf()) {
        Addr base = leafBlockAddr[nodeLeafIdx[node]];
        t.hint.ranges.push_back(
            {base, static_cast<std::uint32_t>(
                       static_cast<std::uint64_t>(nd.end - nd.begin)
                       * dims * sizeof(float))});
        t.computeInstrs = 8ull * (nd.end - nd.begin);
    } else {
        t.computeInstrs = 10;
    }
    return t;
}

float
KnnWorkload::dist2(const float *a, const float *b) const
{
    float d2 = 0.0f;
    for (std::uint32_t d = 0; d < dims; ++d) {
        float diff = a[d] - b[d];
        d2 += diff * diff;
    }
    return d2;
}

void
KnnWorkload::offerCandidate(std::uint32_t query, std::uint32_t point)
{
    float d2 = dist2(&queries[static_cast<std::size_t>(query) * dims],
                     &points[static_cast<std::size_t>(point) * dims]);
    auto &res = results[query];
    std::pair<float, std::uint32_t> cand{d2, point};
    auto pos = std::lower_bound(res.begin(), res.end(), cand);
    if (pos != res.end() && *pos == cand)
        return; // already offered (a dive leaf revisited during expand)
    if (res.size() < k) {
        res.insert(pos, cand);
    } else if (pos != res.end()) {
        res.insert(pos, cand);
        res.pop_back();
    }
}

void
KnnWorkload::emitInitialTasks(TaskSink &sink)
{
    for (std::uint32_t q = 0; q < numQueries; ++q)
        sink.enqueueTask(makeTask(q, tree.root(), Dive, 0));
}

std::uint32_t
KnnWorkload::diveLeafOf(std::uint32_t query,
                        std::vector<std::uint32_t> *path) const
{
    const float *q = &queries[static_cast<std::size_t>(query) * dims];
    std::uint32_t node = tree.root();
    for (;;) {
        if (path)
            path->push_back(node);
        const auto &nd = tree.nodes()[node];
        if (nd.isLeaf())
            return node;
        node = q[nd.splitDim] - nd.splitVal <= 0.0f ? nd.left : nd.right;
    }
}

std::uint64_t
KnnWorkload::servedAnswerOf(std::uint32_t query) const
{
    std::uint32_t leaf = diveLeafOf(query, nullptr);
    const auto &nd = tree.nodes()[leaf];
    const auto &order = tree.pointOrder();
    const float *q = &queries[static_cast<std::size_t>(query) * dims];
    float best = infF;
    std::uint32_t bestId = ~0u;
    for (std::uint32_t i = nd.begin; i < nd.end; ++i) {
        std::uint32_t p = order[i];
        float d2v = dist2(q, &points[static_cast<std::size_t>(p) * dims]);
        if (d2v < best || (d2v == best && p < bestId)) {
            best = d2v;
            bestId = p;
        }
    }
    return (static_cast<std::uint64_t>(std::bit_cast<std::uint32_t>(best))
            << 32)
        | bestId;
}

Task
KnnWorkload::makeQueryTask(std::uint64_t key, std::uint64_t seq)
{
    std::uint64_t slot = logQuery(key);
    abndp_assert(slot == seq, "served-log slot out of step: ", slot,
                 " vs ", seq);
    auto query = static_cast<std::uint32_t>(key);
    std::vector<std::uint32_t> path;
    std::uint32_t leaf = diveLeafOf(query, &path);
    const auto &nd = tree.nodes()[leaf];

    Task t;
    t.timestamp = 0;
    t.func = Serve;
    t.arg = seq;
    for (std::uint32_t n : path)
        t.hint.data.push_back(nodeAddr[n]);
    t.hint.ranges.push_back(
        {leafBlockAddr[nodeLeafIdx[leaf]],
         static_cast<std::uint32_t>(
             static_cast<std::uint64_t>(nd.end - nd.begin) * dims
             * sizeof(float))});
    t.computeInstrs = 10ull * (path.size() - 1)
        + 8ull * (nd.end - nd.begin);
    return t;
}

void
KnnWorkload::executeTask(const Task &task, TaskSink &sink)
{
    if (servingActive()) {
        abndp_assert(static_cast<Phase>(task.func) == Serve);
        std::uint64_t seq = task.arg;
        auto key =
            static_cast<std::uint32_t>(servedRecords()[seq].key);
        recordAnswer(seq, servedAnswerOf(key));
        return;
    }
    auto query = static_cast<std::uint32_t>(task.arg >> 32);
    auto node = static_cast<std::uint32_t>(task.arg & 0xffffffffu);
    auto phase = static_cast<Phase>(task.func);
    const auto &nd = tree.nodes()[node];
    const float *q = &queries[static_cast<std::size_t>(query) * dims];

    if (phase == Dive) {
        if (nd.isLeaf()) {
            // Seed the candidate set, then start the pruned expansion.
            const auto &order = tree.pointOrder();
            for (std::uint32_t i = nd.begin; i < nd.end; ++i)
                offerCandidate(query, order[i]);
            divedLeaf[query] = node;
            sink.enqueueTask(makeTask(query, tree.root(), Expand,
                                      task.timestamp + 1));
            return;
        }
        float diff = q[nd.splitDim] - nd.splitVal;
        std::uint32_t near = diff <= 0.0f ? nd.left : nd.right;
        sink.enqueueTask(makeTask(query, near, Dive, task.timestamp + 1));
        return;
    }

    // Expand phase: pruned wavefront over the whole tree.
    if (nd.isLeaf()) {
        if (node == divedLeaf[query])
            return; // the dive pass already scanned this leaf
        const auto &order = tree.pointOrder();
        for (std::uint32_t i = nd.begin; i < nd.end; ++i)
            offerCandidate(query, order[i]);
        return;
    }

    float diff = q[nd.splitDim] - nd.splitVal;
    std::uint32_t near = diff <= 0.0f ? nd.left : nd.right;
    std::uint32_t far = diff <= 0.0f ? nd.right : nd.left;

    sink.enqueueTask(makeTask(query, near, Expand, task.timestamp + 1));
    // Visit the far side unless the split plane is already farther than
    // the (previous-timestamp) k-th best distance. Stale bounds only
    // over-visit, never skip a true neighbor.
    if (diff * diff < boundSnap[query])
        sink.enqueueTask(makeTask(query, far, Expand, task.timestamp + 1));
}

void
KnnWorkload::endEpoch(std::uint64_t ts)
{
    (void)ts;
    for (std::uint32_t q = 0; q < numQueries; ++q)
        boundSnap[q] =
            results[q].size() >= k ? results[q].back().first : infF;
    ++epochsRun;
}

bool
KnnWorkload::verifyServed() const
{
    // Replays the log against the host-side leaf-dive answer; catches
    // lost, duplicated, or cross-wired records (the simulator may
    // reorder and recover tasks arbitrarily, but slot seq must hold
    // exactly the answer of the key logged under seq).
    for (const auto &rec : servedRecords()) {
        if (!rec.done)
            return false;
        if (rec.answer
            != servedAnswerOf(static_cast<std::uint32_t>(rec.key)))
            return false;
    }
    return true;
}

bool
KnnWorkload::verify() const
{
    if (servingActive())
        return verifyServed();
    // Brute force reference; ties broken by (distance, id) so the answer
    // set is unique. Only meaningful for uncapped runs (the wavefront
    // reaches every unpruned leaf within tree.depth() + 1 epochs).
    for (std::uint32_t q = 0; q < numQueries; ++q) {
        std::vector<std::pair<float, std::uint32_t>> all(numPoints);
        for (std::uint32_t p = 0; p < numPoints; ++p)
            all[p] = {dist2(&queries[static_cast<std::size_t>(q) * dims],
                            &points[static_cast<std::size_t>(p) * dims]),
                      p};
        std::partial_sort(all.begin(), all.begin() + k, all.end());
        all.resize(k);
        if (results[q] != all)
            return false;
    }
    return true;
}

} // namespace abndp
