/**
 * @file
 * Violation collector of the machine invariant checkers (src/check).
 *
 * The check layer mirrors the obs:: conventions: it is observational
 * only — nothing it records may feed back into simulated timing or an
 * Rng stream — and it is zero-overhead when off (every hook site is
 * guarded by a null-pointer test, and the simulator constructs no
 * checker unless SystemConfig::checkInvariants is set).
 *
 * Violations are *collected* rather than panicking at the failure
 * site: the perturbation tests (tests/test_check_invariants.cc) feed
 * deliberately inconsistent state through each checker and inspect the
 * recorded violations, which would be impossible with immediate
 * aborts. Production call sites end each checking pass with
 * raiseIfAny(), which panic()s with every collected message — an
 * invariant violation is by definition a simulator bug.
 */

#ifndef ABNDP_CHECK_CHECK_CONTEXT_HH
#define ABNDP_CHECK_CHECK_CONTEXT_HH

#include <string>
#include <vector>

#include "common/logging.hh"

namespace abndp
{
namespace check
{

/** Collects machine-invariant violations; see file comment. */
class CheckContext
{
  public:
    /**
     * In collect mode raiseIfAny() keeps violations instead of
     * panicking; the perturbation tests flip this on to inspect them.
     */
    void setCollect(bool collect) { collecting = collect; }

    /** Record one violation (concatenates its arguments gem5-style). */
    template <typename... Args>
    void
    fail(Args &&...args)
    {
        recorded.push_back(
            logging_detail::concat(std::forward<Args>(args)...));
    }

    /** Assert a condition, recording @p args as the violation if false. */
    template <typename... Args>
    void
    require(bool cond, Args &&...args)
    {
        if (!cond)
            fail(std::forward<Args>(args)...);
    }

    const std::vector<std::string> &violations() const { return recorded; }

    bool clean() const { return recorded.empty(); }

    void clearViolations() { recorded.clear(); }

    /**
     * panic() with every collected violation (simulator-bug semantics),
     * unless collect mode is on or nothing was recorded.
     */
    void
    raiseIfAny(const char *phase)
    {
        if (collecting || recorded.empty())
            return;
        std::string msg = logging_detail::concat(
            "machine invariant violation(s) at ", phase, ":");
        for (const std::string &v : recorded)
            msg += logging_detail::concat("\n  - ", v);
        panic(msg);
    }

  private:
    bool collecting = false;
    std::vector<std::string> recorded;
};

/**
 * Bandwidth-conservation predicate shared by every meter audit
 * (mesh links, crossbar ports, ring links, DRAM banks): a bucketed
 * meter may never admit more than capacity x window, i.e. no bucket's
 * fill may exceed the bucket width.
 */
template <typename TickT>
void
checkBucketFill(CheckContext &ctx, const char *what, std::size_t idx,
                TickT fill, TickT width)
{
    ctx.require(fill <= width, what, " meter ", idx,
                " overbooked: bucket fill ", fill, " exceeds width ",
                width, " (capacity x window violated)");
}

/**
 * Clean-page predicate shared by the same meter audits, over
 * BandwidthMeter::staleEntries(): every nonzero fill or skip entry
 * lies in a group the meter marked as touched, stashed spare pages
 * hold nothing, and the fast path's cached row is the last-touched
 * page's. Page cleaning walks only marked groups, so a write path that
 * skipped the mark would leave stale fills in a recycled page and
 * silently move later reservations; a stale cached row would book
 * into a retired or wrong page.
 */
inline void
checkMeterClean(CheckContext &ctx, const char *what, std::size_t idx,
                std::size_t stale)
{
    ctx.require(stale == 0, what, " meter ", idx, " has ", stale,
                " entries outside its touched marks or a stale cached",
                " row (a recycled page would keep stale fills)");
}

/** Both meter laws over one BandwidthMeter @p m. */
template <typename Meter>
void
checkMeter(CheckContext &ctx, const char *what, std::size_t idx,
           const Meter &m)
{
    checkBucketFill(ctx, what, idx, m.maxBucketFill(), m.bucketWidth());
    checkMeterClean(ctx, what, idx, m.staleEntries());
}

} // namespace check
} // namespace abndp

#endif // ABNDP_CHECK_CHECK_CONTEXT_HH
