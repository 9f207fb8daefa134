#include "driver/run_flags.hh"

#include "common/logging.hh"
#include "driver/cell_runner.hh"

namespace abndp
{

RunFlags
parseRunFlags(const CliFlags &flags, std::uint32_t threadsDefault)
{
    RunFlags rf;
    rf.threads = flags.getUint32(
        "threads",
        threadsDefault > 0 ? threadsDefault : defaultThreads());
    rf.traceOut = flags.getString("trace-out", "");
    rf.statsOut = flags.getString("stats-out", "");
    rf.statsInterval = flags.getUint("stats-interval", 0);
    rf.memBackend = flags.getString("mem-backend", "");
    return rf;
}

void
applyRunFlags(const RunFlags &rf, SystemConfig &cfg,
              const std::string &tag, bool multiCell)
{
    if (!rf.traceOut.empty())
        cfg.traceOut =
            tag.empty() ? rf.traceOut : tagPath(rf.traceOut, tag);
    if (!rf.statsOut.empty())
        cfg.statsOut =
            tag.empty() ? rf.statsOut : tagPath(rf.statsOut, tag);
    cfg.statsInterval = rf.statsInterval;
    if (!rf.memBackend.empty())
        cfg.dram.backend = memBackendFromName(rf.memBackend);
    if (multiCell && rf.statsInterval > 0 && rf.statsOut.empty())
        fatal("--stats-interval under a parallel grid requires "
              "--stats-out (per-cell interval dumps cannot share "
              "stdout)");
}

} // namespace abndp
