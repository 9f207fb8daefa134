#include "driver/run_flags.hh"

#include "common/logging.hh"

namespace abndp
{

void
applyRunFlags(const CliFlags &flags, SystemConfig &cfg,
              const std::string &tag, bool multiCell)
{
    const std::string traceOut = flags.getString("trace-out", "");
    if (!traceOut.empty())
        cfg.traceOut = tag.empty() ? traceOut : tagPath(traceOut, tag);
    const std::string statsOut = flags.getString("stats-out", "");
    if (!statsOut.empty())
        cfg.statsOut = tag.empty() ? statsOut : tagPath(statsOut, tag);
    cfg.statsInterval = flags.getUint("stats-interval", cfg.statsInterval);
    cfg.dram.backend = fromName<MemBackendKind>(
        flags.getString("mem-backend", nameOf(cfg.dram.backend)));
    if (multiCell && cfg.statsInterval > 0 && cfg.statsOut.empty())
        fatal("--stats-interval under a parallel grid requires "
              "--stats-out (per-cell interval dumps cannot share "
              "stdout)");
}

} // namespace abndp
