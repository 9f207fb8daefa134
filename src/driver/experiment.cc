#include "driver/experiment.hh"

#include "common/logging.hh"
#include "core/ndp_system.hh"
#include "host/host_system.hh"

namespace abndp
{

RunMetrics
runExperiment(const SystemConfig &base, Design d, const WorkloadSpec &spec,
              const ExperimentOptions &opts)
{
    SystemConfig cfg = applyDesign(base, d);
    if (opts.cacheStyle)
        cfg.traveller.style = *opts.cacheStyle;
    if (opts.fault)
        cfg.fault = *opts.fault;
    auto wl = makeWorkload(spec);

    RunMetrics metrics;
    if (d == Design::H) {
        if (cfg.serving.enabled())
            fatal("design H cannot run serving mode: the open-loop "
                  "driver lives in NdpSystem (pick any other design)");
        HostSystem host(cfg);
        metrics = host.run(*wl);
    } else {
        NdpSystem sys(cfg);
        metrics = sys.run(*wl);
    }

    if (opts.verify && !wl->verify()) {
        if (opts.fatalOnVerifyFailure)
            fatal("workload ", spec.name, " failed verification under ",
                  designName(d));
        warn("workload ", spec.name, " failed verification under ",
             designName(d));
    }
    return metrics;
}

std::string
designToken(Design d)
{
    std::string tok = designName(d);
    for (char &c : tok)
        if (c == '-')
            c = '_';
    return tok;
}

} // namespace abndp
