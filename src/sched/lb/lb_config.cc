#include "sched/lb/lb_config.hh"

namespace abndp
{

EnumNames<LbTierKind>
nameTable(LbTierKind)
{
    static const NameRow<LbTierKind> rows[] = {
        {LbTierKind::None, "none"},
        {LbTierKind::Stealing, "stealing"},
        {LbTierKind::Average, "average"},
        {LbTierKind::Reserve, "reserve"},
    };
    return {"lb tier", rows};
}

} // namespace abndp
