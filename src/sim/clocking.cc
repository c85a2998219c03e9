#include "sim/clocking.hh"

namespace pva
{

const Vocabulary<ClockingMode> &
clockingModes()
{
    static const Vocabulary<ClockingMode> table({
        {ClockingMode::Exhaustive, "exhaustive"},
        {ClockingMode::Event, "event"},
    });
    return table;
}

const char *
clockingModeName(ClockingMode mode)
{
    return clockingModes().name(mode);
}

} // namespace pva
