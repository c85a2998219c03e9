#include "bus/vector_bus.hh"

#include "sim/logging.hh"
#include "sim/trace.hh"

namespace pva
{

VectorBus::VectorBus(unsigned line_words) : lineWords(line_words)
{
    if (line_words % 2 != 0)
        fatal("line length must be an even number of words");
}

void
VectorBus::drive(Cycle now, BusOpcode opcode, std::uint8_t txn)
{
    if (!requestFree(now))
        panic("vector bus driven while busy at cycle %llu",
              static_cast<unsigned long long>(now));
    ++statRequestCycles;
    if (opcode == BusOpcode::StageRead || opcode == BusOpcode::StageWrite) {
        freeAt = now + 1 + dataCycles();
        statDataCycles += dataCycles();
        PVA_TRACE_BLOCK(
            PVA_TRACE_BEGIN(traceTrackId, now,
                            opcode == BusOpcode::StageRead
                                ? "stage_read" : "stage_write",
                            "txn", txn);
            PVA_TRACE_END(traceTrackId, freeAt,
                          opcode == BusOpcode::StageRead
                              ? "stage_read" : "stage_write"););
    } else {
        freeAt = now + 1;
        PVA_TRACE_INSTANT(traceTrackId, now,
                          opcode == BusOpcode::VecRead
                              ? "vec_read" : "vec_write",
                          "txn", txn);
    }
    (void)txn; // read only by the trace events
}

void
VectorBus::registerStats(StatSet &set, const std::string &prefix) const
{
    set.addScalar(prefix + ".requestCycles", &statRequestCycles);
    set.addScalar(prefix + ".dataCycles", &statDataCycles);
}

} // namespace pva
