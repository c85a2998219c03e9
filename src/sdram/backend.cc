#include "sdram/backend.hh"

#include "sim/logging.hh"
#include "sim/sim_error.hh"

namespace pva
{

const char *
backendName(MemBackend kind)
{
    switch (kind) {
      case MemBackend::Legacy:
        return "legacy";
      case MemBackend::Salp:
        return "salp";
      case MemBackend::DeferredRefresh:
        return "deferred";
    }
    return "?";
}

bool
parseMemBackend(const std::string &text, MemBackend &out)
{
    for (MemBackend k : allBackends()) {
        if (text == backendName(k)) {
            out = k;
            return true;
        }
    }
    return false;
}

const std::vector<MemBackend> &
allBackends()
{
    static const std::vector<MemBackend> all = {
        MemBackend::Legacy,
        MemBackend::Salp,
        MemBackend::DeferredRefresh,
    };
    return all;
}

BackendPolicy
resolveBackendPolicy(MemBackend kind, unsigned row_bits, unsigned t_refi,
                     unsigned t_rfc, unsigned salp_subarrays,
                     unsigned defer_window)
{
    auto reject = [](const std::string &detail) {
        throw SimError(SimErrorKind::Config, "config.backend", kNeverCycle,
                       detail);
    };

    BackendPolicy pol;
    pol.kind = kind;
    switch (kind) {
      case MemBackend::Legacy:
        break;
      case MemBackend::Salp: {
        unsigned n = salp_subarrays;
        if (n < 2 || (n & (n - 1)) != 0) {
            reject(csprintf("salpSubarrays %u must be a power of two "
                            ">= 2", n));
        }
        unsigned bits = 0;
        while ((1u << bits) < n)
            ++bits;
        if (bits >= row_bits) {
            reject(csprintf("salpSubarrays %u needs %u row bits but the "
                            "geometry has only %u", n, bits, row_bits));
        }
        pol.subBits = bits;
        pol.subShift = row_bits - bits;
        break;
      }
      case MemBackend::DeferredRefresh: {
        if (t_refi == 0) {
            reject("backend deferred requires tREFI refresh (pass "
                   "--refresh)");
        }
        if (t_refi <= t_rfc) {
            reject(csprintf("backend deferred requires tREFI %u > tRFC "
                            "%u (refresh debt could never drain)",
                            t_refi, t_rfc));
        }
        Cycle window = defer_window == 0 ? t_refi / 2 : defer_window;
        if (window == 0 || window > 4ull * t_refi) {
            reject(csprintf("refreshDeferWindow %llu outside 1..4*tREFI "
                            "(%u)",
                            static_cast<unsigned long long>(window),
                            4 * t_refi));
        }
        pol.deferWindow = window;
        break;
      }
    }
    return pol;
}

} // namespace pva
