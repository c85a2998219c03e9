#include "core/system_config.hh"

#include "sim/json.hh"

namespace pva
{

const char *
rowPolicyName(RowPolicy policy)
{
    switch (policy) {
      case RowPolicy::Managed:
        return "managed";
      case RowPolicy::AlwaysOpen:
        return "open";
      case RowPolicy::AlwaysClose:
        return "close";
    }
    return "?";
}

bool
parseRowPolicy(const std::string &name, RowPolicy &out)
{
    for (RowPolicy p : {RowPolicy::Managed, RowPolicy::AlwaysOpen,
                        RowPolicy::AlwaysClose}) {
        if (name == rowPolicyName(p)) {
            out = p;
            return true;
        }
    }
    return false;
}

std::string
configToJson(const SystemConfig &c)
{
    const Geometry &g = c.geometry;
    const SdramTiming &t = c.timing;
    const FaultPlan &f = c.faults;
    auto flag = [](bool b) { return b ? "true" : "false"; };
    return csprintf(
        "{\"geometry\": {\"banks\": %u, \"interleave\": %u, "
        "\"colBits\": %u, \"ibankBits\": %u, \"rowBits\": %u}, "
        "\"timing\": {\"tRCD\": %u, \"tCL\": %u, \"tRP\": %u, "
        "\"tRAS\": %u, \"tRC\": %u, \"tWR\": %u, \"tREFI\": %u, "
        "\"tRFC\": %u}, "
        "\"bc\": {\"fifoEntries\": %u, \"vectorContexts\": %u, "
        "\"lineWords\": %u, \"transactions\": %u, \"fhcLatency\": %u, "
        "\"bypassEnabled\": %s, \"rowPolicy\": \"%s\"}, "
        "\"optimisticLineReuse\": %s, "
        "\"timingCheck\": %s, \"clocking\": \"%s\", "
        "\"backend\": \"%s\", \"salpSubarrays\": %u, "
        "\"refreshDeferWindow\": %u, "
        "\"faults\": {\"seed\": %llu, \"refreshStallRate\": %.17g, "
        "\"bcStallRate\": %.17g, \"dropTransferRate\": %.17g, "
        "\"corruptFirstHitRate\": %.17g}}",
        g.banks(), g.interleave(), g.colBits(), g.internalBankBits(),
        g.rowBits(), t.tRCD, t.tCL, t.tRP, t.tRAS, t.tRC, t.tWR,
        t.tREFI, t.tRFC, c.bc.fifoEntries, c.bc.vectorContexts,
        c.bc.lineWords, c.bc.transactions, c.bc.fhcLatency,
        flag(c.bc.bypassEnabled), rowPolicyName(c.bc.rowPolicy),
        flag(c.optimisticLineReuse),
        flag(c.timingCheck), clockingModeName(c.clocking),
        backendName(c.backend), c.salpSubarrays, c.refreshDeferWindow,
        static_cast<unsigned long long>(f.seed), f.refreshStallRate,
        f.bcStallRate, f.dropTransferRate, f.corruptFirstHitRate);
}

SystemConfig
configFromJson(const json::Reader &in)
{
    in.rejectUnknown({"geometry", "timing", "bc", "optimisticLineReuse",
                      "timingCheck", "clocking", "backend",
                      "salpSubarrays", "refreshDeferWindow", "faults"});
    SystemConfig c;
    const json::Reader g = in.object("geometry");
    g.rejectUnknown(
        {"banks", "interleave", "colBits", "ibankBits", "rowBits"});
    c.geometry = Geometry(g.u32("banks"), g.u32("interleave"),
                          g.u32("colBits"), g.u32("ibankBits"),
                          g.u32("rowBits"));

    const json::Reader t = in.object("timing");
    t.rejectUnknown({"tRCD", "tCL", "tRP", "tRAS", "tRC", "tWR", "tREFI",
                     "tRFC"});
    c.timing = {t.u32("tRCD"), t.u32("tCL"),   t.u32("tRP"),
                t.u32("tRAS"), t.u32("tRC"),   t.u32("tWR"),
                t.u32("tREFI"), t.u32("tRFC")};

    const json::Reader bc = in.object("bc");
    bc.rejectUnknown({"fifoEntries", "vectorContexts", "lineWords",
                      "transactions", "fhcLatency", "bypassEnabled",
                      "rowPolicy"});
    c.bc = {bc.u32("fifoEntries"),  bc.u32("vectorContexts"),
            bc.u32("lineWords"),    bc.u32("transactions"),
            bc.u32("fhcLatency"),   bc.boolean("bypassEnabled"),
            bc.name("rowPolicy", parseRowPolicy)};

    c.optimisticLineReuse = in.boolean("optimisticLineReuse");
    c.timingCheck = in.boolean("timingCheck");
    c.clocking = in.name("clocking", parseClockingMode);
    c.backend = in.name("backend", parseMemBackend);
    c.salpSubarrays = in.u32("salpSubarrays");
    c.refreshDeferWindow = in.u32("refreshDeferWindow");

    const json::Reader f = in.object("faults");
    f.rejectUnknown({"seed", "refreshStallRate", "bcStallRate",
                     "dropTransferRate", "corruptFirstHitRate"});
    c.faults = {f.u64("seed"), f.real("refreshStallRate"),
                f.real("bcStallRate"), f.real("dropTransferRate"),
                f.real("corruptFirstHitRate")};
    return c;
}

} // namespace pva
