#include "core/system_config.hh"

#include <sstream>

#include "sim/json.hh"

namespace pva
{

std::string
configToJson(const SystemConfig &c)
{
    const Geometry &g = c.geometry;
    const SdramTiming &t = c.timing;
    const BcConfig &b = c.bc;
    const FaultPlan &f = c.faults;
    std::ostringstream os;
    json::Writer w(os);
    w.beginObject().key("geometry").beginObject();
    w.field("banks", g.banks()).field("interleave", g.interleave());
    w.field("colBits", g.colBits()).field("ibankBits", g.internalBankBits());
    w.field("rowBits", g.rowBits()).end().key("timing").beginObject();
    w.field("tRCD", t.tRCD).field("tCL", t.tCL).field("tRP", t.tRP);
    w.field("tRAS", t.tRAS).field("tRC", t.tRC).field("tWR", t.tWR);
    w.field("tREFI", t.tREFI).field("tRFC", t.tRFC).end();
    w.key("bc").beginObject().field("fifoEntries", b.fifoEntries);
    w.field("vectorContexts", b.vectorContexts);
    w.field("lineWords", b.lineWords).field("transactions", b.transactions);
    w.field("fhcLatency", b.fhcLatency);
    w.field("bypassEnabled", b.bypassEnabled);
    w.field("rowPolicy", rowPolicyName(b.rowPolicy)).end();
    w.field("optimisticLineReuse", c.optimisticLineReuse);
    w.field("timingCheck", c.timingCheck);
    w.field("clocking", clockingModeName(c.clocking));
    w.field("backend", backendName(c.backend));
    w.field("salpSubarrays", c.salpSubarrays);
    w.field("refreshDeferWindow", c.refreshDeferWindow);
    w.key("faults").beginObject().field("seed", f.seed);
    w.key("refreshStallRate").exact(f.refreshStallRate);
    w.key("bcStallRate").exact(f.bcStallRate);
    w.key("dropTransferRate").exact(f.dropTransferRate);
    w.key("corruptFirstHitRate").exact(f.corruptFirstHitRate).end().end();
    return os.str();
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
            bc.name("rowPolicy", rowPolicies())};

    c.optimisticLineReuse = in.boolean("optimisticLineReuse");
    c.timingCheck = in.boolean("timingCheck");
    c.clocking = in.name("clocking", clockingModes());
    c.backend = in.name("backend", memBackends());
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
