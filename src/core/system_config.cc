#include "core/system_config.hh"

#include "sim/logging.hh"

namespace gpummu {

namespace {

using Violations = std::vector<std::string>;

/** Record "<field> (<value>) <rule>". */
template <typename Value, typename... Rule>
void
reject(Violations &out, const std::string &field, const Value &value,
       const Rule &...rule)
{
    out.push_back(detail::formatParts(field, " (", value, ") ", rule...));
}

void
atLeastOne(Violations &out, const std::string &field,
           std::uint64_t value)
{
    if (value == 0)
        reject(out, field, value, "must be at least 1");
}

/**
 * The geometry of one SetAssocArray: @p size / @p unit entries in
 * sets of @p ways. Ways of 0 or above the entry count make it fully
 * associative, so only a set count that does not divide is rejected.
 * @p unit is 1 for entry counts and kLineSize for byte capacities.
 */
void
setAssoc(Violations &out, const std::string &field, std::size_t size,
         std::size_t unit, const std::string &ways_field,
         std::size_t ways)
{
    const std::size_t entries = size / unit;
    if (entries == 0 && unit == 1) {
        reject(out, field, size, "must be at least 1");
    } else if (entries == 0) {
        reject(out, field, size, "must hold at least one ", unit,
               "-byte line");
    } else if (ways != 0 && ways <= entries && entries % ways != 0) {
        const std::string value =
            unit == 1 ? std::to_string(size)
                      : detail::formatParts(size, ", ", entries,
                                            " lines");
        reject(out, field, value, "does not divide into ", ways_field,
               " (", ways, ")");
    }
}

void
tlbRules(Violations &out, const std::string &at, const TlbConfig &tlb)
{
    setAssoc(out, at + ".entries", tlb.entries, 1, at + ".ways",
             tlb.ways);
    atLeastOne(out, at + ".ports", tlb.ports);
    if (tlb.historyLength > 4)
        reject(out, at + ".historyLength", tlb.historyLength,
               "exceeds the 4-entry warp history");
}

void
ptwRules(Violations &out, const std::string &at, const PtwConfig &ptw)
{
    atLeastOne(out, at + ".numWalkers", ptw.numWalkers);
    // pwcLines 0 disables the walk cache.
    if (ptw.pwcLines > 0)
        setAssoc(out, at + ".pwcLines", ptw.pwcLines, 1,
                 at + ".pwcWays", ptw.pwcWays);
}

} // namespace

std::vector<std::string>
SystemConfig::validate() const
{
    Violations out;
    atLeastOne(out, "numCores", numCores);
    atLeastOne(out, "physFrames", physFrames);
    atLeastOne(out, "mem.numPartitions", mem.numPartitions);
    setAssoc(out, "mem.l2BytesPerPartition", mem.l2BytesPerPartition,
             kLineSize, "mem.l2Ways", mem.l2Ways);

    // Both core kinds build an L1 and an MMU (TLB and walkers), even
    // when the MMU is disabled.
    atLeastOne(out, "core.issueWidth", core.issueWidth);
    setAssoc(out, "core.l1.bytes", core.l1.bytes, kLineSize,
             "core.l1.ways", core.l1.ways);
    atLeastOne(out, "core.l1.numMshrs", core.l1.numMshrs);
    tlbRules(out, "core.mmu.tlb", core.mmu.tlb);
    ptwRules(out, "core.mmu.ptw", core.mmu.ptw);
    // A warp's miss set is never split, and it can span every lane.
    if (core.mmu.enabled && core.mmu.mshrs < kWarpWidth)
        reject(out, "core.mmu.mshrs", core.mmu.mshrs,
               "is below the warp width (", kWarpWidth,
               "); one warp's misses must start together");

    if (coreKind == CoreKind::Simt && core.numWarpSlots > 64)
        reject(out, "core.numWarpSlots", core.numWarpSlots,
               "must fit the 64-bit warp-set masks");
    if (coreKind == CoreKind::Tbc) {
        if (tbc.cpm.counterBits < 1 || tbc.cpm.counterBits > 8)
            reject(out, "tbc.cpm.counterBits", tbc.cpm.counterBits,
                   "must be 1-8");
        if (sched != SchedulerKind::LooseRoundRobin)
            reject(out, "coreKind", "Tbc",
                   "issues in loose round robin order; sched must be "
                   "LooseRoundRobin");
        if (iommu)
            reject(out, "coreKind", "Tbc",
                   "has no IOMMU path; IOMMU mode runs SIMT cores only");
    }
    if (sched == SchedulerKind::Ccws || sched == SchedulerKind::TaCcws)
        setAssoc(out, "ccws.vtaEntriesPerWarp", ccws.vtaEntriesPerWarp,
                 1, "ccws.vtaWays", ccws.vtaWays);
    if (sched == SchedulerKind::Tcws)
        setAssoc(out, "tcws.vtaEntriesPerWarp", tcws.vtaEntriesPerWarp,
                 1, "tcws.vtaWays", tcws.vtaWays);

    if (iommu) {
        if (core.mmu.enabled)
            reject(out, "iommu", "true",
                   "requires per-core MMUs disabled "
                   "(core.mmu.enabled false)");
        tlbRules(out, "iommuCfg.tlb", iommuCfg.tlb);
        ptwRules(out, "iommuCfg.ptw", iommuCfg.ptw);
    }
    if (l2tlb.enabled) {
        if (!core.mmu.enabled)
            reject(out, "l2tlb.enabled", "true",
                   "sits behind per-core MMUs, and core.mmu.enabled is "
                   "false");
        setAssoc(out, "l2tlb.entries", l2tlb.entries, 1, "l2tlb.ways",
                 l2tlb.ways);
        atLeastOne(out, "l2tlb.ports", l2tlb.ports);
        atLeastOne(out, "l2tlb.mshrs", l2tlb.mshrs);
        atLeastOne(out, "l2tlb.lookupInterval", l2tlb.lookupInterval);
    }
    return out;
}

} // namespace gpummu
