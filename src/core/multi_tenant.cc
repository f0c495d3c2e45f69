#include "core/multi_tenant.hh"

#include <algorithm>
#include <sstream>

#include "core/presets.hh"
#include "core/shared_translation.hh"
#include "sim/logging.hh"
#include "telemetry/span.hh"
#include "telemetry/telemetry.hh"
#include "trace/trace.hh"

namespace gpummu {

namespace {

/** Book-keeping for one co-scheduled process. */
struct Tenant
{
    Process *proc = nullptr;
    std::unique_ptr<Workload> workload;
    LaunchParams launch;
    unsigned nextBlock = 0;
    bool finished = false;
    TenantResult res;
};

/**
 * Run one slice: @p t's next blocksPerSlice thread blocks on a fresh
 * set of cores, through the shared cycle loop on the persistent
 * clock. Returns the cycle the slice ends. Cores are transient and
 * never stat-registered — per-tenant numbers accumulate into t.res
 * here, and the persistent structures (mem, IOMMU, OS) carry the
 * cross-slice state.
 */
Cycle
runSlice(Tenant &t, const SystemConfig &sys, SharedTranslation &unit,
         MemorySystem &mem, EventQueue &eq, const RunObservers &obs,
         Cycle clock, unsigned blocks_per_slice)
{
    const GpuTop::CoreFactory factory = unit.coreFactory();
    std::vector<std::unique_ptr<ShaderCore>> cores;
    cores.reserve(sys.numCores);
    for (unsigned i = 0; i < sys.numCores; ++i) {
        auto core = factory(static_cast<int>(i), t.launch, t.proc->as,
                            mem, eq);
        core->memStage().setAsid(t.proc->asid);
        if (obs.trace != nullptr)
            core->setTraceSink(obs.trace);
        if (obs.telemetry != nullptr)
            core->setHeatProfiler(&obs.telemetry->heat());
        if (obs.spans != nullptr)
            core->setSpanTracker(obs.spans);
        cores.push_back(std::move(core));
    }

    const unsigned end_block =
        std::min(t.launch.totalBlocks, t.nextBlock + blocks_per_slice);
    std::uint64_t fast_forwarded = 0;
    const Cycle cycle =
        runCycleLoop(cores, eq, obs.telemetry, t.nextBlock, end_block,
                     clock, sys.maxCycles, fast_forwarded);

    for (const auto &core : cores) {
        t.res.instructions += core->instructionsIssued();
        t.res.memInstructions += core->memStage().memInstructions();
        t.res.l1Accesses += core->l1().accesses();
        t.res.l1Hits += core->l1().hits();
        t.res.idleCycles += core->idleCycles();
    }
    t.res.activeCycles += cycle - clock;
    t.nextBlock = end_block;
    t.res.blocks = t.nextBlock;

    // The slice drained, so nothing of this tenant is in flight; the
    // shared IOMMU must hold no blocking state either.
    unit.checkEndOfKernel();
    return cycle;
}

} // namespace

MultiTenantResult
runMultiTenant(const MultiTenantConfig &cfg_in, const RunObservers &obs)
{
    GPUMMU_ASSERT(!cfg_in.tenants.empty(),
                  "multi-tenant run with no tenants");
    GPUMMU_ASSERT(cfg_in.system.iommu &&
                      !cfg_in.system.core.mmu.enabled,
                  "multi-tenant runs require the IOMMU organisation "
                  "(presets::iommu()): per-core MMUs hold one "
                  "process's translations");
    GPUMMU_ASSERT(!(cfg_in.lazyBacking && cfg_in.system.largePages),
                  "demand paging is 4KB-granular; 2MB mappings emerge "
                  "via coalescing, not largePages");
    GPUMMU_ASSERT(cfg_in.blocksPerSlice > 0);
    if (obs.memtrace != nullptr) {
        GPUMMU_FATAL("memory-trace capture is not supported on "
                     "multi-tenant runs (config '",
                     cfg_in.system.name,
                     "'): a trace replays one process's kernel");
    }

    const SystemConfig &sys = cfg_in.system;
    SharedTranslation unit(sys);

    PhysicalMemory phys(sys.physFrames);
    ProcessManager pm(phys, cfg_in.os);
    EventQueue eq;
    MemorySystem mem(sys.mem);
    StatRegistry stats;

    std::vector<Tenant> tenants;
    tenants.reserve(cfg_in.tenants.size());
    for (const TenantSpec &spec : cfg_in.tenants) {
        Tenant t;
        t.proc = &pm.create(spec.name, sys.largePages,
                            cfg_in.lazyBacking);
        t.workload = makeWorkload(spec.bench, cfg_in.params);
        t.workload->build(t.proc->as);
        t.workload->program().validate();
        t.launch.program = &t.workload->program();
        t.launch.threadsPerBlock = t.workload->threadsPerBlock();
        t.launch.totalBlocks = t.workload->numBlocks();
        t.launch.seed = t.workload->params().seed;
        GPUMMU_ASSERT(t.launch.totalBlocks > 0);
        t.res.name = spec.name;
        t.res.asid = t.proc->asid;
        tenants.push_back(std::move(t));
    }

    // One shared IOMMU for the whole machine, anchored on the first
    // tenant's space; attachProcesses lets it resolve any registered
    // ASID (and teaches the armed checker every reference walker).
    unit.build(tenants.front().proc->as, mem, eq);
    Iommu &iommu = *unit.iommu();
    iommu.attachProcesses(&pm);
    pm.addTlbTarget(&iommu.tlb(), kPageShift4K);
    pm.addWalkerTarget(&iommu.walkers());

    mem.regStats(stats, "mem");
    unit.regStats(stats);
    pm.regStats(stats, "os");
    Counter slices;
    stats.addCounter("mt.slices", &slices);

    // The machine's persistent clock and memory system here; each
    // slice arms its own transient cores.
    if (obs.trace != nullptr) {
        obs.trace->bindClock(&eq);
        mem.setTraceSink(obs.trace);
    }
    if (obs.spans != nullptr)
        obs.spans->bindClock(&eq);
    unit.arm(obs, stats);
    if (obs.telemetry != nullptr) {
        obs.telemetry->setMeta("multi-tenant", sys.name);
        obs.telemetry->begin(stats);
    }

    // Round-robin block-granular time slicing until every tenant has
    // retired its grid. A finishing tenant exits: its remaining
    // regions unmap and the shootdowns storm the shared structures
    // while the survivors' entries stay put.
    Cycle clock = 0;
    int last = -1;
    for (;;) {
        int pick = -1;
        const int n = static_cast<int>(tenants.size());
        for (int off = 1; off <= n; ++off) {
            const int i = (last + off) % n;
            if (!tenants[static_cast<std::size_t>(i)].finished) {
                pick = i;
                break;
            }
        }
        if (pick < 0)
            break;
        Tenant &t = tenants[static_cast<std::size_t>(pick)];
        if (last >= 0) {
            const Asid from =
                tenants[static_cast<std::size_t>(last)].proc->asid;
            clock += pm.noteContextSwitch(from, t.proc->asid);
        }
        last = pick;
        slices.inc();
        clock = runSlice(t, sys, unit, mem, eq, obs, clock,
                         cfg_in.blocksPerSlice);
        if (t.nextBlock >= t.launch.totalBlocks) {
            t.finished = true;
            clock = pm.destroy(t.proc->asid, clock);
        }
    }

    if (obs.telemetry != nullptr)
        obs.telemetry->finish(clock, stats);

    MultiTenantResult out;
    for (const Tenant &t : tenants)
        out.tenants.push_back(t.res);
    out.totalCycles = clock;
    out.slices = slices.value();
    out.contextSwitches = pm.contextSwitches();
    out.shootdowns = pm.shootdowns();
    out.shootdownEntries = pm.shootdownEntries();
    out.faults = pm.faults();
    out.coalesces = pm.coalesces();
    out.splinters = pm.splinters();
    out.iommuLookups = iommu.lookups();
    out.iommuHits = iommu.hits();
    out.eventsFired = eq.eventsFired();

    std::ostringstream os;
    os << "{\"config\":\"" << jsonEscape(sys.name)
       << "\",\"tenants\":[";
    bool first = true;
    for (const TenantResult &r : out.tenants) {
        os << (first ? "" : ",") << "{\"name\":\""
           << jsonEscape(r.name) << "\",\"asid\":" << r.asid
           << ",\"blocks\":" << r.blocks
           << ",\"active_cycles\":" << r.activeCycles
           << ",\"instructions\":" << r.instructions
           << ",\"mem_instructions\":" << r.memInstructions
           << ",\"l1_accesses\":" << r.l1Accesses
           << ",\"l1_hits\":" << r.l1Hits
           << ",\"idle_cycles\":" << r.idleCycles << "}";
        first = false;
    }
    os << "],\"total_cycles\":" << out.totalCycles
       << ",\"slices\":" << out.slices
       << ",\"context_switches\":" << out.contextSwitches
       << ",\"shootdowns\":" << out.shootdowns
       << ",\"shootdown_entries\":" << out.shootdownEntries
       << ",\"faults\":" << out.faults
       << ",\"coalesces\":" << out.coalesces
       << ",\"splinters\":" << out.splinters
       << ",\"iommu_lookups\":" << out.iommuLookups
       << ",\"iommu_hits\":" << out.iommuHits << ",\"stats\":";
    stats.dumpJson(os);
    os << "}";
    out.statsJson = os.str();
    return out;
}

MultiTenantConfig
defaultMultiTenant(double scale)
{
    MultiTenantConfig cfg;
    cfg.system = presets::iommu();
    cfg.system.name = "iommu-mt";
    cfg.params.scale = scale;
    const auto pair = defaultTenantPair();
    for (BenchmarkId id : pair)
        cfg.tenants.push_back({id, benchmarkName(id)});
    return cfg;
}

} // namespace gpummu
