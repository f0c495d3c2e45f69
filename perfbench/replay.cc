#include "replay.hh"

#include <algorithm>
#include <functional>
#include <memory>
#include <stdexcept>

#include "check/ref_translator.hh"
#include "gpu/coalescer.hh"
#include "mem/l1_cache.hh"
#include "mem/memory_system.hh"
#include "mem/request.hh"
#include "mmu/iommu.hh"
#include "mmu/l2_tlb.hh"
#include "mmu/mmu.hh"
#include "mmu/ptw.hh"
#include "mmu/tlb.hh"
#include "sim/event_queue.hh"
#include "vm/address_space.hh"
#include "vm/physical_memory.hh"

namespace perfbench {

using namespace gpummu;

namespace {

/**
 * The recorded stream, coalesced once and untimed, so the layers
 * below the coalescer are timed without it. Pages carry their frame
 * base (TLB-tag granularity) from a functional page-table walk.
 */
struct Stream
{
    struct Page
    {
        Vpn vpn = 0;
        std::uint64_t frame = 0;
        std::size_t lineBegin = 0;
        std::size_t lineEnd = 0;
    };
    struct Instr
    {
        Cycle cycle = 0;
        std::size_t core = 0;
        int warp = 0;
        bool store = false;
        std::size_t pageBegin = 0;
        std::size_t pageEnd = 0;
    };

    std::vector<Instr> instrs;
    std::vector<Page> pages;
    std::vector<std::uint64_t> vlines;
};

/** A line the L1 replay sent on to the shared memory system. */
struct MemRef
{
    PhysAddr line = 0;
    bool store = false;
    Cycle at = 0;
};

/** Fire events until @p done holds; the queue must not run dry. */
void
runUntilDone(EventQueue &eq, const std::function<bool()> &done)
{
    while (!done()) {
        if (eq.empty())
            throw std::runtime_error("replay: event queue ran dry");
        eq.runUntil(eq.nextEventCycle());
    }
}

void
drainAll(EventQueue &eq)
{
    while (!eq.empty())
        eq.runUntil(eq.nextEventCycle());
}

template <class Body>
LayerTiming
timeLayer(const char *name, Body &&body)
{
    const auto t0 = Clock::now();
    const std::uint64_t ops = body();
    return LayerTiming{name, secondsSince(t0), ops};
}

} // namespace

ReplayResult
replayLayers(const WorkloadSpec &spec, const WorkloadParams &params,
             const MemTraceData &trace)
{
    const SystemConfig &cfg = spec.cfg;
    ReplayResult res;

    // The capture run's address space, rebuilt: same workload, seed
    // and scale map the same regions onto the same frames.
    PhysicalMemory phys(cfg.physFrames);
    AddressSpace as(phys, cfg.largePages);
    std::unique_ptr<Workload> workload = makeWorkload(spec.bench, params);
    workload->build(as);
    if (as.regions().size() != trace.regions.size()) {
        res.error = "replay: region count differs from the capture run";
        return res;
    }
    for (std::size_t i = 0; i < trace.regions.size(); ++i) {
        if (as.regions()[i].name != trace.regions[i].name ||
            as.regions()[i].bytes != trace.regions[i].bytes) {
            res.error = "replay: region '" + trace.regions[i].name +
                        "' differs from the capture run";
            return res;
        }
    }
    if (trace.meta.numCores != cfg.numCores ||
        trace.meta.seed != params.seed) {
        res.error = "replay: trace meta does not match the workload";
        return res;
    }

    // Per-core MMUs translate at the address space's granularity; the
    // IOMMU design translates 4KB pages behind a virtual L1.
    const bool per_core_mmu = cfg.core.mmu.enabled;
    const unsigned page_shift =
        per_core_mmu && as.usesLargePages() ? kPageShift2M : kPageShift4K;
    const std::size_t num_cores = cfg.numCores;
    const PageTable &pt = as.pageTable();

    // --- gpu.coalesce: coalesceInto over every recorded access. ---
    res.layers.push_back(timeLayer("gpu.coalesce", [&] {
        CoalescedAccess acc;
        std::vector<std::vector<std::uint64_t>> spare;
        for (const MemTraceAccess &a : trace.accesses) {
            coalesceInto(acc, spare, a.addrs, kLineShift, page_shift);
            res.coalescedPages += acc.pages.size();
            res.coalescedLines += acc.totalLines;
        }
        return static_cast<std::uint64_t>(trace.accesses.size());
    }));

    Stream s;
    {
        CoalescedAccess acc;
        std::vector<std::vector<std::uint64_t>> spare;
        s.instrs.reserve(trace.accesses.size());
        for (const MemTraceAccess &a : trace.accesses) {
            if (a.core < 0 || static_cast<std::size_t>(a.core) >= num_cores) {
                res.error = "replay: access from an unknown core";
                return res;
            }
            coalesceInto(acc, spare, a.addrs, kLineShift, page_shift);
            Stream::Instr in;
            in.cycle = a.cycle;
            in.core = static_cast<std::size_t>(a.core);
            in.warp = a.warp;
            in.store = a.store;
            in.pageBegin = s.pages.size();
            for (const auto &pg : acc.pages) {
                const Translation t =
                    pt.walk(pg.vpn << (page_shift - kPageShift4K)).result;
                Stream::Page p;
                p.vpn = pg.vpn;
                p.frame = t.isLarge && page_shift == kPageShift2M
                              ? t.ppn >> (kPageShift2M - kPageShift4K)
                              : t.ppn;
                p.lineBegin = s.vlines.size();
                s.vlines.insert(s.vlines.end(), pg.vlines.begin(),
                                pg.vlines.end());
                p.lineEnd = s.vlines.size();
                s.pages.push_back(p);
            }
            in.pageEnd = s.pages.size();
            s.instrs.push_back(in);
        }
    }
    const bool large = page_shift == kPageShift2M;

    // --- mmu.tlb_lookup: Tlb::lookup, fill on a miss. Per-core TLBs,
    // or the IOMMU's shared TLB. The misses feed the walker replay. ---
    std::vector<std::vector<Vpn>> misses(s.instrs.size());
    res.layers.push_back(timeLayer("mmu.tlb_lookup", [&] {
        std::vector<std::unique_ptr<Tlb>> tlbs;
        const std::size_t n = per_core_mmu ? num_cores : 1;
        for (std::size_t i = 0; i < n; ++i) {
            tlbs.push_back(std::make_unique<Tlb>(
                per_core_mmu ? cfg.core.mmu.tlb : cfg.iommuCfg.tlb));
        }
        std::uint64_t ops = 0;
        for (std::size_t i = 0; i < s.instrs.size(); ++i) {
            const Stream::Instr &in = s.instrs[i];
            Tlb &tlb = *tlbs[per_core_mmu ? in.core : 0];
            for (std::size_t p = in.pageBegin; p < in.pageEnd; ++p) {
                const Stream::Page &pg = s.pages[p];
                ++ops;
                if (tlb.lookup(pg.vpn, in.warp).hit)
                    continue;
                tlb.fill(pg.vpn, Translation{pg.frame, large}, in.warp);
                misses[i].push_back(pg.vpn);
            }
        }
        return ops;
    }));

    // --- mmu.miss_batch: the design's translation miss path over a
    // real event queue and memory system. Per-core Mmu (behind the
    // shared L2 TLB when configured): lookupBatchInto, requestWalks,
    // drain. IOMMU design: Iommu::translate per coalesced page. ---
    std::uint64_t requested = 0;
    std::uint64_t completed = 0;
    res.layers.push_back(timeLayer("mmu.miss_batch", [&] {
        EventQueue eq;
        MemorySystem mem(cfg.mem);
        std::uint64_t ops = 0;
        if (!per_core_mmu) {
            Iommu iommu(cfg.iommuCfg, as, mem, eq);
            for (const Stream::Instr &in : s.instrs) {
                const Cycle now = std::max(eq.now(), in.cycle);
                eq.runUntil(now);
                for (std::size_t p = in.pageBegin; p < in.pageEnd; ++p) {
                    ++ops;
                    ++requested;
                    iommu.translate(s.pages[p].vpn, now,
                                    [&completed](std::uint64_t, Cycle) {
                                        ++completed;
                                    });
                }
            }
            drainAll(eq);
            return ops;
        }
        std::unique_ptr<L2Tlb> l2;
        if (cfg.l2tlb.enabled)
            l2 = std::make_unique<L2Tlb>(cfg.l2tlb, pt, eq, page_shift);
        std::vector<std::unique_ptr<Mmu>> mmus;
        for (std::size_t i = 0; i < num_cores; ++i) {
            mmus.push_back(
                std::make_unique<Mmu>(cfg.core.mmu, as, mem, eq));
            if (l2)
                mmus.back()->setL2Tlb(l2.get());
        }
        Mmu::BatchResult batch;
        std::vector<Vpn> vpns;
        std::vector<Vpn> miss_vpns;
        for (const Stream::Instr &in : s.instrs) {
            eq.runUntil(std::max(eq.now(), in.cycle));
            Mmu &mmu = *mmus[in.core];
            vpns.clear();
            bool would_miss = false;
            for (std::size_t p = in.pageBegin; p < in.pageEnd; ++p) {
                vpns.push_back(s.pages[p].vpn);
                would_miss = would_miss || !mmu.probeTlb(vpns.back());
            }
            // The memory stage's issue gate: no miss under a miss, and
            // a blocking TLB admits nothing while walks are out.
            if (mmu.missOutstanding() && (would_miss || !mmu.memAvailable()))
                runUntilDone(eq, [&mmu] { return !mmu.missOutstanding(); });
            const Cycle now = eq.now();
            mmu.lookupBatchInto(batch, vpns, in.warp);
            ops += vpns.size();
            miss_vpns.clear();
            for (const Mmu::VpnLookup &vl : batch.lookups) {
                if (!vl.hit)
                    miss_vpns.push_back(vl.vpn);
            }
            if (miss_vpns.empty())
                continue;
            if (!mmu.canStartMisses(miss_vpns.size()))
                throw std::runtime_error("replay: miss set exceeds MSHRs");
            requested += miss_vpns.size();
            mmu.requestWalks(miss_vpns, in.warp, now,
                             [&completed](Vpn, std::uint64_t, Cycle) {
                                 ++completed;
                             });
        }
        drainAll(eq);
        return ops;
    }));
    if (completed != requested) {
        res.error = "replay: miss path completed " +
                    std::to_string(completed) + " of " +
                    std::to_string(requested) + " translations";
        return res;
    }

    // --- mmu.walk: PageWalkers::requestBatch with each access's TLB
    // misses, per core (IOMMU: one shared pool). ---
    requested = 0;
    completed = 0;
    res.layers.push_back(timeLayer("mmu.walk", [&] {
        EventQueue eq;
        MemorySystem mem(cfg.mem);
        const PtwConfig &ptw =
            per_core_mmu ? cfg.core.mmu.ptw : cfg.iommuCfg.ptw;
        std::vector<std::unique_ptr<PageWalkers>> pools;
        for (std::size_t i = 0; i < (per_core_mmu ? num_cores : 1); ++i)
            pools.push_back(std::make_unique<PageWalkers>(ptw, pt, mem, eq));
        std::vector<Vpn> batch;
        for (std::size_t i = 0; i < s.instrs.size(); ++i) {
            if (misses[i].empty())
                continue;
            const Stream::Instr &in = s.instrs[i];
            const Cycle now = std::max(eq.now(), in.cycle);
            eq.runUntil(now);
            batch.clear();
            for (Vpn v : misses[i])
                batch.push_back(v << (page_shift - kPageShift4K));
            requested += batch.size();
            pools[per_core_mmu ? in.core : 0]->requestBatch(
                batch, now, [&completed](Vpn, Cycle) { ++completed; });
        }
        drainAll(eq);
        return completed;
    }));
    if (completed != requested) {
        res.error = "replay: walkers completed " +
                    std::to_string(completed) + " of " +
                    std::to_string(requested) + " walks";
        return res;
    }

    // --- vm.translate: the reference translator on every page. Its
    // frame must equal the timing page table's. ---
    bool translate_ok = true;
    res.layers.push_back(timeLayer("vm.translate", [&] {
        RefTranslator ref(pt);
        for (const Stream::Page &pg : s.pages) {
            const auto frame = ref.frameBase(pg.vpn, page_shift);
            translate_ok = translate_ok && frame && *frame == pg.frame;
        }
        return static_cast<std::uint64_t>(s.pages.size());
    }));
    if (!translate_ok) {
        res.error = "replay: reference translation differs from the "
                    "page table";
        return res;
    }

    // --- mem.l1_access: L1Cache::access per coalesced line, retrying
    // on a full MSHR file as the memory stage does. Physical lines
    // behind per-core MMUs, virtual lines behind the IOMMU. ---
    std::vector<MemRef> to_memory;
    std::vector<std::pair<Cycle, Cycle>> completions;
    to_memory.reserve(s.vlines.size());
    completions.reserve(s.vlines.size());
    res.layers.push_back(timeLayer("mem.l1_access", [&] {
        MemorySystem mem(cfg.mem);
        std::vector<std::unique_ptr<L1Cache>> l1s;
        for (std::size_t i = 0; i < num_cores; ++i)
            l1s.push_back(std::make_unique<L1Cache>(cfg.core.l1, mem));
        const std::uint64_t offset_mask = (1ULL << page_shift) - 1;
        std::uint64_t ops = 0;
        for (const Stream::Instr &in : s.instrs) {
            L1Cache &l1 = *l1s[in.core];
            for (std::size_t p = in.pageBegin; p < in.pageEnd; ++p) {
                const Stream::Page &pg = s.pages[p];
                for (std::size_t l = pg.lineBegin; l < pg.lineEnd; ++l) {
                    const std::uint64_t vline = s.vlines[l];
                    const PhysAddr line =
                        per_core_mmu
                            ? lineAddrOf((pg.frame << page_shift) |
                                         ((vline << kLineShift) &
                                          offset_mask))
                            : vline;
                    ++ops;
                    AccessOutcome out =
                        l1.access(line, in.store, in.cycle, in.warp);
                    while (out.needRetry) {
                        out = l1.access(line, in.store, out.readyAt,
                                        in.warp);
                    }
                    if (in.store || (!out.hit && !out.mshrMerged))
                        to_memory.push_back({line, in.store, in.cycle});
                    if (!in.store)
                        completions.emplace_back(in.cycle, out.readyAt);
                }
            }
        }
        return ops;
    }));

    // --- mem.system_access: MemorySystem::access with the lines the
    // L1 replay sent on (load misses and write-through stores). ---
    res.layers.push_back(timeLayer("mem.system_access", [&] {
        MemorySystem mem(cfg.mem);
        for (const MemRef &r : to_memory)
            mem.access(r.line, r.store, r.at, AccessSource::Data);
        return static_cast<std::uint64_t>(to_memory.size());
    }));

    // --- sim.event: EventQueue schedule + dispatch of one completion
    // callback per L1 load, at the cycle the L1 replay resolved it. ---
    std::uint64_t fired = 0;
    res.layers.push_back(timeLayer("sim.event", [&] {
        EventQueue eq;
        for (const auto &[issue, ready] : completions) {
            eq.runUntil(std::max(eq.now(), issue));
            eq.schedule(std::max(eq.now(), ready), [&fired] { ++fired; });
        }
        drainAll(eq);
        return fired;
    }));
    if (fired != completions.size())
        res.error = "replay: event queue lost completions";
    return res;
}

} // namespace perfbench
