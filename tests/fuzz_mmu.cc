/**
 * @file
 * Property-based fuzz harness for the MMU timing stack.
 *
 * Each seed deterministically derives three phases of checking:
 *
 *  1. Functional differential fuzz: a page table with random mixed
 *     2MB/4KB mappings is translated VPN by VPN through both
 *     PageTable::translate/walk and the independent RefTranslator,
 *     including unmapped, guard and edge-of-address-space VPNs.
 *  2. Directed MMU fuzz: a randomly configured Mmu (TLB geometry,
 *     walker pool, non-blocking policy, page size) services synthetic
 *     warp batches, including set-conflict stress streams; every
 *     retired translation (hit or walk) is compared against the
 *     reference, with the invariant checker armed throughout and
 *     end-of-kernel drain checks at the end.
 *  3. Multi-process lifecycle fuzz: 2-4 demand-paged processes with
 *     overlapping virtual ranges share one armed IOMMU; translates,
 *     minor faults, partial unmaps with shootdowns and process
 *     destruction interleave, with every completion differentially
 *     verified against the owning process's page table.
 *  4. Full-stack fuzz: one small benchmark run through the whole GPU
 *     (cores, schedulers, caches, per-core MMUs or the shared IOMMU)
 *     at a random design point with SystemConfig::checkInvariants on.
 *
 * Any violation panics; the SIGABRT hook prints the reproducing
 * (seed, config) tuple first, and the per-seed driver catches any
 * C++ exception that escapes a phase (std::bad_alloc, stoull range
 * errors, library throws) and prints the same tuple before rethrowing,
 * so a CI failure is always replayed with:
 *     ./build/tests/fuzz_mmu --start-seed=<seed> --seeds=1
 *
 * Run from ctest as a small tier-2 smoke (see tests/CMakeLists.txt);
 * CI runs it under ASan/UBSan with --seeds=200.
 */

#include <array>
#include <csignal>
#include <cstring>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "check/ref_translator.hh"
#include "core/presets.hh"
#include "core/sweep.hh"
#include "mmu/iommu.hh"
#include "mmu/mmu.hh"
#include "sim/rng.hh"
#include "vm/address_space.hh"
#include "vm/process.hh"

using namespace gpummu;

namespace {

/** The reproducing (seed, config) tuple, emitted on any abort. */
std::string g_ctx;

void
abortHandler(int)
{
    if (!g_ctx.empty()) {
        // Async-signal-safe: plain write of the prepared buffer.
        [[maybe_unused]] auto n =
            write(2, g_ctx.data(), g_ctx.size());
    }
    _exit(134);
}

void
setContext(std::uint64_t seed, const std::string &what)
{
    g_ctx = "\nfuzz_mmu FAILURE: reproduce with --start-seed=" +
            std::to_string(seed) + " --seeds=1\n  failing phase: " +
            what + "\n";
}

[[noreturn]] void
fail(const std::string &msg)
{
    std::cerr << "fuzz_mmu: " << msg << "\n";
    std::abort();
}

std::string
describeMmu(const MmuConfig &m, bool large)
{
    std::ostringstream os;
    os << "tlb{e=" << m.tlb.entries << ",w=" << m.tlb.ways
       << ",p=" << m.tlb.ports << ",h=" << m.tlb.historyLength
       << "} ptw{n=" << m.ptw.numWalkers
       << ",sched=" << m.ptw.scheduling << ",pwc=" << m.ptw.pwcLines
       << "/" << m.ptw.pwcWays << ",port=" << m.ptw.portInterval
       << "} hum=" << m.hitUnderMiss << " overlap=" << m.cacheOverlap
       << " mshrs=" << m.mshrs << " large=" << large;
    return os.str();
}

TlbConfig
randomTlb(Rng &rng)
{
    TlbConfig t;
    const std::size_t entries_pool[] = {8, 16, 32, 64, 128};
    t.entries = entries_pool[rng.below(5)];
    const std::size_t ways_pool[] = {1, 2, 4, 8};
    do {
        t.ways = ways_pool[rng.below(4)];
    } while (t.ways > t.entries);
    t.ports = static_cast<unsigned>(rng.range(1, 4));
    t.historyLength = static_cast<unsigned>(rng.range(0, 4));
    return t;
}

PtwConfig
randomPtw(Rng &rng)
{
    PtwConfig p;
    const unsigned walkers_pool[] = {1, 2, 4, 8};
    p.numWalkers = walkers_pool[rng.below(4)];
    p.scheduling = rng.chance(0.5);
    const std::size_t pwc_pool[] = {0, 8, 16, 32};
    p.pwcLines = pwc_pool[rng.below(4)];
    if (p.pwcLines > 0) {
        const std::size_t ways_pool[] = {1, 2, 4, 8};
        do {
            p.pwcWays = ways_pool[rng.below(4)];
        } while (p.pwcWays > p.pwcLines);
    }
    p.portInterval = rng.range(1, 4);
    return p;
}

L2TlbConfig
randomL2Tlb(Rng &rng)
{
    L2TlbConfig l2;
    l2.enabled = true;
    const std::size_t entries_pool[] = {256, 512, 1024, 2048};
    l2.entries = entries_pool[rng.below(4)];
    const std::size_t ways_pool[] = {2, 4, 8};
    l2.ways = ways_pool[rng.below(3)];
    l2.ports = static_cast<unsigned>(rng.range(1, 4));
    const unsigned mshrs_pool[] = {1, 4, 16, 32};
    l2.mshrs = mshrs_pool[rng.below(4)];
    l2.hitLatency = rng.range(2, 16);
    l2.lookupInterval = rng.range(1, 4);
    return l2;
}

std::string
describeL2Tlb(const L2TlbConfig &l2)
{
    if (!l2.enabled)
        return " l2tlb=off";
    std::ostringstream os;
    os << " l2tlb{e=" << l2.entries << ",w=" << l2.ways
       << ",p=" << l2.ports << ",mshrs=" << l2.mshrs
       << ",lat=" << l2.hitLatency << "/" << l2.lookupInterval << "}";
    return os.str();
}

MmuConfig
randomMmu(Rng &rng)
{
    MmuConfig m;
    m.tlb = randomTlb(rng);
    m.ptw = randomPtw(rng);
    m.hitUnderMiss = rng.chance(0.6);
    m.cacheOverlap = m.hitUnderMiss && rng.chance(0.5);
    m.mshrs = static_cast<unsigned>(rng.range(8, 64));
    m.checkInvariants = true;
    return m;
}

/**
 * Phase 1: random mixed 2MB/4KB page table, differentially translated
 * through the reference walker and the table's own functional path.
 */
void
fuzzFunctional(std::uint64_t seed, Rng &rng)
{
    setContext(seed, "functional differential (mixed 2MB/4KB table)");
    PhysicalMemory phys(1ULL << 20, rng.chance(0.5),
                        splitMix64(seed));
    PageTable pt(phys);

    // Mixed mappings over 2MB tags [0, 256): a tag is either backed
    // large, sprinkled with 4KB pages, or left unmapped.
    std::map<std::uint64_t, Ppn> large_tags;
    std::map<Vpn, Ppn> small_vpns;
    const unsigned n_large = static_cast<unsigned>(rng.range(1, 6));
    const unsigned n_small = static_cast<unsigned>(rng.range(1, 40));
    for (unsigned i = 0; i < n_large; ++i) {
        const std::uint64_t tag = rng.below(256);
        if (large_tags.count(tag))
            continue;
        const Ppn base = phys.allocLargeFrame();
        pt.map2M(tag, base);
        large_tags[tag] = base;
    }
    for (unsigned i = 0; i < n_small; ++i) {
        const Vpn vpn = rng.below(256ULL << 9);
        if (large_tags.count(vpn >> 9) || small_vpns.count(vpn))
            continue;
        const Ppn ppn = phys.allocFrame();
        pt.map4K(vpn, ppn);
        small_vpns[vpn] = ppn;
    }

    RefTranslator ref(pt);

    // Every small mapping: translation and the full per-level trace.
    for (const auto &[vpn, ppn] : small_vpns) {
        auto t = ref.translate(vpn);
        if (!t || t->isLarge || t->ppn != ppn)
            fail("4KB mapping mismatch at vpn " + std::to_string(vpn));
        const WalkPath path = pt.walk(vpn);
        auto w = ref.walk(vpn);
        if (path.levels != w->levels)
            fail("walk depth mismatch at vpn " + std::to_string(vpn));
        for (unsigned l = 0; l < path.levels; ++l)
            if (path.entryAddrs[l] != w->entryAddrs[l])
                fail("walk trace mismatch at vpn " +
                     std::to_string(vpn) + " level " +
                     std::to_string(l));
    }
    // Every large mapping at random in-region offsets.
    for (const auto &[tag, base] : large_tags) {
        for (int i = 0; i < 8; ++i) {
            const std::uint64_t off = rng.below(512);
            auto t = ref.translate((tag << 9) | off);
            if (!t || !t->isLarge || t->ppn != base + off)
                fail("2MB mapping mismatch at tag " +
                     std::to_string(tag));
        }
        auto fb = ref.frameBase(tag, kPageShift2M);
        if (!fb || *fb != base >> 9)
            fail("2MB frameBase mismatch at tag " +
                 std::to_string(tag));
    }
    // Random probes across the whole space, plus the edges: mapped
    // and unmapped VPNs must agree optional-for-optional.
    std::vector<Vpn> probes = {0, 1, (1ULL << 36) - 1,
                               (256ULL << 9), (256ULL << 9) - 1};
    for (int i = 0; i < 64; ++i)
        probes.push_back(rng.below(1ULL << 36));
    for (Vpn vpn : probes) {
        auto a = pt.translate(vpn);
        auto b = ref.translate(vpn);
        if (a.has_value() != b.has_value())
            fail("mapped-ness disagreement at vpn " +
                 std::to_string(vpn));
        if (a && (a->ppn != b->ppn || a->isLarge != b->isLarge))
            fail("translation disagreement at vpn " +
                 std::to_string(vpn));
    }
}

/**
 * Phase 2: drive a randomly configured Mmu with synthetic warp
 * batches the way the memory stage does, checker armed, and
 * differentially verify every retired translation ourselves.
 */
void
fuzzMmuDirect(std::uint64_t seed, Rng &rng)
{
    const bool large = rng.chance(0.25);
    MmuConfig mcfg = randomMmu(rng);
    setContext(seed, "directed MMU fuzz: " + describeMmu(mcfg, large));

    PhysicalMemory phys(1ULL << 20, true, splitMix64(seed ^ 1));
    AddressSpace as(phys, large);
    MemorySystem mem((MemorySystemConfig()));
    EventQueue eq;

    // A few data regions plus one sized for set-conflict stress.
    const std::size_t num_sets = mcfg.tlb.entries / mcfg.tlb.ways;
    const unsigned page_shift = large ? kPageShift2M : kPageShift4K;
    const std::uint64_t page = 1ULL << page_shift;
    as.mmap("a", rng.range(2, 24) * kPageSize4K);
    as.mmap("b", rng.range(1, 8) * page);
    const VmRegion conflict =
        as.mmap("conflict", (mcfg.tlb.ways + 4) * num_sets * page);

    Mmu mmu(mcfg, as, mem, eq);
    RefTranslator ref(as.pageTable());

    // Tag pool at translation granularity.
    std::vector<Vpn> pool;
    for (const VmRegion &r : as.regions()) {
        for (Vpn t = r.base >> page_shift;
             t <= (r.end() - 1) >> page_shift; ++t)
            pool.push_back(t);
    }
    const Vpn conflict_lo = conflict.base >> page_shift;
    const Vpn conflict_hi = (conflict.end() - 1) >> page_shift;

    const unsigned ops = static_cast<unsigned>(rng.range(60, 160));
    const unsigned max_lanes = static_cast<unsigned>(
        std::min<std::uint64_t>(mcfg.mshrs, 8));
    std::uint64_t walks_issued = 0, walks_done = 0, hits_checked = 0;
    Cycle now = 0;
    const Cycle deadline = 80'000'000;

    auto check_frame = [&](Vpn tag, std::uint64_t frame,
                           const char *site) {
        auto expect = ref.frameBase(tag, page_shift);
        if (!expect)
            fail(std::string(site) + ": timing translated unmapped "
                                     "tag " +
                 std::to_string(tag));
        if (*expect != frame)
            fail(std::string(site) + ": tag " + std::to_string(tag) +
                 " timing frame " + std::to_string(frame) +
                 " != reference " + std::to_string(*expect));
    };

    for (unsigned op = 0; op < ops;) {
        eq.runUntil(now);
        if (now > deadline)
            fail("no forward progress (deadlock?) after " +
                 std::to_string(op) + " ops");
        if (!mmu.memAvailable()) {
            ++now; // blocking TLB draining a miss
            continue;
        }

        // Pick a batch: usually clustered random tags, sometimes a
        // same-set conflict stream.
        std::vector<Vpn> batch;
        const unsigned lanes =
            static_cast<unsigned>(rng.range(1, max_lanes));
        if (rng.chance(0.3)) {
            const Vpn base = conflict_lo + rng.below(num_sets);
            for (Vpn t = base; t <= conflict_hi && batch.size() < lanes;
                 t += num_sets)
                batch.push_back(t);
        } else {
            std::set<Vpn> uniq;
            while (uniq.size() < lanes)
                uniq.insert(pool[rng.below(pool.size())]);
            batch.assign(uniq.begin(), uniq.end());
        }

        const int warp = static_cast<int>(rng.below(16));
        auto res = mmu.lookupBatch(batch, warp);
        std::vector<Vpn> misses;
        for (const auto &vl : res.lookups) {
            if (vl.hit) {
                check_frame(vl.vpn, vl.frameBase, "TLB hit");
                ++hits_checked;
            } else {
                misses.push_back(vl.vpn);
            }
        }
        if (!misses.empty()) {
            if (!mmu.canStartMisses(misses.size())) {
                ++now; // bounced: walks outstanding, retry later
                continue;
            }
            walks_issued += misses.size();
            mmu.requestWalks(
                misses, warp, now,
                [&](Vpn tag, std::uint64_t frame, Cycle) {
                    check_frame(tag, frame, "walk completion");
                    ++walks_done;
                });
        }
        now += 1 + res.extraCycles;
        ++op;
    }

    eq.runUntil(now + 10'000'000);
    if (walks_done != walks_issued)
        fail("walk conservation: issued " +
             std::to_string(walks_issued) + ", completed " +
             std::to_string(walks_done));
    mmu.checkEndOfKernel();
    const InvariantChecker *chk = mmu.checker();
    if (chk == nullptr || chk->fillsChecked() == 0)
        fail("checker armed but saw no fills");
    if (chk->hitsChecked() != hits_checked)
        fail("checker hit count diverged from driver");
}

/**
 * Phase 3: one small full-system run (cores, scheduler, caches, MMU
 * or IOMMU) at a random design point with the checker armed.
 */
void
fuzzFullStack(std::uint64_t seed, Rng &rng)
{
    SystemConfig cfg = presets::augmentedTlb();
    cfg.core.mmu.tlb = randomTlb(rng);
    cfg.core.mmu.ptw = randomPtw(rng);
    cfg.core.mmu.hitUnderMiss = rng.chance(0.7);
    cfg.core.mmu.cacheOverlap =
        cfg.core.mmu.hitUnderMiss && rng.chance(0.5);
    // Each SIMT instruction can miss on up to warp-size pages.
    cfg.core.mmu.mshrs = 32;

    const double mode = rng.uniform();
    std::string mode_name = "mmu";
    if (mode < 0.15) {
        cfg = presets::iommu();
        cfg.iommuCfg.tlb = randomTlb(rng);
        cfg.iommuCfg.ptw = randomPtw(rng);
        mode_name = "iommu";
    } else if (mode < 0.30) {
        cfg = presets::withLargePages(cfg);
        mode_name = "large";
    } else if (mode < 0.40) {
        // CCWS, TA-CCWS or TCWS, with random throttle timers (an
        // update interval of 0 recomputes every cycle) and weights.
        const std::uint64_t kind = rng.below(3);
        ThrottleConfig *throttle = &cfg.ccws;
        if (kind == 0) {
            cfg = presets::ccws(cfg);
        } else if (kind == 1) {
            cfg = presets::taCcws(
                cfg, static_cast<unsigned>(rng.range(2, 8)));
        } else {
            const unsigned epw = 2u << rng.below(4);
            std::array<std::uint64_t, 4> lru{};
            for (auto &w : lru)
                w = rng.range(0, 8);
            cfg = presets::tcws(cfg, epw, lru);
            throttle = &cfg.tcws;
        }
        throttle->updateInterval = rng.range(0, 256);
        throttle->halfLife = rng.range(1, 8192);
        mode_name = cfg.name + " interval=" +
                    std::to_string(throttle->updateInterval) +
                    " halfLife=" + std::to_string(throttle->halfLife);
    } else if (mode < 0.50) {
        cfg = presets::tbc(cfg);
        mode_name = "tbc";
    }
    // The shared L2 TLB rides along with any per-core-MMU mode (it
    // has no attachment point behind the IOMMU).
    if (mode_name != "iommu" && rng.chance(0.4))
        cfg.l2tlb = randomL2Tlb(rng);
    cfg.checkInvariants = true;
    cfg.numCores = static_cast<unsigned>(rng.range(1, 2));

    WorkloadParams params;
    params.scale = 0.03 + 0.03 * rng.uniform();
    params.seed = rng.next();
    const auto benches = allBenchmarks();
    const BenchmarkId bench = benches[rng.below(benches.size())];

    setContext(seed, "full-stack fuzz: bench=" +
                         std::string(benchmarkName(bench)) +
                         " mode=" + mode_name + " cores=" +
                         std::to_string(cfg.numCores) + " " +
                         describeMmu(cfg.core.mmu, cfg.largePages) +
                         describeL2Tlb(cfg.l2tlb) +
                         " wseed=" + std::to_string(params.seed));
    const RunOutput out = runConfigFull(bench, cfg, params);
    if (out.stats.cycles == 0)
        fail("full-stack run retired no cycles");
}

/**
 * Phase 4: multi-process lifecycle fuzz. 2-4 demand-paged processes
 * with overlapping virtual ranges share one armed IOMMU; random
 * translates (minor faults included), direct fault-ins, partial
 * unmaps with shootdowns, and process destruction interleave. Every
 * completed translation is differentially checked against the owning
 * process's page table, the armed checker cross-checks every fill
 * against the per-ASID reference walkers, and survivors' entries must
 * outlive their neighbours' shootdowns.
 */
void
fuzzMultiProcess(std::uint64_t seed, Rng &rng)
{
    const unsigned nproc = 2 + static_cast<unsigned>(rng.below(3));
    OsConfig os;
    os.switchPenalty = rng.range(0, 4000);
    os.faultLatency = rng.range(100, 8000);
    os.shootdownBase = rng.range(0, 1000);
    os.shootdownPerEntry = rng.range(1, 16);
    setContext(seed, "multi-process fuzz: procs=" +
                         std::to_string(nproc) + " faultLat=" +
                         std::to_string(os.faultLatency) +
                         " shoot=" + std::to_string(os.shootdownBase) +
                         "+" + std::to_string(os.shootdownPerEntry) +
                         "/entry");

    PhysicalMemory phys(1ULL << 20, rng.chance(0.5),
                        splitMix64(seed ^ 2));
    ProcessManager pm(phys, os);
    MemorySystem mem((MemorySystemConfig()));
    EventQueue eq;

    struct Proc
    {
        Process *p;
        std::vector<VmRegion> regions;
        bool alive = true;
    };
    std::vector<Proc> procs;
    for (unsigned i = 0; i < nproc; ++i) {
        Process &p = pm.create(std::string("p") + std::to_string(i),
                               false, /*lazy=*/true);
        Proc entry{&p, {}, true};
        const unsigned nregions = 1 + static_cast<unsigned>(rng.below(2));
        for (unsigned r = 0; r < nregions; ++r)
            entry.regions.push_back(p.as.mmap(
                std::string("r") + std::to_string(r),
                rng.range(4, 96) * kPageSize4K));
        procs.push_back(std::move(entry));
    }

    IommuConfig icfg;
    icfg.tlb = randomTlb(rng);
    icfg.ptw = randomPtw(rng);
    icfg.checkInvariants = true;
    Iommu iommu(icfg, procs.front().p->as, mem, eq);
    iommu.attachProcesses(&pm);
    pm.addTlbTarget(&iommu.tlb(), kPageShift4K);
    pm.addWalkerTarget(&iommu.walkers());

    auto randomVpn = [&rng](const Proc &pr) {
        const VmRegion &r = pr.regions[rng.below(pr.regions.size())];
        return (r.base >> kPageShift4K) +
               rng.below(r.bytes >> kPageShift4K);
    };
    auto alive = [&procs, &rng]() -> Proc & {
        for (;;) {
            Proc &pr = procs[rng.below(procs.size())];
            if (pr.alive && !pr.regions.empty())
                return pr;
        }
    };

    Cycle now = 0;
    std::uint64_t issued = 0, completed = 0;
    // Drain every in-flight walk and fault retry; unmaps must never
    // race a walk that already snapshotted its page-table path.
    auto drain = [&]() {
        now += os.faultLatency + 200'000;
        eq.runUntil(now);
    };

    const unsigned ops = static_cast<unsigned>(rng.range(80, 240));
    for (unsigned op = 0; op < ops; ++op) {
        const double dice = rng.uniform();
        if (dice < 0.70) {
            // Translate: either faults in (reserved, unmapped) or
            // walks/hits. At completion the page must be mapped and
            // the frame must match the owner's table - never a
            // neighbour's, however the VPNs overlap.
            Proc &pr = alive();
            const Vpn vpn = randomVpn(pr);
            const Asid asid = pr.p->asid;
            const AddressSpace *as = &pr.p->as;
            ++issued;
            iommu.translate(
                asidKey(asid, vpn), now,
                [&completed, as, vpn, asid](std::uint64_t frame,
                                            Cycle) {
                    auto t = as->pageTable().translate(vpn);
                    if (!t)
                        fail("ASID " + std::to_string(asid) +
                             " completion on unmapped vpn " +
                             std::to_string(vpn));
                    if (t->ppn != frame)
                        fail("ASID " + std::to_string(asid) + " vpn " +
                             std::to_string(vpn) + " frame " +
                             std::to_string(frame) + " != table " +
                             std::to_string(t->ppn));
                    ++completed;
                });
            now += rng.range(1, 50);
            eq.runUntil(now);
        } else if (dice < 0.80) {
            // OS-side fault-in with no translation in flight for it.
            Proc &pr = alive();
            pr.p->as.faultIn(randomVpn(pr));
        } else if (dice < 0.90) {
            // Partial unmap + shootdown of a small aligned subrange.
            drain();
            Proc &pr = alive();
            const VmRegion &r =
                pr.regions[rng.below(pr.regions.size())];
            const std::uint64_t pages = r.bytes >> kPageShift4K;
            const std::uint64_t lo = rng.below(pages);
            const std::uint64_t len =
                1 + rng.below(std::min<std::uint64_t>(8, pages - lo));
            pr.p->as.munmapRange(r.base + lo * kPageSize4K,
                                 len * kPageSize4K);
            const Vpn vlo = (r.base >> kPageShift4K) + lo;
            now = pm.shootdown(pr.p->asid, vlo, vlo + len, now);
            for (Vpn v = vlo; v < vlo + len; ++v) {
                if (iommu.tlb().probe(asidKey(pr.p->asid, v)))
                    fail("shootdown left ASID " +
                         std::to_string(pr.p->asid) + " vpn " +
                         std::to_string(v) + " in the IOMMU TLB");
            }
        } else if (dice < 0.95 && procs.size() > 2) {
            // Destroy one process outright; survivors keep running.
            drain();
            std::vector<std::size_t> alive_idx;
            for (std::size_t i = 0; i < procs.size(); ++i)
                if (procs[i].alive)
                    alive_idx.push_back(i);
            if (alive_idx.size() > 2) {
                Proc &pr =
                    procs[alive_idx[rng.below(alive_idx.size())]];
                now = pm.destroy(pr.p->asid, now);
                pr.alive = false;
                if (!pr.p->as.regions().empty())
                    fail("destroy left regions behind");
            }
        } else {
            drain();
        }
    }

    drain();
    if (completed != issued)
        fail("translate conservation: issued " +
             std::to_string(issued) + ", completed " +
             std::to_string(completed));
    iommu.checkEndOfKernel();
    const InvariantChecker *chk = iommu.checker();
    if (chk == nullptr || chk->fillsChecked() == 0)
        fail("armed multi-process run saw no checked fills");

    // Survivors' residency outlives every neighbour's teardown: one
    // last translate per live process must still verify.
    for (Proc &pr : procs) {
        if (!pr.alive)
            continue;
        const Vpn vpn = randomVpn(pr);
        const AddressSpace *as = &pr.p->as;
        bool done = false;
        iommu.translate(asidKey(pr.p->asid, vpn), now,
                        [&done, as, vpn](std::uint64_t frame, Cycle) {
                            auto t = as->pageTable().translate(vpn);
                            if (!t || t->ppn != frame)
                                fail(std::string("post-teardown "
                                                 "verify failed at "
                                                 "vpn ") +
                                     std::to_string(vpn));
                            done = true;
                        });
        drain();
        if (!done)
            fail("post-teardown translate never completed");
    }

    // Full teardown balances the books.
    for (Proc &pr : procs)
        if (pr.alive)
            now = pm.destroy(pr.p->asid, now);
    if (pm.shootdowns() == 0 || pm.faults() == 0)
        fail("lifecycle fuzz exercised no shootdowns or faults");
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t seeds = 10;
    std::uint64_t start_seed = 0;
    bool functional_only = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--seeds=", 0) == 0) {
            seeds = std::stoull(arg.substr(8));
        } else if (arg.rfind("--start-seed=", 0) == 0) {
            start_seed = std::stoull(arg.substr(13));
        } else if (arg == "--functional-only") {
            functional_only = true;
        } else {
            std::cerr << "usage: fuzz_mmu [--seeds=N] "
                         "[--start-seed=K] [--functional-only]\n";
            return 2;
        }
    }
    std::signal(SIGABRT, abortHandler);

    for (std::uint64_t s = start_seed; s < start_seed + seeds; ++s) {
        // The SIGABRT hook only fires for abort(); exceptions that
        // escape a phase (bad_alloc, library throws) would otherwise
        // terminate without naming the seed. Print the same repro
        // tuple here and rethrow so the exit status still reflects
        // the failure.
        try {
            Rng rng(splitMix64(s));
            fuzzFunctional(s, rng);
            if (!functional_only) {
                fuzzMmuDirect(s, rng);
                fuzzMultiProcess(s, rng);
                fuzzFullStack(s, rng);
            }
        } catch (const std::exception &e) {
            std::cerr << g_ctx
                      << "  escaped exception: " << e.what() << "\n";
            throw;
        } catch (...) {
            std::cerr << g_ctx << "  escaped non-std exception\n";
            throw;
        }
        if ((s - start_seed + 1) % 25 == 0 ||
            s + 1 == start_seed + seeds) {
            std::cout << "fuzz_mmu: " << (s - start_seed + 1) << "/"
                      << seeds << " seeds clean\n";
        }
    }
    std::cout << "fuzz_mmu: all " << seeds << " seeds passed ("
              << (functional_only ? "functional only"
                                  : "functional + directed + "
                                    "multi-process + full-stack")
              << ")\n";
    return 0;
}
