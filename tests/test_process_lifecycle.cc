/**
 * @file
 * Differential process-lifecycle suite for the multi-process address
 * translation layer: ASID-composed keys, demand paging with
 * Mosaic-style 2MB coalescing/splintering, and munmap-driven TLB
 * shootdowns that must reach every translation-caching structure —
 * per-core L1 TLBs, the shared L2 TLB (including poisoning in-flight
 * translation MSHRs), the IOMMU TLB and the per-core walk caches —
 * while leaving every other process's entries untouched.
 *
 * The single most important contract pinned here is the identity at
 * ASID 0: key composition is a no-op for the legacy single-process
 * space, so every pre-existing golden stat dump stays byte-identical.
 */

#include <cstdio>

#include <gtest/gtest.h>

#include "check/invariant_checker.hh"
#include "core/multi_tenant.hh"
#include "mmu/iommu.hh"
#include "mmu/l2_tlb.hh"
#include "mmu/ptw.hh"
#include "mmu/tlb.hh"
#include "sim/event_queue.hh"
#include "telemetry/telemetry.hh"
#include "trace/memtrace.hh"
#include "vm/address_space.hh"
#include "vm/process.hh"

using namespace gpummu;

namespace {

constexpr std::uint64_t kChunk = kPageSize2M / kPageSize4K; // 512

/** Deterministic frames: no allocation scramble. */
PhysicalMemory
makePhys()
{
    return PhysicalMemory(1ULL << 20, /*scramble=*/false);
}

} // namespace

// ---------------------------------------------------------------------
// ASID key composition.
// ---------------------------------------------------------------------

TEST(AsidKeys, CompositionIsIdentityForAsidZero)
{
    // Single-process runs must produce bit-identical TLB/L2/checker
    // keys to the pre-ASID code: composing with ASID 0 is a no-op.
    const std::uint64_t locals[] = {0, 1, 0xfffff, (1ULL << 36) - 1,
                                    kAsidKeyMask};
    for (std::uint64_t v : locals) {
        EXPECT_EQ(asidKey(0, v), v);
        EXPECT_EQ(keyAsid(v), 0u);
        EXPECT_EQ(keyLocal(v), v);
    }
}

TEST(AsidKeys, RoundTripAndNoOverlap)
{
    const Asid asids[] = {1, 2, 7, 255};
    const std::uint64_t v = (1ULL << 36) - 1; // widest 4KB VPN
    for (Asid a : asids) {
        const std::uint64_t k = asidKey(a, v);
        EXPECT_EQ(keyAsid(k), a);
        EXPECT_EQ(keyLocal(k), v);
        // Distinct ASIDs can never alias, whatever the local half.
        EXPECT_NE(k, asidKey(a + 1, v));
        EXPECT_NE(k, v);
    }
}

// ---------------------------------------------------------------------
// Page-table mapping lifecycle.
// ---------------------------------------------------------------------

TEST(PageTableLifecycle, CoalesceSplinterRoundTrip)
{
    PhysicalMemory phys = makePhys();
    PageTable pt(phys);

    // 512 contiguous 4KB pages over one aligned frame chunk.
    const std::uint64_t vpn2m = 5;
    const Vpn lo = vpn2m * kChunk;
    const Ppn base = phys.allocLargeFrame();
    for (std::uint64_t i = 0; i < kChunk; ++i)
        pt.map4K(lo + i, base + i);
    const std::size_t pages_small = pt.tablePages();

    // Promote. The retired PT page goes to the freelist.
    ASSERT_TRUE(pt.coalesce2M(vpn2m));
    EXPECT_TRUE(pt.isLargeMapped(vpn2m));
    EXPECT_EQ(pt.tablePages(), pages_small - 1);
    for (std::uint64_t i = 0; i < kChunk; i += 37) {
        const auto t = pt.translate(lo + i);
        ASSERT_TRUE(t.has_value());
        EXPECT_EQ(t->ppn, base + i);
        EXPECT_TRUE(t->isLarge);
    }
    // Re-promoting an already-large chunk is a refused no-op.
    EXPECT_FALSE(pt.coalesce2M(vpn2m));

    // Demote: identical translations, small flags, and the PT page
    // comes back off the freelist (no growth).
    pt.splinter2M(vpn2m);
    EXPECT_FALSE(pt.isLargeMapped(vpn2m));
    EXPECT_EQ(pt.tablePages(), pages_small);
    for (std::uint64_t i = 0; i < kChunk; i += 37) {
        const auto t = pt.translate(lo + i);
        ASSERT_TRUE(t.has_value());
        EXPECT_EQ(t->ppn, base + i);
        EXPECT_FALSE(t->isLarge);
    }

    // A second full round trip exercises freelist reuse end to end.
    ASSERT_TRUE(pt.coalesce2M(vpn2m));
    EXPECT_EQ(pt.tablePages(), pages_small - 1);
    pt.splinter2M(vpn2m);
    EXPECT_EQ(pt.tablePages(), pages_small);

    // Tear down a page: the chunk can no longer coalesce.
    EXPECT_EQ(pt.unmap4K(lo + 3), base + 3);
    EXPECT_FALSE(pt.coalesce2M(vpn2m));
    EXPECT_FALSE(pt.translate(lo + 3).has_value());
    EXPECT_TRUE(pt.translate(lo + 4).has_value());
}

TEST(PageTableLifecycle, CoalesceRefusesNonContiguousFrames)
{
    PhysicalMemory phys = makePhys();
    PageTable pt(phys);
    const Vpn lo = 9 * kChunk;
    for (std::uint64_t i = 0; i < kChunk; ++i)
        pt.map4K(lo + i, phys.allocFrame());
    // Frames are sequential here but the chunk base is not 2MB-frame
    // aligned (the root table grabbed frame 0), so promotion refuses.
    EXPECT_FALSE(pt.coalesce2M(9));
    EXPECT_FALSE(pt.isLargeMapped(9));
}

// ---------------------------------------------------------------------
// Demand paging through the ProcessManager.
// ---------------------------------------------------------------------

TEST(DemandPaging, FaultInCoalescesFullChunksAndMunmapSplinters)
{
    PhysicalMemory phys = makePhys();
    ProcessManager pm(phys);
    Process &p = pm.create("tenant", /*use_large=*/false,
                           /*lazy=*/true);
    const VmRegion r = p.as.mmap("data", 2 * kPageSize2M);
    ASSERT_EQ(r.base % kPageSize2M, 0u) << "first region 2MB-aligned";
    const Vpn lo = r.base >> kPageShift4K;
    const std::uint64_t vpn2m = lo / kChunk;

    // Reserved, not mapped: a touch faults, a re-touch no-ops.
    EXPECT_TRUE(p.as.isReserved(lo));
    EXPECT_FALSE(p.as.pageTable().translate(lo).has_value());

    // Populate the first chunk fully: the 512th fault promotes.
    for (std::uint64_t i = 0; i < kChunk; ++i) {
        EXPECT_EQ(pm.coalesces(), 0u);
        p.as.faultIn(lo + i);
    }
    EXPECT_EQ(pm.coalesces(), 1u);
    EXPECT_TRUE(p.as.pageTable().isLargeMapped(vpn2m));
    const auto t = p.as.pageTable().translate(lo + 100);
    ASSERT_TRUE(t.has_value());
    EXPECT_TRUE(t->isLarge);

    // Racing faults on an already-mapped page are no-ops.
    p.as.faultIn(lo + 100);
    EXPECT_EQ(pm.coalesces(), 1u);

    // Partially unmapping the chunk splinters it first; the surviving
    // pages keep their frames at 4KB granularity.
    const std::uint64_t removed =
        p.as.munmapRange(r.base, 4 * kPageSize4K);
    EXPECT_EQ(removed, 4u);
    EXPECT_EQ(pm.splinters(), 1u);
    EXPECT_FALSE(p.as.pageTable().isLargeMapped(vpn2m));
    EXPECT_FALSE(p.as.pageTable().translate(lo).has_value());
    const auto kept = p.as.pageTable().translate(lo + 100);
    ASSERT_TRUE(kept.has_value());
    EXPECT_EQ(kept->ppn, t->ppn);
    EXPECT_FALSE(kept->isLarge);
}

// ---------------------------------------------------------------------
// Cross-ASID isolation of the caching structures (the latent
// single-address-space assumptions PR 7 fixed).
// ---------------------------------------------------------------------

TEST(CrossAsid, L1TlbNeverAliasesProcesses)
{
    PhysicalMemory phys = makePhys();
    ProcessManager pm(phys);
    Process &a = pm.create("a");
    Process &b = pm.create("b");
    const VmRegion ra = a.as.mmap("d", 8 * kPageSize4K);
    const VmRegion rb = b.as.mmap("d", 8 * kPageSize4K);
    ASSERT_EQ(ra.base, rb.base) << "overlapping VAs by construction";
    const Vpn v = ra.base >> kPageShift4K;
    const Translation ta = *a.as.pageTable().translate(v);
    const Translation tb = *b.as.pageTable().translate(v);
    ASSERT_NE(ta.ppn, tb.ppn);

    Tlb tlb((TlbConfig()));
    tlb.fill(asidKey(a.asid, v), ta);

    // Process b's identical local VPN is a miss, as is the raw
    // (legacy asid-0) key.
    EXPECT_TRUE(tlb.probe(asidKey(a.asid, v)));
    EXPECT_FALSE(tlb.probe(asidKey(b.asid, v)));
    EXPECT_FALSE(tlb.probe(v));

    tlb.fill(asidKey(b.asid, v), tb);
    const auto la = tlb.lookup(asidKey(a.asid, v), 0);
    const auto lb = tlb.lookup(asidKey(b.asid, v), 0);
    ASSERT_TRUE(la.hit);
    ASSERT_TRUE(lb.hit);
    EXPECT_EQ(la.ppn, ta.ppn);
    EXPECT_EQ(lb.ppn, tb.ppn);
}

TEST(CrossAsid, L2TlbNeverAliasesProcesses)
{
    PhysicalMemory phys = makePhys();
    ProcessManager pm(phys);
    Process &a = pm.create("a");
    Process &b = pm.create("b");
    const VmRegion ra = a.as.mmap("d", 8 * kPageSize4K);
    b.as.mmap("d", 8 * kPageSize4K);
    const Vpn v = ra.base >> kPageShift4K;
    const Translation ta = *a.as.pageTable().translate(v);
    const Translation tb = *b.as.pageTable().translate(v);

    EventQueue eq;
    L2TlbConfig cfg;
    cfg.enabled = true;
    L2Tlb l2(cfg, a.as.pageTable(), eq, kPageShift4K);

    l2.fillBypass(asidKey(a.asid, v), ta, 0);
    EXPECT_TRUE(l2.probe(asidKey(a.asid, v)));
    EXPECT_FALSE(l2.probe(asidKey(b.asid, v)));
    EXPECT_FALSE(l2.probe(v));
    l2.fillBypass(asidKey(b.asid, v), tb, 0);
    EXPECT_TRUE(l2.probe(asidKey(b.asid, v)));
}

TEST(CrossAsid, CheckerVerifiesEachProcessAgainstItsOwnWalker)
{
    PhysicalMemory phys = makePhys();
    ProcessManager pm(phys);
    Process &a = pm.create("a");
    Process &b = pm.create("b");
    const VmRegion ra = a.as.mmap("d", 4 * kPageSize4K);
    b.as.mmap("d", 4 * kPageSize4K);
    const Vpn v = ra.base >> kPageShift4K;

    InvariantChecker chk(a.as.pageTable(), a.asid);
    chk.addSpace(b.asid, b.as.pageTable());

    Tlb tlb((TlbConfig()));
    tlb.setChecker(&chk, kPageShift4K);

    // The same local VPN backs different frames in the two processes;
    // an ASID-blind checker would flag one of these fills as corrupt.
    tlb.fill(asidKey(a.asid, v), *a.as.pageTable().translate(v));
    tlb.fill(asidKey(b.asid, v), *b.as.pageTable().translate(v));
    EXPECT_EQ(chk.fillsChecked(), 2u);
    tlb.checkSweep();
    EXPECT_GE(chk.entriesSwept(), 2u);
}

TEST(CrossAsid, HeatProfilerAttributesWalksPerProcess)
{
    PhysicalMemory phys = makePhys();
    ProcessManager pm(phys);
    Process &a = pm.create("a");
    Process &b = pm.create("b");
    const VmRegion ra = a.as.mmap("d", 4 * kPageSize4K);
    b.as.mmap("d", 4 * kPageSize4K);
    const Vpn v = ra.base >> kPageShift4K;

    MemorySystem mem((MemorySystemConfig()));
    EventQueue eq;
    PageWalkers w((PtwConfig()), a.as.pageTable(), mem, eq);
    HeatProfiler heat;
    w.setHeatProfiler(&heat, -1);

    // Each walk hands back its own process's translation.
    unsigned done = 0;
    w.requestBatchFor(a.as.pageTable(), a.asid, {v}, 0,
                      [&](Vpn lv, const Translation &t, Cycle) {
                          EXPECT_EQ(lv, v);
                          EXPECT_EQ(t.ppn,
                                    a.as.pageTable().translate(v)->ppn);
                          ++done;
                      });
    w.requestBatchFor(b.as.pageTable(), b.asid, {v}, 0,
                      [&](Vpn lv, const Translation &t, Cycle) {
                          EXPECT_EQ(lv, v);
                          EXPECT_EQ(t.ppn,
                                    b.as.pageTable().translate(v)->ppn);
                          ++done;
                      });
    eq.runUntil(1'000'000);
    ASSERT_EQ(done, 2u);

    // One VPN per process, not one shared (aliased) VPN.
    EXPECT_EQ(heat.pages().count(asidKey(a.asid, v)), 1u);
    EXPECT_EQ(heat.pages().count(asidKey(b.asid, v)), 1u);
    EXPECT_EQ(heat.pages().count(v), 0u);
}

// ---------------------------------------------------------------------
// Shootdowns: every level, only the dying ASID, costed.
// ---------------------------------------------------------------------

namespace {

/** Two eager processes with overlapping VAs plus direct-driven
 *  translation caches registered as shootdown targets. */
struct ShootdownRig
{
    PhysicalMemory phys{1ULL << 20, /*scramble=*/false};
    OsConfig os;
    ProcessManager pm{phys, os};
    Process &a;
    Process &b;
    VmRegion ra, rb;
    EventQueue eq;
    Tlb l1a{TlbConfig()}, l1b{TlbConfig()};
    L2Tlb l2;

    ShootdownRig()
        : a(pm.create("a")), b(pm.create("b")),
          ra(a.as.mmap("d", 8 * kPageSize4K)),
          rb(b.as.mmap("d", 8 * kPageSize4K)),
          l2(L2TlbConfig{.enabled = true}, a.as.pageTable(), eq,
             kPageShift4K)
    {
        pm.addTlbTarget(&l1a, kPageShift4K);
        pm.addTlbTarget(&l1b, kPageShift4K);
        pm.setL2Target(&l2);
        // Warm every level with both processes' overlapping pages.
        for (const Process *p : {&a, &b}) {
            const VmRegion &r = p == &a ? ra : rb;
            for (Vpn v = r.base >> kPageShift4K;
                 v < r.end() >> kPageShift4K; ++v) {
                const Translation t = *p->as.pageTable().translate(v);
                const std::uint64_t key = asidKey(p->asid, v);
                l1a.fill(key, t);
                l1b.fill(key, t);
                l2.fillBypass(key, t, 0);
            }
        }
    }

    bool
    resident(const Process &p, Vpn v) const
    {
        const std::uint64_t key = asidKey(p.asid, v);
        return l1a.probe(key) || l1b.probe(key) || l2.probe(key);
    }
};

} // namespace

TEST(Shootdown, MunmapInvalidatesOnlyTheDyingAsidAtEveryLevel)
{
    ShootdownRig rig;
    const Vpn alo = rig.ra.base >> kPageShift4K;
    const Vpn blo = rig.rb.base >> kPageShift4K;
    ASSERT_EQ(alo, blo) << "the overlap the ASID tags exist for";

    const Cycle start = 1000;
    const Cycle done = rig.pm.munmap(rig.a.asid, rig.ra, start);

    // Process a: gone from the two L1s and the shared L2.
    for (Vpn v = alo; v < alo + 8; ++v) {
        EXPECT_FALSE(rig.resident(rig.a, v)) << "vpn " << v;
        EXPECT_FALSE(rig.a.as.pageTable().translate(v).has_value());
    }
    // Process b: every entry survives its neighbour's unmap.
    for (Vpn v = blo; v < blo + 8; ++v) {
        EXPECT_TRUE(rig.l1a.probe(asidKey(rig.b.asid, v)));
        EXPECT_TRUE(rig.l1b.probe(asidKey(rig.b.asid, v)));
        EXPECT_TRUE(rig.l2.probe(asidKey(rig.b.asid, v)));
        EXPECT_TRUE(rig.b.as.pageTable().translate(v).has_value());
    }

    // Cost shape: base + per-entry * (8 pages x 3 structures), and
    // the stats agree with the return value.
    const std::uint64_t entries = 8 * 3;
    EXPECT_EQ(rig.pm.shootdowns(), 1u);
    EXPECT_EQ(rig.pm.shootdownEntries(), entries);
    EXPECT_EQ(done, start + rig.os.shootdownBase +
                        rig.os.shootdownPerEntry * entries);
}

TEST(Shootdown, DestroyDrainsEveryRegionAndRepeatsAreCheap)
{
    ShootdownRig rig;
    rig.a.as.mmap("e", 4 * kPageSize4K); // a second region to drain
    const Cycle done = rig.pm.destroy(rig.a.asid, 0);
    EXPECT_EQ(rig.a.as.regions().size(), 0u);
    EXPECT_EQ(rig.pm.shootdowns(), 2u); // one per region
    EXPECT_GT(done, 0u);
    // Everything of a is gone; b is intact.
    const Vpn blo = rig.rb.base >> kPageShift4K;
    EXPECT_FALSE(rig.resident(rig.a, blo));
    EXPECT_TRUE(rig.resident(rig.b, blo));
}

TEST(Shootdown, WalkCachesDropOnlyTheDyingProcessesLines)
{
    PhysicalMemory phys = makePhys();
    ProcessManager pm(phys);
    Process &a = pm.create("a");
    Process &b = pm.create("b");
    const VmRegion ra = a.as.mmap("d", 8 * kPageSize4K);
    const VmRegion rb = b.as.mmap("d", 8 * kPageSize4K);

    MemorySystem mem((MemorySystemConfig()));
    EventQueue eq;
    // Fully associative walk cache: paging-structure lines of small
    // tables concentrate in few sets (line id = frame*32 + entry/16),
    // and this test needs residency to be capacity-limited, not
    // conflict-limited, so both processes' lines survive warming.
    PtwConfig pcfg;
    pcfg.pwcLines = 32;
    pcfg.pwcWays = 0;
    PageWalkers w(pcfg, a.as.pageTable(), mem, eq);

    // Warm the walk cache with both processes' paging-structure lines.
    std::vector<Vpn> va, vb;
    for (Vpn v = ra.base >> kPageShift4K; v < ra.end() >> kPageShift4K;
         ++v)
        va.push_back(v);
    for (Vpn v = rb.base >> kPageShift4K; v < rb.end() >> kPageShift4K;
         ++v)
        vb.push_back(v);
    unsigned done = 0;
    auto count = [&](Vpn, const Translation &, Cycle) { ++done; };
    w.requestBatchFor(a.as.pageTable(), a.asid, va, 0, count);
    w.requestBatchFor(b.as.pageTable(), b.asid, vb, 0, count);
    eq.runUntil(10'000'000);
    ASSERT_EQ(done, va.size() + vb.size());

    // a's lines go; a second pass finds nothing; b's remain.
    EXPECT_GT(w.invalidatePagingLines(a.as.pageTable()), 0u);
    EXPECT_EQ(w.invalidatePagingLines(a.as.pageTable()), 0u);
    EXPECT_GT(w.invalidatePagingLines(b.as.pageTable()), 0u);
}

TEST(Shootdown, PoisonsInFlightL2MshrsWakeWithoutInstall)
{
    PhysicalMemory phys = makePhys();
    AddressSpace as(phys);
    const VmRegion r = as.mmap("d", 4 * kPageSize4K);
    const Vpn v = r.base >> kPageShift4K;

    EventQueue eq;
    L2TlbConfig cfg;
    cfg.enabled = true;
    cfg.checkInvariants = true;
    L2Tlb l2(cfg, as.pageTable(), eq, kPageShift4K);

    // A miss allocates the MSHR; the walk is now "in flight".
    unsigned woken = 0;
    const auto res = l2.access(v, 0, [&](Vpn tag, std::uint64_t frame,
                                         bool large, Cycle) {
        EXPECT_EQ(tag, v);
        EXPECT_EQ(frame, as.pageTable().translate(v)->ppn);
        EXPECT_FALSE(large);
        ++woken;
    });
    ASSERT_EQ(res.outcome, L2Tlb::Outcome::NeedWalk);
    ASSERT_TRUE(l2.mshrActive(v));

    // Shootdown mid-walk: nothing resident to drop, but the MSHR is
    // poisoned — its eventual fill must wake the waiter (the
    // translation was valid when the walk issued) yet not install.
    const Translation t = *as.pageTable().translate(v);
    EXPECT_EQ(l2.invalidateMatching(
                  [v](std::uint64_t tag) { return tag == v; }),
              0u);
    EXPECT_EQ(l2.poisonedMshrs(), 1u);
    ASSERT_TRUE(l2.mshrActive(v));

    l2.fill(v, t, 50);
    eq.runUntil(100);
    EXPECT_EQ(woken, 1u);
    EXPECT_FALSE(l2.probe(v)) << "poisoned fill must not install";
    EXPECT_EQ(l2.poisonedMshrs(), 0u);
    EXPECT_FALSE(l2.mshrActive(v));
    l2.checkEndOfKernel();
}

// ---------------------------------------------------------------------
// IOMMU demand-fault service and retry.
// ---------------------------------------------------------------------

TEST(IommuFaults, MinorFaultServicesThenRetriesAndLaterHits)
{
    PhysicalMemory phys = makePhys();
    OsConfig os;
    ProcessManager pm(phys, os);
    Process &p = pm.create("tenant", false, /*lazy=*/true);
    const VmRegion r = p.as.mmap("d", 8 * kPageSize4K);
    const Vpn v = r.base >> kPageShift4K;

    MemorySystem mem((MemorySystemConfig()));
    EventQueue eq;
    IommuConfig icfg;
    icfg.checkInvariants = true;
    Iommu iommu(icfg, p.as, mem, eq);
    iommu.attachProcesses(&pm);

    ASSERT_FALSE(p.as.pageTable().translate(v).has_value());

    // First touch: reserved-but-unmapped raises a minor fault. The
    // handler's latency elapses, the page lands, the walk retries.
    Cycle done_at = 0;
    std::uint64_t frame = 0;
    iommu.translate(asidKey(p.asid, v), 0,
                    [&](std::uint64_t f, Cycle c) {
                        frame = f;
                        done_at = c;
                    });
    eq.runUntil(1'000'000);
    ASSERT_GT(done_at, 0u);
    EXPECT_GE(done_at, os.faultLatency);
    EXPECT_EQ(pm.faults(), 1u);
    ASSERT_TRUE(p.as.pageTable().translate(v).has_value());
    EXPECT_EQ(frame, p.as.pageTable().translate(v)->ppn);

    // Second touch: resident in the IOMMU TLB, no second fault.
    Cycle hit_at = 0;
    iommu.translate(asidKey(p.asid, v), done_at + 10,
                    [&](std::uint64_t f, Cycle c) {
                        EXPECT_EQ(f, frame);
                        hit_at = c;
                    });
    EXPECT_GT(hit_at, 0u) << "TLB hits complete synchronously";
    EXPECT_LT(hit_at - (done_at + 10), os.faultLatency);
    EXPECT_EQ(pm.faults(), 1u);
    iommu.checkEndOfKernel();
}

TEST(IommuFaults, ConcurrentProcessesFaultIntoTheirOwnSpaces)
{
    PhysicalMemory phys = makePhys();
    ProcessManager pm(phys);
    Process &a = pm.create("a", false, /*lazy=*/true);
    Process &b = pm.create("b", false, /*lazy=*/true);
    const VmRegion ra = a.as.mmap("d", 4 * kPageSize4K);
    const VmRegion rb = b.as.mmap("d", 4 * kPageSize4K);
    ASSERT_EQ(ra.base, rb.base);
    const Vpn v = ra.base >> kPageShift4K;

    MemorySystem mem((MemorySystemConfig()));
    EventQueue eq;
    IommuConfig icfg;
    icfg.checkInvariants = true;
    Iommu iommu(icfg, a.as, mem, eq);
    iommu.attachProcesses(&pm);

    // Same local VPN, both processes, in flight together.
    std::uint64_t fa = 0, fb = 0;
    iommu.translate(asidKey(a.asid, v), 0,
                    [&](std::uint64_t f, Cycle) { fa = f; });
    iommu.translate(asidKey(b.asid, v), 0,
                    [&](std::uint64_t f, Cycle) { fb = f; });
    eq.runUntil(1'000'000);

    EXPECT_EQ(pm.faults(), 2u);
    EXPECT_EQ(fa, a.as.pageTable().translate(v)->ppn);
    EXPECT_EQ(fb, b.as.pageTable().translate(v)->ppn);
    EXPECT_NE(fa, fb) << "private frames despite the shared VPN";
    EXPECT_TRUE(iommu.tlb().probe(asidKey(a.asid, v)));
    EXPECT_TRUE(iommu.tlb().probe(asidKey(b.asid, v)));
    iommu.checkEndOfKernel();
}

// ---------------------------------------------------------------------
// Context-switch accounting.
// ---------------------------------------------------------------------

TEST(ContextSwitch, ChargedOnlyBetweenDifferentProcesses)
{
    PhysicalMemory phys = makePhys();
    OsConfig os;
    os.switchPenalty = 1234;
    ProcessManager pm(phys, os);
    Process &a = pm.create("a");
    Process &b = pm.create("b");

    EXPECT_EQ(pm.noteContextSwitch(a.asid, a.asid), 0u);
    EXPECT_EQ(pm.contextSwitches(), 0u);
    EXPECT_EQ(pm.noteContextSwitch(a.asid, b.asid), os.switchPenalty);
    EXPECT_EQ(pm.noteContextSwitch(b.asid, a.asid), os.switchPenalty);
    EXPECT_EQ(pm.contextSwitches(), 2u);
}

// ---------------------------------------------------------------------
// Full-stack acceptance: two overlapping tenants, armed checker.
// ---------------------------------------------------------------------

TEST(MultiTenantRun, OverlappingTenantsTimeShareCleanlyUnderTheChecker)
{
    MultiTenantConfig cfg = defaultMultiTenant(/*scale=*/0.02);
    cfg.system.numCores = 2;
    cfg.system.checkInvariants = true;
    cfg.params.seed = 42;
    cfg.blocksPerSlice = 2;

    const MultiTenantResult res = runMultiTenant(cfg);

    ASSERT_EQ(res.tenants.size(), 2u);
    EXPECT_EQ(res.tenants[0].asid, 1u);
    EXPECT_EQ(res.tenants[1].asid, 2u);
    for (const TenantResult &t : res.tenants) {
        EXPECT_GT(t.blocks, 0u) << t.name;
        EXPECT_GT(t.instructions, 0u) << t.name;
    }
    EXPECT_GT(res.slices, 2u) << "both tenants actually interleaved";
    EXPECT_GT(res.contextSwitches, 0u);
    EXPECT_GT(res.faults, 0u) << "demand paging happened";
    EXPECT_GT(res.shootdowns, 0u) << "process exit stormed the TLBs";
    EXPECT_GT(res.iommuLookups, 0u);
    EXPECT_GT(res.totalCycles, 0u);
}

TEST(MultiTenantRun, BudgetGuardFiresThroughTheSharedCycleLoop)
{
    // Slices run on the same cycle loop as GpuTop::run, so a budget
    // too small for the tenants trips the same guard (fatal, exit 1).
    MultiTenantConfig cfg = defaultMultiTenant(/*scale=*/0.02);
    cfg.system.numCores = 2;
    cfg.system.maxCycles = 50;
    cfg.blocksPerSlice = 2;
    EXPECT_EXIT(runMultiTenant(cfg), ::testing::ExitedWithCode(1),
                "simulation exceeded 50 cycles");
}

TEST(MultiTenantRun, MemTraceCaptureIsRejected)
{
    // A memory trace replays one process's kernel; a multi-tenant run
    // must refuse to capture one rather than write a file that cannot
    // replay.
    MultiTenantConfig cfg = defaultMultiTenant(/*scale=*/0.02);
    cfg.system.numCores = 1;
    const std::string path =
        ::testing::TempDir() + "multi_tenant_reject.gmt";
    EXPECT_EXIT(
        {
            MemTraceWriter writer(path);
            runMultiTenant(cfg, {.memtrace = &writer});
        },
        ::testing::ExitedWithCode(1), "not supported on multi-tenant runs");
    std::remove(path.c_str());
}
