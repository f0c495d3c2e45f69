/**
 * @file
 * Unit tests for the warp schedulers: the CCWS / TA-CCWS / TCWS
 * throttle (victim tag arrays, lost-locality scoring, throttling
 * dynamics, decay and warp-reset behaviour) and the issue order each
 * scheduler produces, checked against the per-slot picks it replaced.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>

#include "core/experiment.hh"
#include "core/presets.hh"
#include "gpu/issue.hh"
#include "mmu/tlb.hh"
#include "sched/ccws.hh"

using namespace gpummu;

namespace {

constexpr unsigned kWarps = 8;

CcwsConfig
smallCcws()
{
    CcwsConfig cfg;
    cfg.vtaEntriesPerWarp = 4;
    cfg.vtaWays = 4;
    cfg.vtaHitScore = 100;
    cfg.scoreCap = 200;
    cfg.cutoff = 250;
    cfg.minAllowed = 2;
    cfg.halfLife = 1000;
    cfg.updateInterval = 1;
    return cfg;
}

/** Evict line for warp w, then miss on it again: one VTA hit. */
void
lostLocalityEvent(Ccws &ccws, int warp, PhysAddr line)
{
    ccws.onL1Eviction(line, warp);
    ccws.onL1Miss(warp, line, /*tlb_missed=*/false);
}

} // namespace

TEST(Ccws, NoThrottlingWithoutLostLocality)
{
    Ccws ccws(smallCcws(), kWarps);
    ccws.tick(0);
    for (int w = 0; w < 8; ++w)
        EXPECT_TRUE(ccws.mayIssueMem(w));
}

TEST(Ccws, MissWithoutPriorEvictionDoesNotScore)
{
    Ccws ccws(smallCcws(), kWarps);
    ccws.onL1Miss(3, 111, false);
    EXPECT_EQ(ccws.score(3), 0u);
}

TEST(Ccws, VtaHitRaisesScore)
{
    Ccws ccws(smallCcws(), kWarps);
    lostLocalityEvent(ccws, 3, 111);
    EXPECT_EQ(ccws.score(3), 100u);
}

TEST(Ccws, VtaIsPerWarp)
{
    Ccws ccws(smallCcws(), kWarps);
    ccws.onL1Eviction(111, /*alloc_warp=*/3);
    // A different warp missing on the same line must not score.
    ccws.onL1Miss(4, 111, false);
    EXPECT_EQ(ccws.score(4), 0u);
}

TEST(Ccws, ScoreSaturatesAtCap)
{
    Ccws ccws(smallCcws(), kWarps);
    for (int i = 0; i < 10; ++i)
        lostLocalityEvent(ccws, 0, 100 + i);
    EXPECT_EQ(ccws.score(0), 200u);
}

TEST(Ccws, ThrottlingKeepsHighScorersEligible)
{
    Ccws ccws(smallCcws(), kWarps);
    // Warps 0 and 1 lose locality heavily; total exceeds the cutoff.
    for (int i = 0; i < 5; ++i) {
        lostLocalityEvent(ccws, 0, 100 + i);
        lostLocalityEvent(ccws, 1, 200 + i);
    }
    ccws.tick(1);
    EXPECT_TRUE(ccws.mayIssueMem(0));
    EXPECT_TRUE(ccws.mayIssueMem(1));
    // At least one cold warp must now be blocked.
    int blocked = 0;
    for (int w = 2; w < 8; ++w)
        blocked += !ccws.mayIssueMem(w);
    EXPECT_GT(blocked, 0);
}

TEST(Ccws, MinAllowedPoolIsGuaranteed)
{
    Ccws ccws(smallCcws(), kWarps);
    for (int w = 0; w < 8; ++w) {
        for (int i = 0; i < 3; ++i)
            lostLocalityEvent(ccws, w, w * 100 + i);
    }
    ccws.tick(1);
    int allowed = 0;
    for (int w = 0; w < 8; ++w)
        allowed += ccws.mayIssueMem(w);
    EXPECT_GE(allowed, 2);
    EXPECT_LT(allowed, 8);
}

TEST(Ccws, ScoresDecayOverTime)
{
    auto cfg = smallCcws();
    Ccws ccws(cfg, kWarps);
    lostLocalityEvent(ccws, 0, 42);
    EXPECT_EQ(ccws.score(0), 100u);
    ccws.tick(cfg.halfLife);
    EXPECT_EQ(ccws.score(0), 50u);
    ccws.tick(3 * cfg.halfLife);
    EXPECT_LE(ccws.score(0), 13u);
}

TEST(Ccws, ThrottleReleasesAfterDecay)
{
    auto cfg = smallCcws();
    Ccws ccws(cfg, kWarps);
    for (int i = 0; i < 5; ++i) {
        lostLocalityEvent(ccws, 0, 100 + i);
        lostLocalityEvent(ccws, 1, 200 + i);
    }
    ccws.tick(1);
    int blocked = 0;
    for (int w = 0; w < 8; ++w)
        blocked += !ccws.mayIssueMem(w);
    ASSERT_GT(blocked, 0);
    // Several half-lives later the total falls under the cutoff.
    ccws.tick(10 * cfg.halfLife);
    for (int w = 0; w < 8; ++w)
        EXPECT_TRUE(ccws.mayIssueMem(w));
}

TEST(Ccws, WarpResetDropsScoreAndVta)
{
    Ccws ccws(smallCcws(), kWarps);
    for (int i = 0; i < 5; ++i)
        lostLocalityEvent(ccws, 0, 100 + i);
    ASSERT_GT(ccws.score(0), 0u);
    ccws.onWarpReset(0);
    EXPECT_EQ(ccws.score(0), 0u);
    // Old eviction records are gone: a new miss does not score.
    ccws.onL1Miss(0, 104, false);
    EXPECT_EQ(ccws.score(0), 0u);
}

TEST(TaCcws, TlbMissWeightMultipliesScore)
{
    auto cfg = smallCcws();
    cfg.tlbMissWeight = 4;
    cfg.scoreCap = 10000;
    Ccws ta(cfg, kWarps);
    ta.onL1Eviction(5, 0);
    ta.onL1Miss(0, 5, /*tlb_missed=*/true);
    EXPECT_EQ(ta.score(0), 400u);
    ta.onL1Eviction(6, 0);
    ta.onL1Miss(0, 6, /*tlb_missed=*/false);
    EXPECT_EQ(ta.score(0), 500u);
}

namespace {

TcwsConfig
smallTcws()
{
    TcwsConfig cfg;
    cfg.vtaEntriesPerWarp = 4;
    cfg.vtaWays = 4;
    cfg.vtaHitScore = 100;
    cfg.scoreCap = 400;
    cfg.cutoff = 250;
    cfg.minAllowed = 2;
    cfg.halfLife = 1000;
    cfg.updateInterval = 1;
    cfg.lruWeights = {1, 2, 4, 8};
    return cfg;
}

} // namespace

TEST(Tcws, TlbVictimHitScores)
{
    Tcws tcws(smallTcws(), kWarps);
    tcws.onTlbEviction(77, /*alloc_warp=*/2);
    tcws.onTlbMiss(2, 77);
    EXPECT_EQ(tcws.score(2), 100u);
    // Other warps' misses on the page do not score warp 2's VTA.
    tcws.onTlbEviction(78, 2);
    tcws.onTlbMiss(3, 78);
    EXPECT_EQ(tcws.score(3), 0u);
}

TEST(Tcws, LruDepthWeightsScoreHits)
{
    Tcws tcws(smallTcws(), kWarps);
    tcws.onTlbHit(1, 5, 0);
    EXPECT_EQ(tcws.score(1), 1u);
    tcws.onTlbHit(1, 5, 3);
    EXPECT_EQ(tcws.score(1), 9u);
    // Depths beyond 3 clamp to the deepest weight.
    tcws.onTlbHit(1, 5, 7);
    EXPECT_EQ(tcws.score(1), 17u);
}

TEST(Tcws, ZeroWeightsDisableHitScoring)
{
    auto cfg = smallTcws();
    cfg.lruWeights = {0, 0, 0, 0};
    Tcws tcws(cfg, kWarps);
    tcws.onTlbHit(1, 5, 3);
    EXPECT_EQ(tcws.score(1), 0u);
}

TEST(Tcws, ThrottlesLikeCcws)
{
    Tcws tcws(smallTcws(), kWarps);
    for (int i = 0; i < 4; ++i) {
        tcws.onTlbEviction(100 + i, 0);
        tcws.onTlbMiss(0, 100 + i);
        tcws.onTlbEviction(200 + i, 1);
        tcws.onTlbMiss(1, 200 + i);
    }
    tcws.tick(1);
    EXPECT_TRUE(tcws.mayIssueMem(0));
    EXPECT_TRUE(tcws.mayIssueMem(1));
    int blocked = 0;
    for (int w = 2; w < 8; ++w)
        blocked += !tcws.mayIssueMem(w);
    EXPECT_GT(blocked, 0);
}

TEST(Tcws, ShootdownFlushFeedsVictimTagArray)
{
    // Wire a real TLB's eviction listener to TCWS and flush it: every
    // flushed entry must land in its allocating warp's VTA so a
    // post-shootdown re-miss scores as lost locality, exactly like a
    // capacity eviction would.
    Tcws tcws(smallTcws(), kWarps);
    TlbConfig tcfg;
    tcfg.entries = 8;
    tcfg.ways = 4;
    Tlb tlb(tcfg);
    tlb.setEvictionListener(
        [&](Vpn v, int w) { tcws.onTlbEviction(v, w); });
    tlb.fill(50, Translation{1, false}, /*alloc_warp=*/2);
    tlb.fill(51, Translation{2, false}, /*alloc_warp=*/3);
    tlb.flush();
    tcws.onTlbMiss(2, 50);
    tcws.onTlbMiss(3, 51);
    EXPECT_EQ(tcws.score(2), 100u);
    EXPECT_EQ(tcws.score(3), 100u);
}

TEST(Tcws, WarpResetClearsState)
{
    Tcws tcws(smallTcws(), kWarps);
    tcws.onTlbEviction(9, 4);
    tcws.onTlbMiss(4, 9);
    ASSERT_GT(tcws.score(4), 0u);
    tcws.onWarpReset(4);
    EXPECT_EQ(tcws.score(4), 0u);
}

// ------------------------------------------------------ Issue order

namespace {

/** Drive @p sched through @p ticks width-1 issue passes over @p ready
 *  and return the warps issued. */
std::vector<int>
issueOneEach(WarpScheduler &sched, const std::vector<int> &ready,
             int ticks)
{
    std::vector<int> issued;
    for (int t = 0; t < ticks; ++t) {
        std::vector<int> order = ready;
        sched.order(order);
        issued.push_back(order.front());
        sched.consumed(order.front());
    }
    return issued;
}

} // namespace

TEST(Schedulers, RoundRobinCyclesFairly)
{
    LooseRoundRobin rr(4);
    // Loose round robin starts after slot 0 (the reset value).
    EXPECT_EQ(issueOneEach(rr, {0, 1, 2, 3}, 8),
              (std::vector<int>{1, 2, 3, 0, 1, 2, 3, 0}));
}

TEST(Schedulers, RoundRobinOrderStartsAfterLastConsumed)
{
    LooseRoundRobin rr(8);
    std::vector<int> ready = {0, 2, 3, 5, 7};
    rr.order(ready);
    EXPECT_EQ(ready, (std::vector<int>{2, 3, 5, 7, 0}));
    rr.consumed(3); // the pass reached 3, issued or skipped
    ready = {0, 2, 3, 5, 7};
    rr.order(ready);
    EXPECT_EQ(ready, (std::vector<int>{5, 7, 0, 2, 3}));
    rr.consumed(7);
    ready = {1, 6};
    rr.order(ready);
    EXPECT_EQ(ready, (std::vector<int>{1, 6})); // wraps past 7
}

TEST(Schedulers, GreedyThenOldestPutsGreedyWarpFirst)
{
    GreedyThenOldest gto;
    std::vector<int> ready = {2, 5, 7};
    gto.order(ready);
    EXPECT_EQ(ready, (std::vector<int>{2, 5, 7})); // oldest first
    gto.consumed(5);
    ready = {1, 2, 5, 7};
    gto.order(ready);
    EXPECT_EQ(ready, (std::vector<int>{5, 1, 2, 7})); // greedy, then oldest
    ready = {1, 7};
    gto.order(ready);
    EXPECT_EQ(ready, (std::vector<int>{1, 7})); // greedy not ready
}

TEST(Schedulers, ThrottlesOrderLikeRoundRobin)
{
    Ccws ccws(smallCcws(), kWarps);
    Tcws tcws(smallTcws(), kWarps);
    for (WarpScheduler *s : {static_cast<WarpScheduler *>(&ccws),
                             static_cast<WarpScheduler *>(&tcws)}) {
        std::vector<int> ready = {0, 1, 4, 6};
        s->order(ready);
        EXPECT_EQ(ready, (std::vector<int>{1, 4, 6, 0}));
        s->consumed(4);
        ready = {0, 1, 4, 6};
        s->order(ready);
        EXPECT_EQ(ready, (std::vector<int>{6, 0, 1, 4}));
    }
}

namespace {

/** The per-slot loose round robin pick the issue pass replaced. */
struct PickLrr
{
    unsigned numWarps;
    unsigned last = 0;

    int
    pick(const std::vector<int> &issuable)
    {
        int best = -1;
        unsigned best_dist = numWarps + 1;
        for (int w : issuable) {
            const unsigned dist =
                (static_cast<unsigned>(w) + numWarps - last - 1) %
                numWarps;
            if (dist < best_dist) {
                best_dist = dist;
                best = w;
            }
        }
        last = static_cast<unsigned>(best);
        return best;
    }
};

/** The per-slot greedy-then-oldest pick the issue pass replaced. */
struct PickGto
{
    int greedy = -1;

    int
    pick(const std::vector<int> &issuable)
    {
        for (int w : issuable) {
            if (w == greedy)
                return w;
        }
        int best = issuable.front();
        for (int w : issuable)
            best = std::min(best, w);
        greedy = best;
        return best;
    }
};

enum class Kind
{
    Done, ///< no instruction left: retires
    Alu,
    Mem,
};

struct PassResult
{
    std::vector<int> issued;
    std::vector<int> retired;
    bool operator==(const PassResult &) const = default;
};

/** The issue loop as it was: one pick and one erase per slot. */
template <typename Pick>
PassResult
perSlotPass(Pick &ref, std::vector<int> ready, unsigned width,
            const std::vector<Kind> &kind)
{
    PassResult r;
    unsigned issued = 0;
    bool mem_issued = false;
    while (issued < width && !ready.empty()) {
        const int w = ref.pick(ready);
        ready.erase(std::remove(ready.begin(), ready.end(), w),
                    ready.end());
        const Kind k = kind[static_cast<std::size_t>(w)];
        if (k == Kind::Done) {
            r.retired.push_back(w);
            continue;
        }
        if (k == Kind::Mem && mem_issued)
            continue;
        r.issued.push_back(w);
        mem_issued = mem_issued || k == Kind::Mem;
        ++issued;
    }
    return r;
}

PassResult
orderedPass(WarpScheduler &sched, std::vector<int> ready,
            unsigned width, const std::vector<Kind> &kind)
{
    static const Instruction alu{Opcode::Alu};
    static const Instruction load{Opcode::Load};
    PassResult r;
    issuePass(
        sched, ready, width,
        [&](int w) -> const Instruction * {
            switch (kind[static_cast<std::size_t>(w)]) {
              case Kind::Done: return nullptr;
              case Kind::Alu: return &alu;
              case Kind::Mem: return &load;
            }
            return nullptr;
        },
        [&](int w) { r.retired.push_back(w); },
        [&](int w) { r.issued.push_back(w); });
    return r;
}

/**
 * Random ticks (ready lists of 1-64 of 64 warp slots, widths 1-4,
 * random ALU/memory/finished mixes) from a random scheduler state:
 * the ordered pass must issue and retire exactly what repeated
 * per-slot picks did, and leave the scheduler in the same state.
 */
template <typename Sched, typename Pick>
void
checkAgainstPerSlotPicks(Sched sched, Pick ref, std::mt19937 &rng)
{
    constexpr int kSlots = 64;
    std::vector<Kind> kind(kSlots);
    for (int tick = 0; tick < 5000; ++tick) {
        std::vector<int> ready;
        const double density =
            std::uniform_real_distribution<>(0.02, 1.0)(rng);
        const double mem_share =
            std::uniform_real_distribution<>(0.0, 1.0)(rng);
        for (int w = 0; w < kSlots; ++w) {
            if (std::uniform_real_distribution<>(0.0, 1.0)(rng) <
                density)
                ready.push_back(w);
            const double u =
                std::uniform_real_distribution<>(0.0, 1.0)(rng);
            kind[static_cast<std::size_t>(w)] =
                u < 0.03 ? Kind::Done
                         : (u < mem_share ? Kind::Mem : Kind::Alu);
        }
        if (ready.empty())
            ready.push_back(std::uniform_int_distribution<>(
                0, kSlots - 1)(rng));
        const unsigned width =
            std::uniform_int_distribution<unsigned>(1, 4)(rng);
        const PassResult want = perSlotPass(ref, ready, width, kind);
        const PassResult got = orderedPass(sched, ready, width, kind);
        ASSERT_EQ(got, want) << "tick " << tick << " width " << width;

        // The state left behind decides the next order's head.
        std::vector<int> all(kSlots);
        std::iota(all.begin(), all.end(), 0);
        Sched probe = sched;
        Pick probe_ref = ref;
        probe.order(all);
        ASSERT_EQ(all.front(), probe_ref.pick(all)) << "tick " << tick;
    }
}

} // namespace

TEST(Schedulers, OrderedPassMatchesPerSlotPicks)
{
    std::mt19937 rng(20140301);
    for (int start = 0; start < 64; start += 7) {
        LooseRoundRobin lrr(64);
        lrr.consumed(start);
        PickLrr ref{64, static_cast<unsigned>(start)};
        checkAgainstPerSlotPicks(lrr, ref, rng);

        GreedyThenOldest gto;
        gto.consumed(start);
        checkAgainstPerSlotPicks(gto, PickGto{start}, rng);
    }
    // From the reset state, where GTO has no greedy warp yet.
    checkAgainstPerSlotPicks(GreedyThenOldest{}, PickGto{}, rng);
}

// ------------------------------------------------ Whole-GPU presets

TEST(ThrottlePresets, SixtyFourWarpSlotsRunToCompletion)
{
    // The throttles size their per-warp state from the core's warp
    // slots; a separate, smaller warp count once indexed past it.
    WorkloadParams params;
    params.scale = 0.05;
    for (SystemConfig cfg :
         {presets::ccws(presets::augmentedTlb()),
          presets::taCcws(presets::augmentedTlb(), 4),
          presets::tcws(presets::augmentedTlb(), 8, {1, 2, 4, 8})}) {
        cfg.numCores = 1;
        cfg.core.numWarpSlots = 64;
        cfg.checkInvariants = true;
        const RunStats stats = runConfig(BenchmarkId::Bfs, cfg, params);
        EXPECT_GT(stats.instructions, 0u) << cfg.name;
    }
}
