/**
 * @file
 * Unit tests for the warp schedulers: the CCWS / TA-CCWS / TCWS
 * throttle (victim tag arrays, lost-locality scoring, throttling
 * dynamics, decay and warp-reset behaviour), the issue order each
 * scheduler produces, and the core's mask issue step checked against
 * the list pass it replaced.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <numeric>
#include <ostream>
#include <random>

#include "core/experiment.hh"
#include "core/presets.hh"
#include "gpu/issue.hh"
#include "mmu/tlb.hh"
#include "sched/ccws.hh"

using namespace gpummu;

namespace {

constexpr unsigned kWarps = 8;

/** May @p warp issue a memory instruction under @p sched's gate? */
bool
mayIssueMem(const WarpScheduler &sched, int warp)
{
    return (sched.memGate() >> warp & 1) != 0;
}

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
        EXPECT_TRUE(mayIssueMem(ccws, w));
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
    EXPECT_TRUE(mayIssueMem(ccws, 0));
    EXPECT_TRUE(mayIssueMem(ccws, 1));
    // At least one cold warp must now be blocked.
    int blocked = 0;
    for (int w = 2; w < 8; ++w)
        blocked += !mayIssueMem(ccws, w);
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
        allowed += mayIssueMem(ccws, w);
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
        blocked += !mayIssueMem(ccws, w);
    ASSERT_GT(blocked, 0);
    // Several half-lives later the total falls under the cutoff.
    ccws.tick(10 * cfg.halfLife);
    for (int w = 0; w < 8; ++w)
        EXPECT_TRUE(mayIssueMem(ccws, w));
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
    EXPECT_TRUE(mayIssueMem(tcws, 0));
    EXPECT_TRUE(mayIssueMem(tcws, 1));
    int blocked = 0;
    for (int w = 2; w < 8; ++w)
        blocked += !mayIssueMem(tcws, w);
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

std::uint64_t
maskOf(std::initializer_list<int> ids)
{
    std::uint64_t m = 0;
    for (int id : ids)
        m |= std::uint64_t(1) << id;
    return m;
}

/** The warp ids of @p order in issue order. */
std::vector<int>
walk(const WarpOrder &order)
{
    std::vector<int> ids;
    for (std::uint64_t seg : {order.first, order.then}) {
        for (; seg != 0; seg &= seg - 1)
            ids.push_back(std::countr_zero(seg));
    }
    return ids;
}

/** Drive @p sched through @p ticks width-1 issue passes over @p ready
 *  and return the warps issued. */
std::vector<int>
issueOneEach(WarpScheduler &sched, std::uint64_t ready, int ticks)
{
    std::vector<int> issued;
    for (int t = 0; t < ticks; ++t) {
        const int first = walk(sched.order(ready)).front();
        issued.push_back(first);
        sched.consumed(first);
    }
    return issued;
}

} // namespace

TEST(Schedulers, RoundRobinCyclesFairly)
{
    LooseRoundRobin rr(4);
    // Loose round robin starts after slot 0 (the reset value).
    EXPECT_EQ(issueOneEach(rr, maskOf({0, 1, 2, 3}), 8),
              (std::vector<int>{1, 2, 3, 0, 1, 2, 3, 0}));
}

TEST(Schedulers, RoundRobinOrderStartsAfterLastConsumed)
{
    LooseRoundRobin rr(8);
    const std::uint64_t ready = maskOf({0, 2, 3, 5, 7});
    EXPECT_EQ(walk(rr.order(ready)), (std::vector<int>{2, 3, 5, 7, 0}));
    rr.consumed(3); // the pass reached 3, issued or skipped
    EXPECT_EQ(walk(rr.order(ready)), (std::vector<int>{5, 7, 0, 2, 3}));
    rr.consumed(7);
    EXPECT_EQ(walk(rr.order(maskOf({1, 6}))),
              (std::vector<int>{1, 6})); // wraps past 7
}

TEST(Schedulers, GreedyThenOldestPutsGreedyWarpFirst)
{
    GreedyThenOldest gto;
    EXPECT_EQ(walk(gto.order(maskOf({2, 5, 7}))),
              (std::vector<int>{2, 5, 7})); // oldest first
    gto.consumed(5);
    EXPECT_EQ(walk(gto.order(maskOf({1, 2, 5, 7}))),
              (std::vector<int>{5, 1, 2, 7})); // greedy, then oldest
    EXPECT_EQ(walk(gto.order(maskOf({1, 7}))),
              (std::vector<int>{1, 7})); // greedy not ready
}

TEST(Schedulers, ThrottlesOrderLikeRoundRobin)
{
    Ccws ccws(smallCcws(), kWarps);
    Tcws tcws(smallTcws(), kWarps);
    for (WarpScheduler *s : {static_cast<WarpScheduler *>(&ccws),
                             static_cast<WarpScheduler *>(&tcws)}) {
        const std::uint64_t ready = maskOf({0, 1, 4, 6});
        EXPECT_EQ(walk(s->order(ready)), (std::vector<int>{1, 4, 6, 0}));
        s->consumed(4);
        EXPECT_EQ(walk(s->order(ready)), (std::vector<int>{6, 0, 1, 4}));
    }
}

namespace {

/** Loose round robin as it ordered an ascending ready list. */
struct ListLrr
{
    int last = 0;

    void
    order(std::vector<int> &ready) const
    {
        std::rotate(ready.begin(),
                    std::upper_bound(ready.begin(), ready.end(), last),
                    ready.end());
    }

    void consumed(int w) { last = w; }
};

/** Greedy-then-oldest as it ordered an ascending ready list. */
struct ListGto
{
    int greedy = -1;

    void
    order(std::vector<int> &ready) const
    {
        auto it = std::lower_bound(ready.begin(), ready.end(), greedy);
        if (it != ready.end() && *it == greedy)
            std::rotate(ready.begin(), it, it + 1);
    }

    void consumed(int w) { greedy = w; }
};

/** The issue pass over an ordered ready list that the mask pass
 *  replaced, as it was. */
template <typename List, typename Next, typename Retire, typename Issue>
unsigned
listIssuePass(List &sched, std::vector<int> &ready, unsigned width,
              Next &&next, Retire &&retire, Issue &&issue)
{
    if (ready.empty())
        return 0;
    sched.order(ready);
    unsigned issued = 0;
    bool mem_issued = false;
    std::size_t n = 0;
    while (n < ready.size() && issued < width) {
        const int id = ready[n++];
        const Instruction *in = next(id);
        if (in == nullptr) {
            retire(id);
            continue;
        }
        const bool is_mem =
            in->op == Opcode::Load || in->op == Opcode::Store;
        if (is_mem && mem_issued)
            continue;
        issue(id);
        mem_issued = mem_issued || is_mem;
        ++issued;
    }
    sched.consumed(ready[n - 1]);
    return issued;
}

struct PassResult
{
    std::vector<int> issued;
    std::vector<int> retired;
    std::uint64_t held = 0; ///< memory warps the gate kept back
    bool operator==(const PassResult &) const = default;
};

std::ostream &
operator<<(std::ostream &os, const PassResult &r)
{
    os << "issued {";
    for (int w : r.issued)
        os << ' ' << w;
    os << " } retired {";
    for (int w : r.retired)
        os << ' ' << w;
    return os << " } held 0x" << std::hex << r.held << std::dec;
}

/**
 * One core tick as it was: scan the due warps in slot order, retiring
 * those in @p done (onWarpReset on @p gate) and holding the memory
 * warps @p gate refuses, then the list pass ordered by @p list.
 */
template <typename List>
PassResult
listTick(List &list, WarpScheduler &gate, std::uint64_t due,
         std::uint64_t done, std::uint64_t mem, unsigned width)
{
    static const Instruction alu{Opcode::Alu};
    static const Instruction load{Opcode::Load};
    PassResult r;
    std::vector<int> ready;
    for (std::uint64_t m = due; m != 0; m &= m - 1) {
        const int w = std::countr_zero(m);
        const std::uint64_t bit = std::uint64_t(1) << w;
        if (done & bit) {
            r.retired.push_back(w);
            gate.onWarpReset(w);
        } else if ((mem & bit) && !mayIssueMem(gate, w)) {
            r.held |= bit;
        } else {
            ready.push_back(w);
        }
    }
    listIssuePass(
        list, ready, width,
        [&](int w) -> const Instruction * {
            const std::uint64_t bit = std::uint64_t(1) << w;
            if (done & bit)
                return nullptr;
            return (mem & bit) ? &load : &alu;
        },
        [&](int w) { r.retired.push_back(w); },
        [&](int w) { r.issued.push_back(w); });
    return r;
}

/** The same tick on masks: retireAndGate, then the mask pass. */
PassResult
maskTick(WarpScheduler &sched, std::uint64_t due, std::uint64_t done,
         std::uint64_t mem, unsigned width)
{
    PassResult r;
    done &= due;
    mem &= due;
    r.held = mem & ~retireAndGate(sched, done, mem, [&](int w) {
                 r.retired.push_back(w);
                 sched.onWarpReset(w);
             });
    issuePass(sched, due & ~done & ~r.held, mem, width,
              [&](int w) { r.issued.push_back(w); });
    return r;
}

/** A score event for warp @p w on tag @p tag; @p how picks its kind. */
using Feed = void (*)(WarpScheduler &, int w, std::uint64_t tag,
                      unsigned how);

void
feedCcws(WarpScheduler &s, int w, std::uint64_t tag, unsigned how)
{
    auto &ccws = static_cast<Ccws &>(s);
    ccws.onL1Eviction(tag, w);
    ccws.onL1Miss(w, tag, (how & 1) != 0);
}

void
feedTcws(WarpScheduler &s, int w, std::uint64_t tag, unsigned how)
{
    auto &tcws = static_cast<Tcws &>(s);
    if (how & 1) {
        tcws.onTlbEviction(tag, w);
        tcws.onTlbMiss(w, tag);
    } else {
        tcws.onTlbHit(w, tag, (how >> 1) & 3);
    }
}

/**
 * @p ticks random ticks (due masks of 1-64 of 64 warp slots, widths
 * 1-4, random ALU/memory/finished mixes) from the schedulers' state: the
 * mask step on @p sched must retire, hold and issue exactly what the
 * list tick did with @p list ordering and @p gate gating, and leave the
 * same order and gate behind. @p feed, when set, sends both
 * throttles the same score events every tick, so the gate throttles
 * and a retiring warp's reset can change it mid-scan.
 */
template <typename List>
void
checkAgainstListPass(WarpScheduler &sched, List list, WarpScheduler &gate,
                     Feed feed, std::mt19937 &rng, int ticks = 5000)
{
    constexpr int kSlots = 64;
    auto uniform = [&rng](double lo, double hi) {
        return std::uniform_real_distribution<>(lo, hi)(rng);
    };
    std::uint64_t tag = 0;
    for (int tick = 0; tick < ticks; ++tick) {
        if (feed != nullptr) {
            const int events = std::uniform_int_distribution<>(0, 3)(rng);
            for (int e = 0; e < events; ++e) {
                const int w =
                    std::uniform_int_distribution<>(0, kSlots - 1)(rng);
                const unsigned how = static_cast<unsigned>(rng());
                ++tag;
                feed(sched, w, tag, how);
                feed(gate, w, tag, how);
            }
        }
        sched.tick(static_cast<Cycle>(tick));
        gate.tick(static_cast<Cycle>(tick));

        const double density = uniform(0.02, 1.0);
        const double mem_share = uniform(0.0, 1.0);
        const double done_share = uniform(0.0, 0.25);
        std::uint64_t due = 0;
        std::uint64_t done = 0;
        std::uint64_t mem = 0;
        for (int w = 0; w < kSlots; ++w) {
            const std::uint64_t bit = std::uint64_t(1) << w;
            if (uniform(0.0, 1.0) < density)
                due |= bit;
            const double u = uniform(0.0, 1.0);
            if (u < done_share)
                done |= bit;
            else if (u < mem_share)
                mem |= bit;
        }
        if (due == 0) {
            due = std::uint64_t(1)
                  << std::uniform_int_distribution<>(0, kSlots - 1)(rng);
        }
        const unsigned width =
            std::uniform_int_distribution<unsigned>(1, 4)(rng);
        const PassResult want = listTick(list, gate, due, done, mem, width);
        const PassResult got = maskTick(sched, due, done, mem, width);
        ASSERT_EQ(got, want) << "tick " << tick << " width " << width;

        // The state left behind decides the next order.
        std::vector<int> all(kSlots);
        std::iota(all.begin(), all.end(), 0);
        list.order(all);
        ASSERT_EQ(walk(sched.order(~std::uint64_t(0))), all)
            << "tick " << tick;
        ASSERT_EQ(sched.memGate(), gate.memGate()) << "tick " << tick;
    }
}

/** A throttle that moves often: scores spread by decay and weights,
 *  and few warps allowed at once. */
template <typename Config>
Config
busyThrottle(Config cfg)
{
    cfg.halfLife = 64;
    cfg.scoreCap = 400;
    return cfg;
}

} // namespace

TEST(Schedulers, MaskPassMatchesListPass)
{
    std::mt19937 rng(20140301);
    LooseRoundRobin no_gate(64); // a gate that holds nothing
    for (int start = 0; start < 64; start += 7) {
        LooseRoundRobin lrr(64);
        lrr.consumed(start);
        checkAgainstListPass(lrr, ListLrr{start}, no_gate, nullptr, rng);

        GreedyThenOldest gto;
        gto.consumed(start);
        checkAgainstListPass(gto, ListGto{start}, no_gate, nullptr, rng);
    }
    // From the reset state, where GTO has no greedy warp yet.
    GreedyThenOldest gto;
    checkAgainstListPass(gto, ListGto{}, no_gate, nullptr, rng);

    // The throttles: LRR order under a gate that retires can move.
    CcwsConfig ta = busyThrottle(smallCcws());
    ta.tlbMissWeight = 3;
    Ccws ccws(ta, 64), ccws_gate(ta, 64);
    checkAgainstListPass(ccws, ListLrr{}, ccws_gate, feedCcws, rng, 20000);
    Tcws tcws(busyThrottle(smallTcws()), 64),
        tcws_gate(busyThrottle(smallTcws()), 64);
    checkAgainstListPass(tcws, ListLrr{}, tcws_gate, feedTcws, rng, 20000);
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
