/**
 * @file
 * Unit tests for the page table walkers, including an exact check of
 * the paper's Figure 8 example (12 naive loads -> 7 scheduled).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <random>
#include <regex>
#include <set>
#include <sstream>
#include <tuple>
#include <utility>

#include "check/invariant_checker.hh"
#include "mem/request.hh"
#include "mem/set_assoc.hh"
#include "mmu/ptw.hh"
#include "sim/event_queue.hh"
#include "trace/trace.hh"
#include "vm/page_table.hh"
#include "vm/physical_memory.hh"

using namespace gpummu;

namespace {

Vpn
vpnOf(unsigned pml4, unsigned pdp, unsigned pd, unsigned pt)
{
    return (static_cast<Vpn>(pml4) << 27) |
           (static_cast<Vpn>(pdp) << 18) |
           (static_cast<Vpn>(pd) << 9) | pt;
}

/** (issue cycle, line) of every walk_ref event in @p sink, in
 *  recording order. */
std::vector<std::pair<Cycle, PhysAddr>>
walkRefEvents(const TraceSink &sink)
{
    std::ostringstream os;
    sink.writeChromeTrace(os);
    const std::string json = os.str();
    static const std::regex re(
        R"(\{"name":"walk_ref"[^}]*"ts":(\d+)[^}]*"args":\{"line":(\d+)\})");
    std::vector<std::pair<Cycle, PhysAddr>> refs;
    for (auto it = std::sregex_iterator(json.begin(), json.end(), re);
         it != std::sregex_iterator(); ++it)
        refs.emplace_back(std::stoull((*it)[1]), std::stoull((*it)[2]));
    return refs;
}

/** Lines of @p refs, dropping the issue cycles. */
std::vector<PhysAddr>
linesOf(const std::vector<std::pair<Cycle, PhysAddr>> &refs)
{
    std::vector<PhysAddr> lines;
    for (const auto &[ts, line] : refs)
        lines.push_back(line);
    return lines;
}

/** What one scheduled batch does: its walk_ref lines in issue order,
 *  its reference counts and its (vpn, completion cycle) pairs. */
struct BatchSchedule
{
    std::vector<PhysAddr> lines;
    std::uint64_t issued = 0;
    std::uint64_t eliminated = 0;
    std::vector<std::pair<Vpn, Cycle>> done;
};

/**
 * Reference model of one scheduled batch of @p vpns started at cycle
 * @p at on an idle pool with a fresh memory system: every reference
 * of the batch in one global (level, entry, walk) sort, then the
 * walker's timing rule (one shared issue port, walk cache, one level
 * at a time, a repeated entry issued once).
 */
BatchSchedule
globallySortedSchedule(const PageTable &pt, const std::vector<Vpn> &vpns,
                       const PtwConfig &cfg, Cycle at)
{
    struct Ref
    {
        unsigned level;
        PhysAddr entry;
        std::size_t walk;
        bool last;
    };
    std::vector<Ref> refs;
    for (std::size_t i = 0; i < vpns.size(); ++i) {
        const WalkPath path = pt.walk(vpns[i]);
        for (unsigned level = 0; level < path.levels; ++level)
            refs.push_back({level, path.entryAddrs[level], i,
                            level + 1 == path.levels});
    }
    std::sort(refs.begin(), refs.end(), [](const Ref &a, const Ref &b) {
        return std::tie(a.level, a.entry, a.walk) <
               std::tie(b.level, b.entry, b.walk);
    });

    MemorySystem mem{MemorySystemConfig{}};
    SetAssocArray<Cycle> pwc(cfg.pwcLines, cfg.pwcWays);
    Cycle port_free = 0;
    Cycle now = at;
    Cycle ready = at;
    BatchSchedule out;
    for (std::size_t i = 0; i < refs.size();) {
        const unsigned level = refs[i].level;
        Cycle level_end = now;
        for (; i < refs.size() && refs[i].level == level; ++i) {
            if (i > 0 && refs[i - 1].level == level &&
                refs[i - 1].entry == refs[i].entry) {
                ++out.eliminated;
            } else {
                const PhysAddr line = lineAddrOf(refs[i].entry);
                const Cycle issue = std::max(now, port_free);
                port_free = issue + cfg.portInterval;
                out.lines.push_back(line);
                if (const Cycle *filled = pwc.lookup(line).payload) {
                    ready = std::max(issue + cfg.pwcHitLatency, *filled);
                } else {
                    ready = mem.access(line, false, issue,
                                       AccessSource::PageWalk)
                                .readyAt;
                    pwc.insert(line, ready);
                }
                level_end = std::max(level_end, ready);
            }
            if (refs[i].last)
                out.done.emplace_back(vpns[refs[i].walk], ready);
        }
        now = level_end;
    }
    out.issued = out.lines.size();
    std::sort(out.done.begin(), out.done.end());
    return out;
}

struct PtwFixture : public ::testing::Test
{
    PtwFixture()
        : phys(1 << 18, false), pt(phys), mem(MemorySystemConfig{})
    {
    }

    PageWalkers
    make(const PtwConfig &cfg)
    {
        return PageWalkers(cfg, pt, mem, eq);
    }

    PhysicalMemory phys;
    PageTable pt;
    MemorySystem mem;
    EventQueue eq;
};

} // namespace

TEST_F(PtwFixture, SingleNaiveWalkCompletes)
{
    pt.map4K(1000, 7);
    PtwConfig cfg;
    auto w = make(cfg);
    Vpn done_vpn = 0;
    Cycle done_at = 0;
    w.requestBatch({1000}, 10, [&](Vpn v, Cycle c) {
        done_vpn = v;
        done_at = c;
    });
    eq.runUntil(1'000'000);
    EXPECT_EQ(done_vpn, 1000u);
    EXPECT_GT(done_at, 10u);
    EXPECT_EQ(w.walksCompleted(), 1u);
    EXPECT_EQ(w.refsIssued(), 4u); // four radix levels
    EXPECT_FALSE(w.busy());
}

TEST_F(PtwFixture, PaperFigure8TwelveLoadsBecomeSeven)
{
    const Vpn a = vpnOf(0xb9, 0x0c, 0xac, 0x03);
    const Vpn b = vpnOf(0xb9, 0x0c, 0xac, 0x04);
    const Vpn c = vpnOf(0xb9, 0x0c, 0xad, 0x05);
    pt.map4K(a, 1);
    pt.map4K(b, 2);
    pt.map4K(c, 3);

    // Naive: 3 walks x 4 references = 12 loads.
    {
        PtwConfig cfg;
        EventQueue eq1;
        PageWalkers w(cfg, pt, mem, eq1);
        int done = 0;
        w.requestBatch({a, b, c}, 0, [&](Vpn, Cycle) { ++done; });
        eq1.runUntil(1'000'000);
        EXPECT_EQ(done, 3);
        EXPECT_EQ(w.refsIssued(), 12u);
        EXPECT_EQ(w.refsEliminated(), 0u);
    }

    // Scheduled: PML4 and PDP collapse to one load each, the two
    // identical PD entries collapse, PT entries all issue:
    // 1 + 1 + 2 + 3 = 7 loads, 5 eliminated.
    {
        PtwConfig cfg;
        cfg.scheduling = true;
        EventQueue eq2;
        PageWalkers w(cfg, pt, mem, eq2);
        int done = 0;
        w.requestBatch({a, b, c}, 0, [&](Vpn, Cycle) { ++done; });
        eq2.runUntil(1'000'000);
        EXPECT_EQ(done, 3);
        EXPECT_EQ(w.refsIssued(), 7u);
        EXPECT_EQ(w.refsEliminated(), 5u);
        EXPECT_EQ(w.walksCompleted(), 3u);
    }
}

TEST_F(PtwFixture, ScheduledBatchFasterThanNaiveSerial)
{
    std::vector<Vpn> vpns;
    for (unsigned i = 0; i < 8; ++i) {
        vpns.push_back(vpnOf(1, 2, 3, i * 20));
        pt.map4K(vpns.back(), i);
    }
    Cycle naive_end = 0, sched_end = 0;
    {
        PtwConfig cfg;
        EventQueue eq1;
        PageWalkers w(cfg, pt, mem, eq1);
        w.requestBatch(vpns, 0, [&](Vpn, Cycle c) {
            naive_end = std::max(naive_end, c);
        });
        eq1.runUntil(10'000'000);
    }
    {
        PtwConfig cfg;
        cfg.scheduling = true;
        EventQueue eq2;
        MemorySystem mem2((MemorySystemConfig()));
        PageWalkers ws(cfg, pt, mem2, eq2);
        ws.requestBatch(vpns, 0, [&](Vpn, Cycle c) {
            sched_end = std::max(sched_end, c);
        });
        eq2.runUntil(10'000'000);
    }
    EXPECT_LT(sched_end, naive_end);
}

TEST_F(PtwFixture, MultipleWalkersOverlapWalks)
{
    std::vector<Vpn> vpns;
    for (unsigned i = 0; i < 8; ++i) {
        vpns.push_back(vpnOf(2, 3, i, 0)); // distinct PD subtrees
        pt.map4K(vpns.back(), i);
    }
    Cycle one_end = 0, eight_end = 0;
    {
        PtwConfig cfg;
        cfg.numWalkers = 1;
        EventQueue eq1;
        PageWalkers w(cfg, pt, mem, eq1);
        w.requestBatch(vpns, 0, [&](Vpn, Cycle c) {
            one_end = std::max(one_end, c);
        });
        eq1.runUntil(10'000'000);
    }
    {
        PtwConfig cfg;
        cfg.numWalkers = 8;
        EventQueue eq2;
        PageWalkers w(cfg, pt, mem, eq2);
        w.requestBatch(vpns, 0, [&](Vpn, Cycle c) {
            eight_end = std::max(eight_end, c);
        });
        eq2.runUntil(10'000'000);
    }
    EXPECT_LT(eight_end, one_end);
}

TEST_F(PtwFixture, WalkCacheShortensRepeatWalks)
{
    pt.map4K(vpnOf(3, 3, 3, 3), 1);
    pt.map4K(vpnOf(3, 3, 3, 4), 2);
    PtwConfig cfg;
    auto w = make(cfg);
    Cycle first = 0, second = 0;
    w.requestBatch({vpnOf(3, 3, 3, 3)}, 0,
                   [&](Vpn, Cycle c) { first = c; });
    eq.runUntil(1'000'000);
    const Cycle start2 = eq.now();
    w.requestBatch({vpnOf(3, 3, 3, 4)}, start2,
                   [&](Vpn, Cycle c) { second = c; });
    eq.runUntil(10'000'000);
    // All four of the second walk's lines were just touched.
    EXPECT_GT(w.pwcHits(), 0u);
    EXPECT_LT(second - start2, first);
}

TEST_F(PtwFixture, PwcHitWaitsForInFlightLineFill)
{
    // Two walks in one scheduled batch whose leaf PTEs share a
    // 128-byte line: the first reference fetches the line from
    // memory, the second hits the walk cache while that fill is
    // still in flight. The hit must wait for the fill - it cannot
    // complete in pwcHitLatency cycles when the line is not there
    // yet (hit-under-fill optimism).
    const Vpn a = vpnOf(1, 1, 1, 0);
    const Vpn b = vpnOf(1, 1, 1, 1); // same PTE line as a
    pt.map4K(a, 11);
    pt.map4K(b, 12);
    PtwConfig cfg;
    cfg.scheduling = true;
    auto w = make(cfg);
    Cycle done_a = 0, done_b = 0;
    w.requestBatch({a, b}, 0, [&](Vpn v, Cycle c) {
        (v == a ? done_a : done_b) = c;
    });
    eq.runUntil(1'000'000);
    EXPECT_GT(w.pwcHits(), 0u);
    EXPECT_GT(done_a, 0u);
    EXPECT_GE(done_b, done_a);
}

TEST_F(PtwFixture, KernelBoundaryResetsIssuePortReservation)
{
    // With portInterval > pwcHitLatency, an all-walk-cache-hit walk
    // completes before its last port slot expires, so the port
    // reservation outlives the drained kernel. onKernelDrained()
    // must clear it: a kernel started right at the drain cycle sees
    // the same walk latency as one started from an idle pool.
    pt.map4K(vpnOf(5, 5, 5, 5), 1);
    pt.map4K(vpnOf(5, 5, 5, 6), 2);
    pt.map4K(vpnOf(5, 5, 5, 7), 3);
    PtwConfig cfg;
    cfg.portInterval = 10;
    ASSERT_GT(cfg.portInterval, cfg.pwcHitLatency);
    auto w = make(cfg);
    auto drain = [&] {
        while (w.busy())
            eq.runUntil(eq.now() + 1);
    };

    // Warm every paging-structure line the three walks share.
    w.requestBatch({vpnOf(5, 5, 5, 5)}, 0, [](Vpn, Cycle) {});
    drain();

    // Kernel 1 ends on an all-PWC-hit walk; its final reference is
    // ready pwcHitLatency after issue but holds the port longer.
    const Cycle start_b = eq.now();
    Cycle done_b = 0;
    w.requestBatch({vpnOf(5, 5, 5, 6)}, start_b,
                   [&](Vpn, Cycle c) { done_b = c; });
    drain();
    w.onKernelDrained();

    // Kernel 2 starts at the drain cycle, inside the window the
    // stale reservation would still cover.
    const Cycle start_c = eq.now();
    Cycle done_c = 0;
    w.requestBatch({vpnOf(5, 5, 5, 7)}, start_c,
                   [&](Vpn, Cycle c) { done_c = c; });
    drain();
    EXPECT_EQ(done_c - start_c, done_b - start_b);
}

TEST_F(PtwFixture, TwoMegWalksHaveThreeLevels)
{
    const std::uint64_t per_large = kPageSize2M / kPageSize4K;
    pt.map2M(5, 4 * per_large);
    PtwConfig cfg;
    auto w = make(cfg);
    int done = 0;
    w.requestBatch({5ULL << 9}, 0, [&](Vpn, Cycle) { ++done; });
    eq.runUntil(1'000'000);
    EXPECT_EQ(done, 1);
    EXPECT_EQ(w.refsIssued(), 3u);
}

TEST_F(PtwFixture, QueuedWalksAllComplete)
{
    std::vector<Vpn> vpns;
    for (unsigned i = 0; i < 32; ++i) {
        vpns.push_back(vpnOf(4, 1, i / 8, i % 8));
        pt.map4K(vpns.back(), i);
    }
    PtwConfig cfg;
    cfg.scheduling = true;
    auto w = make(cfg);
    int done = 0;
    // Two batches back to back; the second queues behind the first.
    std::vector<Vpn> first(vpns.begin(), vpns.begin() + 16);
    std::vector<Vpn> second(vpns.begin() + 16, vpns.end());
    w.requestBatch(first, 0, [&](Vpn, Cycle) { ++done; });
    w.requestBatch(second, 1, [&](Vpn, Cycle) { ++done; });
    eq.runUntil(10'000'000);
    EXPECT_EQ(done, 32);
    EXPECT_GE(w.refsEliminated(), 1u);
}

TEST_F(PtwFixture, BatchConservationUnderCoalescing)
{
    // N walks whose upper-level references collapse heavily (shared
    // PML4/PDP/PD entries, PT entries on shared 128-byte lines) must
    // still complete exactly once each: coalescing merges *loads*,
    // never walk completions.
    std::vector<Vpn> vpns;
    for (unsigned i = 0; i < 24; ++i) {
        vpns.push_back(vpnOf(6, 1, i / 12, i % 12)); // 2 PD subtrees
        pt.map4K(vpns.back(), 100 + i);
    }
    InvariantChecker chk(pt);
    PtwConfig cfg;
    cfg.scheduling = true;
    auto w = make(cfg);
    w.setChecker(&chk);

    std::map<Vpn, int> completions;
    w.requestBatch(vpns, 0,
                   [&](Vpn v, Cycle) { completions[v]++; });
    eq.runUntil(10'000'000);

    ASSERT_EQ(completions.size(), vpns.size());
    for (Vpn v : vpns)
        EXPECT_EQ(completions[v], 1) << "vpn " << v;
    EXPECT_EQ(w.walksCompleted(), vpns.size());
    EXPECT_GE(w.refsEliminated(), 1u);
    EXPECT_EQ(chk.walksTracked(), vpns.size());
    w.checkDrained();
}

TEST_F(PtwFixture, DuplicateVpnsEachCompleteOnce)
{
    // The walker pool does not dedup VPNs, and no per-core structure
    // does either (the per-core MMU never merges a walk); two requests
    // for one page are two completions.
    const Vpn v = vpnOf(7, 7, 7, 7);
    pt.map4K(v, 5);
    InvariantChecker chk(pt);
    PtwConfig cfg;
    cfg.scheduling = true;
    auto w = make(cfg);
    w.setChecker(&chk);
    int done = 0;
    w.requestBatch({v, v, v}, 0, [&](Vpn got, Cycle) {
        EXPECT_EQ(got, v);
        ++done;
    });
    eq.runUntil(1'000'000);
    EXPECT_EQ(done, 3);
    w.checkDrained();
}

TEST_F(PtwFixture, ConservationAcrossQueuedNaiveBatches)
{
    // Batches that queue behind busy naive walkers keep conservation:
    // enqueue N across three requestBatch calls, see exactly N
    // completions, and drain clean with the checker armed.
    std::vector<Vpn> vpns;
    for (unsigned i = 0; i < 12; ++i) {
        vpns.push_back(vpnOf(8, i % 3, i, 2 * i));
        pt.map4K(vpns.back(), 200 + i);
    }
    InvariantChecker chk(pt);
    PtwConfig cfg;
    cfg.numWalkers = 2;
    auto w = make(cfg);
    w.setChecker(&chk);
    std::map<Vpn, int> completions;
    auto count = [&](Vpn v, Cycle) { completions[v]++; };
    w.requestBatch({vpns.begin(), vpns.begin() + 4}, 0, count);
    w.requestBatch({vpns.begin() + 4, vpns.begin() + 8}, 0, count);
    w.requestBatch({vpns.begin() + 8, vpns.end()}, 5, count);
    EXPECT_TRUE(w.busy());
    eq.runUntil(10'000'000);
    ASSERT_EQ(completions.size(), vpns.size());
    for (Vpn v : vpns)
        EXPECT_EQ(completions[v], 1);
    EXPECT_EQ(chk.walksTracked(), vpns.size());
    EXPECT_FALSE(w.busy());
    w.checkDrained();
}

TEST_F(PtwFixture, ScheduledBatchIssuesEachLevelInEntryOrder)
{
    // Requested out of address order, with an exact repeat (a twice)
    // and two PTEs on one line (a, b). Each level issues its distinct
    // entries in address order, each exactly once.
    const Vpn a = vpnOf(1, 2, 3, 4);
    const Vpn b = vpnOf(1, 2, 3, 5); // PTE on a's line
    const Vpn c = vpnOf(1, 2, 9, 4); // PD entry on a's PD line
    const Vpn d = vpnOf(1, 3, 0, 0); // PDP entry on a's PDP line
    for (Vpn v : {a, b, c, d})
        pt.map4K(v, v & 0xff);
    const WalkPath pa = pt.walk(a), pb = pt.walk(b), pc = pt.walk(c),
                   pd = pt.walk(d);
    // Tables are allocated in map order (no frame scramble), so a's
    // PD and PT pages precede c's PT page, which precedes d's pages.
    ASSERT_LT(pa.entryAddrs[2], pd.entryAddrs[2]);
    ASSERT_LT(pb.entryAddrs[3], pc.entryAddrs[3]);
    ASSERT_LT(pc.entryAddrs[3], pd.entryAddrs[3]);
    ASSERT_EQ(lineAddrOf(pa.entryAddrs[3]), lineAddrOf(pb.entryAddrs[3]));

    TraceSink sink;
    PtwConfig cfg;
    cfg.scheduling = true;
    auto w = make(cfg);
    w.setTraceSink(&sink, 0);
    std::vector<std::pair<Vpn, Cycle>> done;
    w.requestBatch({d, b, a, c, a}, 0,
                   [&](Vpn v, Cycle at) { done.emplace_back(v, at); });
    eq.runUntil(1'000'000);

    auto line = [](PhysAddr entry) { return lineAddrOf(entry); };
    const std::vector<PhysAddr> expected = {
        line(pa.entryAddrs[0]),                         // PML4
        line(pa.entryAddrs[1]), line(pd.entryAddrs[1]), // PDP
        line(pa.entryAddrs[2]), line(pc.entryAddrs[2]), // PD
        line(pd.entryAddrs[2]),
        line(pa.entryAddrs[3]), line(pb.entryAddrs[3]), // PT
        line(pc.entryAddrs[3]), line(pd.entryAddrs[3]),
    };
    const auto refs = walkRefEvents(sink);
    EXPECT_EQ(linesOf(refs), expected);
    for (std::size_t i = 1; i < refs.size(); ++i)
        EXPECT_GE(refs[i].first, refs[i - 1].first + cfg.portInterval);
    // 5 walks x 4 levels = 20 references, 10 of them repeats.
    EXPECT_EQ(w.refsIssued(), 10u);
    EXPECT_EQ(w.refsEliminated(), 10u);

    // Completions retire in entry order; both requests for a retire
    // on the one reference, so at the same cycle.
    ASSERT_EQ(done.size(), 5u);
    std::sort(done.begin(), done.end(),
              [](const auto &x, const auto &y) {
                  return x.second < y.second;
              });
    EXPECT_EQ(done[0].first, a);
    EXPECT_EQ(done[1].first, a);
    EXPECT_EQ(done[0].second, done[1].second);
    EXPECT_EQ(done[2].first, b);
    EXPECT_EQ(done[3].first, c);
    EXPECT_EQ(done[4].first, d);
}

TEST_F(PtwFixture, MixedPageSizeBatchRetiresEachWalkAtItsLeaf)
{
    // A 2MB walk (leaf at the PD, 3 levels) batched with two 4KB
    // walks (4 levels) whose PD entries share the 2MB entry's line.
    const std::uint64_t per_large = kPageSize2M / kPageSize4K;
    pt.map2M(5, 4 * per_large);
    const Vpn big = 5 * per_large + 17;
    const Vpn a = vpnOf(0, 0, 6, 1);
    const Vpn b = vpnOf(0, 0, 6, 2);
    pt.map4K(a, 1);
    pt.map4K(b, 2);
    ASSERT_EQ(pt.walk(big).levels, 3u);
    ASSERT_EQ(pt.walk(a).levels, 4u);
    const PhysAddr a_leaf_line = lineAddrOf(pt.walk(a).entryAddrs[3]);

    InvariantChecker chk(pt);
    TraceSink sink;
    PtwConfig cfg;
    cfg.scheduling = true;
    auto w = make(cfg);
    w.setChecker(&chk);
    w.setTraceSink(&sink, 0);
    std::map<Vpn, std::vector<Cycle>> done;
    w.requestBatch({a, big, b}, 0,
                   [&](Vpn v, Cycle at) { done[v].push_back(at); });
    eq.runUntil(1'000'000);

    ASSERT_EQ(done.size(), 3u);
    for (Vpn v : {big, a, b})
        ASSERT_EQ(done[v].size(), 1u) << "vpn " << v;
    // 3 + 4 + 4 = 11 references: one PML4, one PDP, PD entries 5 and
    // 6 (6 twice), PT entries 1 and 2.
    EXPECT_EQ(w.refsIssued(), 6u);
    EXPECT_EQ(w.refsEliminated(), 5u);
    EXPECT_EQ(w.walksCompleted(), 3u);

    // The 2MB walk retires at the PD level, before the PT level
    // issues; the 4KB walks retire after their PT references.
    const auto refs = walkRefEvents(sink);
    ASSERT_EQ(refs.size(), 6u);
    EXPECT_EQ(refs[4].second, a_leaf_line);
    const Cycle pt_level_issue = refs[4].first;
    EXPECT_LE(done[big][0], pt_level_issue);
    EXPECT_GT(done[a][0], pt_level_issue);
    EXPECT_GT(done[b][0], pt_level_issue);
    w.checkDrained();
}

TEST_F(PtwFixture, WalkHandsItsTranslationToTheCallback)
{
    // The callback hears what the walk read: a 2MB and two 4KB
    // mappings in one scheduled batch, each the table's own result.
    const std::uint64_t per_large = kPageSize2M / kPageSize4K;
    pt.map2M(5, 4 * per_large);
    const Vpn big = 5 * per_large + 17;
    const Vpn a = vpnOf(0, 0, 6, 1);
    const Vpn b = vpnOf(0, 0, 6, 2);
    pt.map4K(a, 1);
    pt.map4K(b, 2);
    PtwConfig cfg;
    cfg.scheduling = true;
    auto w = make(cfg);
    std::map<Vpn, Translation> got;
    w.requestBatchFor(pt, 0, {a, big, b}, 0,
                      [&](Vpn v, const Translation &t, Cycle) {
                          got[v] = t;
                      });
    eq.runUntil(1'000'000);
    ASSERT_EQ(got.size(), 3u);
    for (Vpn v : {big, a, b}) {
        const Translation want = pt.walk(v).result;
        EXPECT_EQ(got[v].ppn, want.ppn) << "vpn " << v;
        EXPECT_EQ(got[v].isLarge, want.isLarge) << "vpn " << v;
    }
    EXPECT_TRUE(got[big].isLarge);
    EXPECT_EQ(got[a].ppn, 1u);
    EXPECT_EQ(got[b].ppn, 2u);
}

TEST_F(PtwFixture, CompletionCallbackNeverRefillsItsBusyWalker)
{
    // A 2MB walk retires at the PD level while its 4KB batch-mates
    // still have a PT level to go. Its callback enqueues new walks;
    // the walker slot that holds the batch is still busy, so they go
    // to another walker or wait in the queue, and every walk of the
    // batch still completes once, as itself.
    const std::uint64_t per_large = kPageSize2M / kPageSize4K;
    pt.map2M(5, 4 * per_large);
    const Vpn big = 5 * per_large + 17;
    const Vpn a = vpnOf(0, 0, 6, 1);
    const Vpn b = vpnOf(0, 0, 6, 2);
    const Vpn late1 = vpnOf(0, 0, 7, 3);
    const Vpn late2 = vpnOf(0, 1, 2, 4);
    for (Vpn v : {a, b, late1, late2})
        pt.map4K(v, static_cast<Ppn>(v & 0xff));

    for (bool scheduling : {false, true}) {
        InvariantChecker chk(pt);
        PtwConfig cfg;
        cfg.scheduling = scheduling;
        cfg.numWalkers = 2;
        auto w = make(cfg);
        w.setChecker(&chk);
        std::map<Vpn, std::vector<Cycle>> done;
        std::function<void(Vpn, Cycle)> on_done = [&](Vpn v, Cycle at) {
            done[v].push_back(at);
            if (v == big)
                w.requestBatch({late1, late2}, at, on_done);
        };
        w.requestBatch({big, a, b}, eq.now(), on_done);
        eq.runUntil(eq.now() + 1'000'000);

        for (Vpn v : {big, a, b, late1, late2})
            ASSERT_EQ(done[v].size(), 1u)
                << "vpn " << v << " scheduling " << scheduling;
        EXPECT_LT(done[big][0], done[a][0]);
        EXPECT_GT(done[late1][0], done[big][0]);
        EXPECT_GT(done[late2][0], done[big][0]);
        EXPECT_EQ(w.walksCompleted(), 5u);
        EXPECT_FALSE(w.busy());
        w.checkDrained();
    }
}

TEST_F(PtwFixture, NaiveWalkMatchesOneWalkScheduledBatch)
{
    // One walk alone: the naive walker and the scheduler issue the
    // same references at the same cycles and finish together.
    const Vpn v = vpnOf(2, 4, 6, 8);
    pt.map4K(v, 9);
    auto run = [&](bool scheduling) {
        EventQueue q;
        MemorySystem m((MemorySystemConfig()));
        TraceSink sink;
        PtwConfig cfg;
        cfg.scheduling = scheduling;
        PageWalkers w(cfg, pt, m, q);
        w.setTraceSink(&sink, 0);
        Cycle done_at = 0;
        w.requestBatch({v}, 3, [&](Vpn, Cycle at) { done_at = at; });
        q.runUntil(1'000'000);
        EXPECT_EQ(w.refsIssued(), 4u);
        EXPECT_EQ(w.refsEliminated(), 0u);
        return std::make_pair(walkRefEvents(sink), done_at);
    };
    const auto naive = run(false);
    const auto sched = run(true);
    ASSERT_EQ(naive.first.size(), 4u);
    EXPECT_EQ(naive.first, sched.first);
    EXPECT_GT(naive.second, 3u);
    EXPECT_EQ(naive.second, sched.second);
}

TEST_F(PtwFixture, ScheduledBatchesMatchOneGlobalSort)
{
    // Random scheduled batches against the reference model's single
    // (level, entry, walk) sort: 2MB and 4KB walks mixed, repeated
    // VPNs, requests in random order and more than 16 references per
    // level, so every level needs sorting and the sort leaves its
    // insertion-sort path.
    std::mt19937_64 rng(7);
    auto pick = [&rng](unsigned n) {
        return static_cast<unsigned>(rng() % n);
    };
    const std::uint64_t per_large = kPageSize2M / kPageSize4K;
    std::vector<Vpn> pool;
    std::vector<Vpn> large;
    std::set<Vpn> mapped;
    while (pool.size() < 200) {
        const unsigned pml4 = pick(3), pdp = pick(3), pd = pick(6);
        const Vpn v = vpnOf(pml4, pdp, pd, pick(512));
        if (!mapped.insert(v).second)
            continue;
        pt.map4K(v, static_cast<Ppn>(pool.size() + 1));
        pool.push_back(v);
    }
    // 2MB pages at PD entries 8..11, beside the 4KB tables' entries.
    for (unsigned pml4 = 0; pml4 < 3; ++pml4) {
        for (unsigned pd = 8; pd < 12; ++pd) {
            const std::uint64_t vpn2m = vpnOf(pml4, 1, pd, 0) >> 9;
            pt.map2M(vpn2m, (pml4 * 4 + pd + 1) * per_large);
            for (int k = 0; k < 4; ++k)
                large.push_back(vpn2m * per_large + pick(512));
        }
    }

    PtwConfig cfg;
    cfg.scheduling = true;
    auto any_of = [&pick](const std::vector<Vpn> &from) {
        return from[pick(static_cast<unsigned>(from.size()))];
    };
    for (int trial = 0; trial < 20; ++trial) {
        std::vector<Vpn> vpns;
        for (unsigned n = 20 + pick(40); vpns.size() < n;)
            vpns.push_back(any_of(pick(4) == 0 ? large : pool));
        vpns.push_back(any_of(large));
        for (int k = 0; k < 4; ++k)
            vpns.push_back(any_of(vpns));
        std::shuffle(vpns.begin(), vpns.end(), rng);
        const Cycle at = 3 + trial;

        EventQueue q;
        MemorySystem m{MemorySystemConfig{}};
        TraceSink sink;
        PageWalkers w(cfg, pt, m, q);
        w.setTraceSink(&sink, 0);
        std::vector<std::pair<Vpn, Cycle>> done;
        w.requestBatch(vpns, at,
                       [&](Vpn v, Cycle c) { done.emplace_back(v, c); });
        q.runUntil(at + 10'000'000);
        std::sort(done.begin(), done.end());

        const BatchSchedule want =
            globallySortedSchedule(pt, vpns, cfg, at);
        EXPECT_EQ(linesOf(walkRefEvents(sink)), want.lines)
            << "trial " << trial;
        EXPECT_EQ(w.refsIssued(), want.issued) << "trial " << trial;
        EXPECT_EQ(w.refsEliminated(), want.eliminated)
            << "trial " << trial;
        EXPECT_EQ(done, want.done) << "trial " << trial;
    }
}
