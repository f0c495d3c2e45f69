/**
 * @file
 * Unit tests for the per-core L1 data cache.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "mem/l1_cache.hh"
#include "sim/rng.hh"

using namespace gpummu;

namespace {

struct L1Fixture : public ::testing::Test
{
    L1Fixture() : mem(MemorySystemConfig{}), l1(L1CacheConfig{}, mem) {}

    MemorySystemConfig memCfg;
    MemorySystem mem;
    L1Cache l1;
};

} // namespace

TEST_F(L1Fixture, ColdMissThenHit)
{
    auto miss = l1.access(100, false, 0, 1);
    EXPECT_FALSE(miss.hit);
    EXPECT_GT(miss.readyAt, 0u);

    auto hit = l1.access(100, false, miss.readyAt, 1);
    EXPECT_TRUE(hit.hit);
    EXPECT_EQ(hit.readyAt, miss.readyAt + 1); // hit latency
}

TEST_F(L1Fixture, MissLatencyIncludesSharedSystem)
{
    auto miss = l1.access(200, false, 0, 0);
    // At minimum: interconnect both ways + L2 latency.
    const MemorySystemConfig cfg;
    EXPECT_GE(miss.readyAt, 2 * cfg.icntLatency + cfg.l2HitLatency);
}

TEST_F(L1Fixture, MshrMergesConcurrentMisses)
{
    auto first = l1.access(300, false, 0, 0);
    auto second = l1.access(300, false, 1, 1);
    EXPECT_TRUE(second.mshrMerged);
    EXPECT_EQ(second.readyAt, first.readyAt);
    // Only one shared-system access happened.
    EXPECT_EQ(mem.l2Accesses(), 1u);
}

TEST_F(L1Fixture, WriteThroughInvalidatesLine)
{
    auto m = l1.access(400, false, 0, 0);
    auto h = l1.access(400, false, m.readyAt, 0);
    ASSERT_TRUE(h.hit);
    // Store to the same line invalidates the local copy.
    l1.access(400, true, m.readyAt + 10, 0);
    auto after = l1.access(400, false, m.readyAt + 2000, 0);
    EXPECT_FALSE(after.hit);
}

TEST_F(L1Fixture, StoresDoNotBlockRequester)
{
    auto st = l1.access(500, true, 0, 0);
    EXPECT_EQ(st.readyAt, 1u); // local hand-off only
}

TEST_F(L1Fixture, EvictionListenerReportsAllocatingWarp)
{
    PhysAddr evicted_line = 0;
    int evicted_warp = -1;
    l1.setEvictionListener([&](PhysAddr line, int warp) {
        evicted_line = line;
        evicted_warp = warp;
    });
    // Fill one set past its ways: lines mapping to the same set.
    const L1CacheConfig cfg;
    const std::size_t sets = cfg.bytes / kLineSize / cfg.ways;
    for (std::size_t i = 0; i <= cfg.ways; ++i) {
        l1.access(1000 + i * sets, false,
                  static_cast<Cycle>(i) * 2000, static_cast<int>(i));
    }
    EXPECT_EQ(evicted_line, 1000u);
    EXPECT_EQ(evicted_warp, 0);
}

TEST_F(L1Fixture, MshrFullReturnsRetryWithWakeTime)
{
    const L1CacheConfig cfg;
    // Fill the MSHR file with distinct outstanding lines at cycle 0.
    for (unsigned i = 0; i < cfg.numMshrs; ++i)
        l1.access(10000 + i, false, 0, 0);
    auto out = l1.access(99999, false, 0, 0);
    EXPECT_TRUE(out.needRetry);
    EXPECT_GT(out.readyAt, 0u);
    // Retrying at the indicated wake time must succeed.
    auto retry = l1.access(99999, false, out.readyAt, 0);
    EXPECT_FALSE(retry.needRetry);
}

TEST_F(L1Fixture, EarliestMshrFree)
{
    EXPECT_EQ(l1.earliestMshrFree(), kCycleNever);
    auto a = l1.access(1, false, 0, 0);
    auto b = l1.access(2, false, 5, 0);
    EXPECT_EQ(l1.earliestMshrFree(), std::min(a.readyAt, b.readyAt));
}

TEST_F(L1Fixture, FlushDropsLinesAndMshrs)
{
    auto m = l1.access(600, false, 0, 0);
    l1.flush();
    auto after = l1.access(600, false, m.readyAt + 10, 0);
    EXPECT_FALSE(after.hit);
}

TEST_F(L1Fixture, StatsCountHitsAndAccesses)
{
    auto m = l1.access(700, false, 0, 0);
    l1.access(700, false, m.readyAt, 0);
    l1.access(700, false, m.readyAt + 1, 0);
    EXPECT_EQ(l1.accesses(), 3u);
    EXPECT_EQ(l1.hits(), 2u);
    EXPECT_EQ(l1.misses(), 1u);
    EXPECT_EQ(l1.missLatency().count(), 1u);
}

TEST(L1CacheConfig, FewerLinesThanWaysIsFullyAssociative)
{
    // 4 lines, 8 ways: the tag array clamps to one 4-way set.
    MemorySystem mem{MemorySystemConfig{}};
    L1CacheConfig cfg;
    cfg.bytes = 4 * kLineSize;
    L1Cache l1(cfg, mem);
    Cycle t = l1.access(0, false, 0, 0).readyAt;
    for (PhysAddr line = 1; line < 4; ++line)
        t = l1.access(line * kLineSize, false, t, 0).readyAt;
    EXPECT_TRUE(l1.access(0, false, t, 0).hit);
    l1.access(4 * kLineSize, false, t, 0);
    EXPECT_FALSE(l1.access(kLineSize, false, t, 0).hit);
}

namespace {

/**
 * Reference L1: the MSHR file as a line-sorted vector, reaped by a
 * full remove_if scan when full and searched for its minimum readyAt.
 * Same tag array and access rules as L1Cache, none of its indexing.
 */
class RefL1
{
  public:
    RefL1(const L1CacheConfig &cfg, MemorySystem &mem)
        : cfg_(cfg), mem_(mem), array_(cfg.bytes / kLineSize, cfg.ways)
    {
    }

    std::vector<std::pair<PhysAddr, int>> evictions;
    /** Coverage: merges whose tag was already evicted, stale erases,
     *  and reads of an untracked line whose L1Cache filter bucket is
     *  shared with a tracked line (so the filter cannot skip the scan). */
    unsigned untaggedMerges = 0;
    unsigned staleErases = 0;
    unsigned filterCollisions = 0;

    AccessOutcome
    access(PhysAddr line, bool is_write, Cycle now, int warp)
    {
        AccessOutcome out;
        out.readyAt = now + cfg_.hitLatency;
        if (is_write) {
            array_.invalidate(line);
            mem_.access(line, true, now + cfg_.hitLatency,
                        AccessSource::Data);
            out.hit = true;
            return out;
        }
        auto it = std::lower_bound(mshrs_.begin(), mshrs_.end(), line,
                                   [](const Mshr &m, PhysAddr l) {
                                       return m.line < l;
                                   });
        const bool tracked = it != mshrs_.end() && it->line == line;
        const auto bucket = [this](PhysAddr l) {
            return L1Cache::mshrFilterBucket(l, cfg_.numMshrs);
        };
        filterCollisions +=
            !tracked && std::any_of(mshrs_.begin(), mshrs_.end(),
                                    [&](const Mshr &m) {
                                        return bucket(m.line) == bucket(line);
                                    });
        const bool tag_hit = array_.lookup(line).hit;
        if (tracked && it->readyAt > now) {
            untaggedMerges += !tag_hit;
            out.mshrMerged = true;
            out.readyAt = it->readyAt;
            return out;
        }
        if (tag_hit) {
            out.hit = true;
            return out;
        }
        if (tracked) {
            ++staleErases;
            it = mshrs_.erase(it);
        }
        if (mshrs_.size() >= cfg_.numMshrs) {
            reapMshrs(now);
            if (mshrs_.size() >= cfg_.numMshrs) {
                out.needRetry = true;
                out.readyAt = std::max(now + 1, earliestMshrFree());
                return out;
            }
            it = std::lower_bound(mshrs_.begin(), mshrs_.end(), line,
                                  [](const Mshr &m, PhysAddr l) {
                                      return m.line < l;
                                  });
        }
        auto shared = mem_.access(line, false, now + cfg_.hitLatency,
                                  AccessSource::Data);
        mshrs_.insert(it, Mshr{line, shared.readyAt});
        if (auto victim = array_.insert(line, warp))
            evictions.emplace_back(victim->tag, victim->payload);
        out.dram = shared.dram;
        out.readyAt = shared.readyAt;
        return out;
    }

    void
    reapMshrs(Cycle now)
    {
        std::erase_if(mshrs_, [now](const Mshr &m) {
            return m.readyAt <= now;
        });
    }

    Cycle
    earliestMshrFree() const
    {
        Cycle earliest = kCycleNever;
        for (const Mshr &m : mshrs_)
            earliest = std::min(earliest, m.readyAt);
        return earliest;
    }

    void
    flush()
    {
        array_.flush();
        mshrs_.clear();
    }

  private:
    struct Mshr
    {
        PhysAddr line;
        Cycle readyAt;
    };

    L1CacheConfig cfg_;
    MemorySystem &mem_;
    SetAssocArray<int> array_;
    std::vector<Mshr> mshrs_;
};

/**
 * A line pool small enough for merges, evictions under an in-flight
 * fill and stale MSHR erases. Half of it shares three buckets of the
 * L1's MSHR line filter, so lines that are not tracked still pass a
 * filter check.
 */
std::vector<PhysAddr>
linePool(unsigned num_mshrs, Rng &rng)
{
    std::vector<PhysAddr> pool;
    for (PhysAddr line = 1; pool.size() < 192; ++line) {
        if (L1Cache::mshrFilterBucket(line, num_mshrs) < 3)
            pool.push_back(line);
    }
    while (pool.size() < 384)
        pool.push_back(rng.below(4096));
    return pool;
}

} // namespace

TEST(L1CacheDifferential, MatchesLineSortedMshrFile)
{
    unsigned merges = 0, retries = 0, untagged_merges = 0, stale_erases = 0,
             filter_collisions = 0;
    for (unsigned num_mshrs : {1u, 4u, 96u}) {
        SCOPED_TRACE(num_mshrs);
        L1CacheConfig cfg;
        cfg.numMshrs = num_mshrs;
        MemorySystem mem{MemorySystemConfig{}};
        MemorySystem ref_mem{MemorySystemConfig{}};
        L1Cache l1(cfg, mem);
        RefL1 ref(cfg, ref_mem);
        std::vector<std::pair<PhysAddr, int>> evictions;
        l1.setEvictionListener([&](PhysAddr line, int warp) {
            evictions.emplace_back(line, warp);
        });
        Rng rng(0x11CAC4E + num_mshrs);
        const std::vector<PhysAddr> pool = linePool(num_mshrs, rng);

        std::vector<PhysAddr> recent(8, pool[0]);
        Cycle base = 0;
        for (int step = 0; step < 120000; ++step) {
            // A clock that mostly advances but also steps back, as
            // walk replays and retries issue at earlier cycles.
            base += rng.below(3);
            Cycle now = base + rng.below(400);
            now = now > 300 ? now - 300 : 0;
            if (step % 40000 == 39999) {
                l1.flush();
                ref.flush();
            } else if (rng.below(50) == 0) {
                l1.reapMshrs(now);
                ref.reapMshrs(now);
            }
            // Reusing a recent line makes stores invalidate tags whose
            // fills are in flight or done but not yet reaped.
            const PhysAddr line = rng.below(3) == 0
                                      ? recent[rng.below(recent.size())]
                                      : pool[rng.below(pool.size())];
            recent[step % recent.size()] = line;
            const bool store = rng.below(8) == 0;
            const int warp = static_cast<int>(rng.below(48));
            AccessOutcome got = l1.access(line, store, now, warp);
            AccessOutcome want = ref.access(line, store, now, warp);
            retries += got.needRetry;
            for (int retry = 0; got.needRetry && retry < 2; ++retry) {
                ASSERT_TRUE(want.needRetry) << "step " << step;
                ASSERT_EQ(got.readyAt, want.readyAt) << "step " << step;
                now = got.readyAt;
                got = l1.access(line, store, now, warp);
                want = ref.access(line, store, now, warp);
            }
            ASSERT_EQ(got.readyAt, want.readyAt) << "step " << step;
            ASSERT_EQ(got.hit, want.hit) << "step " << step;
            ASSERT_EQ(got.mshrMerged, want.mshrMerged) << "step " << step;
            ASSERT_EQ(got.needRetry, want.needRetry) << "step " << step;
            ASSERT_EQ(got.dram, want.dram) << "step " << step;
            merges += got.mshrMerged;
            ASSERT_EQ(l1.earliestMshrFree(), ref.earliestMshrFree())
                << "step " << step;
        }
        EXPECT_EQ(evictions, ref.evictions);
        untagged_merges += ref.untaggedMerges;
        stale_erases += ref.staleErases;
        filter_collisions += ref.filterCollisions;
    }
    EXPECT_GT(merges, 0u);
    EXPECT_GT(retries, 0u);
    EXPECT_GT(untagged_merges, 0u);
    EXPECT_GT(stale_erases, 0u);
    EXPECT_GT(filter_collisions, 0u);
}
