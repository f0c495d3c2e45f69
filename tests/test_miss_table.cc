/**
 * @file
 * Differential tests of MissTable, the flat per-VPN waiter table of
 * the IOMMU and the shared L2 TLB, against the structure it replaced:
 * an ordered map from key to its waiters' ids (plus each key's
 * record).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <vector>

#include "mmu/miss_table.hh"

using namespace gpummu;

namespace {

/** Owning waiters: a lost, duplicated or leaked node shows up as a
 *  wrong id, a null pointer or a sanitizer report. */
using Waiter = std::unique_ptr<int>;
using Table = MissTable<Waiter, std::uint64_t>;

/**
 * Every operation is applied to the table and to the model in
 * lockstep. take() checks the model's waiters fire in arrival order,
 * and each waiter may add waiters itself - on other keys, or on the
 * key being taken, which by then must be gone. The observers (size,
 * find, waiters, forEach, smallestKey) are compared after every step
 * and inside every waiter.
 */
class Lockstep
{
  public:
    /** How much check() compares: the size alone, also every live
     *  key, or also every key of the universe. */
    enum class Depth
    {
        Size,
        Live,
        All
    };

    /** @p in_waiter: the depth checked inside every waiter. */
    Lockstep(std::uint64_t seed, std::vector<Vpn> universe,
             std::size_t max_keys = 0, Depth in_waiter = Depth::All)
        : table(max_keys), universe_(std::move(universe)), rng_(seed),
          inWaiter_(in_waiter)
    {
    }

    std::uint64_t pick(std::uint64_t n) { return rng_() % n; }
    Vpn anyKey() { return universe_[pick(universe_.size())]; }

    /** A live key of the model, or any key when none is live. */
    Vpn
    liveKey()
    {
        if (waiters_.empty())
            return anyKey();
        auto it = waiters_.begin();
        std::advance(it, pick(waiters_.size()));
        return it->first;
    }

    /** Queue a fresh waiter on @p key: join if live, else open. */
    void
    add(Vpn key)
    {
        const int id = nextId_++;
        Waiter w = std::make_unique<int>(id);
        auto it = waiters_.find(key);
        if (it != waiters_.end()) {
            ASSERT_TRUE(table.join(key, w)) << "key " << key;
            ASSERT_EQ(w, nullptr) << "join must take the waiter";
            it->second.push_back(id);
            return;
        }
        ASSERT_FALSE(table.join(key, w)) << "key " << key;
        ASSERT_NE(w, nullptr) << "a failed join must not take it";
        const std::uint64_t rec = rng_();
        table.open(key, rec, std::move(w));
        waiters_[key] = {id};
        records_[key] = rec;
    }

    /** Retire @p key on both; no-op when it is not live. */
    void
    take(Vpn key)
    {
        auto it = waiters_.find(key);
        if (it == waiters_.end())
            return;
        const std::vector<int> want = std::move(it->second);
        const std::uint64_t rec = records_.at(key);
        waiters_.erase(it);
        records_.erase(key);
        std::vector<int> fired;
        const std::uint64_t got = table.take(key, [&](Waiter &w) {
            ASSERT_NE(w, nullptr);
            fired.push_back(*w);
            check(inWaiter_);
            // 0, 0, 1 or 2 new waiters (0.75 on average, so cascades
            // die out); a third of them land on the key being taken.
            const std::uint64_t spawn = pick(4) * 2 / 3;
            for (std::uint64_t i = 0; i < spawn; ++i)
                add(pick(3) == 0 ? key : anyKey());
        });
        EXPECT_EQ(fired, want) << "key " << key;
        EXPECT_EQ(got, rec) << "record of key " << key;
    }

    /** Mark the records of every live key that @p bit selects. */
    void
    poison(std::uint64_t bit)
    {
        table.forEach([bit](Vpn key, std::uint64_t &rec) {
            if ((key >> bit) & 1)
                rec |= std::uint64_t(1) << 63;
        });
        for (auto &[key, rec] : records_)
            if ((key >> bit) & 1)
                rec |= std::uint64_t(1) << 63;
    }

    /** Compare the table's observers with the model, to @p depth. */
    void
    check(Depth depth)
    {
        ASSERT_EQ(table.size(), waiters_.size());
        ASSERT_EQ(table.empty(), waiters_.empty());
        if (depth == Depth::Size)
            return;
        for (const auto &[key, ids] : waiters_) {
            const std::uint64_t *rec = table.find(key);
            ASSERT_NE(rec, nullptr) << "live key " << key << " lost";
            ASSERT_EQ(*rec, records_.at(key)) << "key " << key;
            ASSERT_EQ(table.waiters(key), ids.size()) << "key " << key;
        }
        std::vector<Vpn> seen;
        table.forEach([&seen](Vpn key, const std::uint64_t &) {
            seen.push_back(key);
        });
        std::sort(seen.begin(), seen.end());
        std::vector<Vpn> live;
        for (const auto &e : waiters_)
            live.push_back(e.first);
        ASSERT_EQ(seen, live);
        if (!live.empty()) {
            ASSERT_EQ(table.smallestKey(), live.front());
        }
        if (depth == Depth::Live)
            return;
        for (Vpn key : universe_) {
            const bool is_live = waiters_.count(key) != 0;
            ASSERT_EQ(table.find(key) != nullptr, is_live)
                << "key " << key;
            if (!is_live) {
                ASSERT_EQ(table.waiters(key), 0u);
            }
        }
    }

    /** One random step: add (weight @p add_weight of 10), take,
     *  or poison. */
    void
    step(std::uint64_t add_weight)
    {
        const std::uint64_t op = pick(10);
        if (op < add_weight)
            add(pick(4) == 0 ? liveKey() : anyKey());
        else if (op < 9)
            take(liveKey());
        else
            poison(pick(64));
    }

    std::size_t live() const { return waiters_.size(); }

    Table table;

  private:
    std::vector<Vpn> universe_;
    std::mt19937_64 rng_;
    Depth inWaiter_;
    std::map<Vpn, std::vector<int>> waiters_;
    std::map<Vpn, std::uint64_t> records_;
    int nextId_ = 0;
};

/** @p n distinct keys: small VPNs, ASID-composed keys, key 0 and
 *  the top of the key space. */
std::vector<Vpn>
mixedKeys(std::size_t n, std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::vector<Vpn> keys{0, ~Vpn(0)};
    while (keys.size() < n) {
        const Vpn k = rng() % 4 == 0 ? rng() : (rng() % 3) << 48 |
                                                   rng() % 4096;
        if (std::find(keys.begin(), keys.end(), k) == keys.end())
            keys.push_back(k);
    }
    return keys;
}

/** The home slot of @p key in a table of 2^@p bits slots: the
 *  Fibonacci hash the table documents. */
std::size_t
homeOf(Vpn key, unsigned bits)
{
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >>
                                    (64 - bits));
}

} // namespace

TEST(MissTable, MatchesReferenceMapOnRandomAddsAndTakes)
{
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
        SCOPED_TRACE(seed);
        Lockstep ls(seed, mixedKeys(24, seed));
        for (int step = 0; step < 600; ++step) {
            ls.step(5);
            ls.check(Lockstep::Depth::All);
            if (::testing::Test::HasFatalFailure())
                return;
        }
        while (ls.live() > 0) {
            ls.take(ls.liveKey());
            ls.check(Lockstep::Depth::All);
            if (::testing::Test::HasFatalFailure())
                return;
        }
    }
}

TEST(MissTable, KeysSharingOneHomeSlotProbeAndShiftBack)
{
    // A table sized for 12 keys has 16 slots and never grows here.
    // Eight keys share home slot 15 and four share home slot 1, so
    // every run wraps past the end of the array and mixes homes:
    // backward-shift erase must move each key back only as far as
    // its own home.
    std::vector<Vpn> keys;
    std::size_t at15 = 0, at1 = 0;
    for (Vpn k = 1; at15 < 8 || at1 < 4; ++k) {
        const std::size_t h = homeOf(k, 4);
        if (h == 15 && at15 < 8) {
            keys.push_back(k);
            ++at15;
        } else if (h == 1 && at1 < 4) {
            keys.push_back(k);
            ++at1;
        }
    }
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        SCOPED_TRACE(seed);
        Lockstep ls(seed, keys, keys.size());
        for (int step = 0; step < 400; ++step) {
            ls.step(6);
            ls.check(Lockstep::Depth::All);
            if (::testing::Test::HasFatalFailure())
                return;
        }
    }
}

TEST(MissTable, GrowsThroughSeveralDoublings)
{
    // From the minimum 8 slots to 4096: fill to 2,500 live keys (the
    // IOMMU's peak occupancy is about 2,200), then drain by takes
    // whose waiters keep spawning new ones.
    using Depth = Lockstep::Depth;
    Lockstep ls(7, mixedKeys(3000, 7), 0, Depth::Size);
    const auto depth = [](int step) {
        return step % 512 == 0 ? Depth::All
                               : step % 64 == 0 ? Depth::Live : Depth::Size;
    };
    for (int step = 0; ls.live() < 2500; ++step) {
        ls.step(9);
        ls.check(depth(step));
        if (::testing::Test::HasFatalFailure())
            return;
    }
    ls.check(Depth::All);
    for (int step = 0; ls.live() > 0; ++step) {
        ls.step(0);
        ls.check(depth(step));
        if (::testing::Test::HasFatalFailure())
            return;
    }
    ls.check(Lockstep::Depth::All);
}

TEST(MissTable, WaitersRunAfterTheirKeyIsUnlinked)
{
    Table t;
    std::vector<int> order;
    t.open(5, 100, std::make_unique<int>(1));
    for (int id = 2; id <= 3; ++id) {
        Waiter w = std::make_unique<int>(id);
        ASSERT_TRUE(t.join(5, w));
    }
    const std::uint64_t rec = t.take(5, [&](Waiter &w) {
        order.push_back(*w);
        // A waiter queued during this take fired here means the key
        // was still linked; stop rejoining so the chain ends.
        if (*w > 3)
            return;
        // The key is gone before the first waiter runs: a waiter
        // that misses on it again opens a new entry, and a later
        // waiter of the old entry joins that one. Enough new keys
        // to grow the table while the old chain is still firing.
        EXPECT_EQ(t.find(5) == nullptr, *w == 1);
        Waiter again = std::make_unique<int>(10 + *w);
        if (!t.join(5, again))
            t.open(5, 200, std::move(again));
        for (Vpn k = 0; k < 8; ++k) {
            Waiter more = std::make_unique<int>(100);
            const Vpn key = 1000 * static_cast<Vpn>(*w) + k;
            if (!t.join(key, more))
                t.open(key, 0, std::move(more));
        }
    });
    EXPECT_EQ(rec, 100u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    ASSERT_NE(t.find(5), nullptr);
    EXPECT_EQ(*t.find(5), 200u);
    EXPECT_EQ(t.waiters(5), 3u);
    EXPECT_EQ(t.size(), 1u + 3 * 8);
    std::vector<int> again;
    t.take(5, [&](Waiter &w) { again.push_back(*w); });
    EXPECT_EQ(again, (std::vector<int>{11, 12, 13}));
}

TEST(MissTable, RecordsPersistUntilTake)
{
    Table t(4);
    t.open(42, 7, std::make_unique<int>(0));
    Waiter w = std::make_unique<int>(1);
    ASSERT_TRUE(t.join(42, w));
    t.forEach([](Vpn, std::uint64_t &rec) { rec += 1; });
    EXPECT_EQ(*t.find(42), 8u);
    // Other keys come and go around it.
    for (Vpn k = 0; k < 40; ++k) {
        t.open(1000 + k, k, std::make_unique<int>(2));
        t.take(1000 + k, [](Waiter &) {});
    }
    EXPECT_EQ(*t.find(42), 8u);
    EXPECT_EQ(t.take(42, [](Waiter &) {}), 8u);
    EXPECT_TRUE(t.empty());
    EXPECT_EQ(t.find(42), nullptr);
}
