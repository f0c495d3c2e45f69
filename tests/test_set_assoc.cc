/**
 * @file
 * Unit tests for the generic set-associative array.
 */

#include <gtest/gtest.h>

#include <optional>
#include <tuple>
#include <vector>

#include "mem/set_assoc.hh"
#include "sim/rng.hh"

using namespace gpummu;

TEST(SetAssoc, MissThenHit)
{
    SetAssocArray<int> arr(8, 2);
    EXPECT_FALSE(arr.lookup(5).hit);
    arr.insert(5, 50);
    auto res = arr.lookup(5);
    ASSERT_TRUE(res.hit);
    EXPECT_EQ(*res.payload, 50);
    EXPECT_EQ(res.depth, 0u);
}

TEST(SetAssoc, LruDepthReporting)
{
    // Fully associative, 4 ways: depth is position in the LRU stack.
    SetAssocArray<int> arr(4, 0);
    arr.insert(1, 0);
    arr.insert(2, 0);
    arr.insert(3, 0);
    // 3 is MRU (depth 0), 1 is LRU (depth 2).
    EXPECT_EQ(arr.lookup(1).depth, 2u);
    // The lookup promoted 1 to MRU; 3 is now depth 1.
    EXPECT_EQ(arr.lookup(3).depth, 1u);
}

TEST(SetAssoc, EvictsLruVictim)
{
    SetAssocArray<int> arr(2, 2); // one set, 2 ways
    arr.insert(10, 1);
    arr.insert(12, 2);
    arr.lookup(10); // promote 10; 12 becomes LRU
    auto victim = arr.insert(14, 3);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->tag, 12u);
    EXPECT_EQ(victim->payload, 2);
    EXPECT_TRUE(arr.lookup(10).hit);
    EXPECT_TRUE(arr.lookup(14).hit);
    EXPECT_FALSE(arr.lookup(12).hit);
}

TEST(SetAssoc, InsertExistingOverwritesWithoutVictim)
{
    SetAssocArray<int> arr(2, 2);
    arr.insert(10, 1);
    arr.insert(12, 2);
    auto victim = arr.insert(10, 99);
    EXPECT_FALSE(victim.has_value());
    EXPECT_EQ(*arr.lookup(10).payload, 99);
    EXPECT_EQ(arr.occupancy(), 2u);
}

TEST(SetAssoc, SetsAreIndependent)
{
    SetAssocArray<int> arr(4, 2); // 2 sets
    // Tags 0 and 2 map to set 0; 1 and 3 to set 1.
    arr.insert(0, 0);
    arr.insert(2, 0);
    arr.insert(4, 0); // evicts from set 0 only
    EXPECT_TRUE(arr.lookup(1).hit == false);
    arr.insert(1, 0);
    arr.insert(3, 0);
    EXPECT_TRUE(arr.lookup(1).hit);
    EXPECT_TRUE(arr.lookup(3).hit);
}

TEST(SetAssoc, PeekDoesNotPromote)
{
    SetAssocArray<int> arr(2, 2);
    arr.insert(10, 1);
    arr.insert(12, 2);
    EXPECT_NE(arr.peek(10), nullptr);
    // 10 must still be LRU: inserting evicts it.
    auto victim = arr.insert(14, 3);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->tag, 10u);
}

TEST(SetAssoc, InvalidateRemovesEntry)
{
    SetAssocArray<int> arr(4, 4);
    arr.insert(7, 1);
    EXPECT_TRUE(arr.invalidate(7));
    EXPECT_FALSE(arr.lookup(7).hit);
    EXPECT_FALSE(arr.invalidate(7));
}

TEST(SetAssoc, FlushEmptiesEverything)
{
    SetAssocArray<int> arr(8, 2);
    for (int i = 0; i < 8; ++i)
        arr.insert(static_cast<std::uint64_t>(i), i);
    EXPECT_GT(arr.occupancy(), 0u);
    arr.flush();
    EXPECT_EQ(arr.occupancy(), 0u);
    for (int i = 0; i < 8; ++i)
        EXPECT_FALSE(arr.lookup(static_cast<std::uint64_t>(i)).hit);
}

TEST(SetAssoc, ZeroWaysMeansFullyAssociative)
{
    SetAssocArray<int> arr(6, 0);
    EXPECT_EQ(arr.numSets(), 1u);
    EXPECT_EQ(arr.ways(), 6u);
}

class SetAssocParamTest
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>>
{
};

TEST_P(SetAssocParamTest, CapacityIsRespected)
{
    const auto [entries, ways] = GetParam();
    SetAssocArray<int> arr(entries, ways);
    // Insert 4x capacity; occupancy never exceeds total entries.
    for (std::uint64_t t = 0; t < 4 * entries; ++t) {
        arr.insert(t, 0);
        ASSERT_LE(arr.occupancy(), entries);
    }
    EXPECT_EQ(arr.occupancy(), entries);
}

TEST_P(SetAssocParamTest, MostRecentWithinWaysAlwaysHit)
{
    const auto [entries, ways] = GetParam();
    SetAssocArray<int> arr(entries, ways);
    const std::size_t sets = entries / (ways ? ways : entries);
    // Insert one run of tags that all map to set 0.
    const std::size_t w = ways ? ways : entries;
    for (std::size_t i = 0; i < 3 * w; ++i)
        arr.insert(i * sets, 0);
    // The last `ways` inserted tags must be present.
    for (std::size_t i = 2 * w; i < 3 * w; ++i)
        EXPECT_TRUE(arr.lookup(i * sets).hit) << i;
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, SetAssocParamTest,
    ::testing::Values(std::make_pair<std::size_t, std::size_t>(8, 2),
                      std::make_pair<std::size_t, std::size_t>(16, 4),
                      std::make_pair<std::size_t, std::size_t>(128, 4),
                      std::make_pair<std::size_t, std::size_t>(16, 16),
                      std::make_pair<std::size_t, std::size_t>(64, 8),
                      // Non-power-of-two set counts: 3 and 12 sets.
                      std::make_pair<std::size_t, std::size_t>(12, 4),
                      std::make_pair<std::size_t, std::size_t>(24, 2),
                      // Fully associative, by ways 0.
                      std::make_pair<std::size_t, std::size_t>(6, 0)));

TEST(SetAssocDeathTest, IndivisibleGeometryPanics)
{
    EXPECT_DEATH(SetAssocArray<int>(10, 4), "divisible");
}

namespace {

/**
 * The reference layout: one heap vector per set, MRU first, with
 * erase/insert for every promotion. The flat array must reproduce it
 * operation for operation.
 */
class VectorSetsArray
{
  public:
    struct Entry
    {
        std::uint64_t tag;
        int payload;
    };

    VectorSetsArray(std::size_t num_entries, std::size_t ways)
    {
        if (ways == 0 || ways > num_entries)
            ways = num_entries;
        ways_ = ways;
        sets_.resize(num_entries / ways);
    }

    /** Hit depth, or -1 on a miss; @p payload gets the hit's. */
    int
    lookup(std::uint64_t tag, int &payload)
    {
        auto &set = setFor(tag);
        for (std::size_t i = 0; i < set.size(); ++i) {
            if (set[i].tag == tag) {
                const Entry e = set[i];
                set.erase(set.begin() + static_cast<long>(i));
                set.insert(set.begin(), e);
                payload = e.payload;
                return static_cast<int>(i);
            }
        }
        return -1;
    }

    const int *
    peek(std::uint64_t tag) const
    {
        for (const Entry &e : sets_[tag % sets_.size()])
            if (e.tag == tag)
                return &e.payload;
        return nullptr;
    }

    std::optional<Entry>
    insert(std::uint64_t tag, int payload)
    {
        auto &set = setFor(tag);
        for (std::size_t i = 0; i < set.size(); ++i) {
            if (set[i].tag == tag) {
                set.erase(set.begin() + static_cast<long>(i));
                break;
            }
        }
        std::optional<Entry> victim;
        if (set.size() == ways_) {
            victim = set.back();
            set.pop_back();
        }
        set.insert(set.begin(), Entry{tag, payload});
        return victim;
    }

    bool
    invalidate(std::uint64_t tag)
    {
        auto &set = setFor(tag);
        for (std::size_t i = 0; i < set.size(); ++i) {
            if (set[i].tag == tag) {
                set.erase(set.begin() + static_cast<long>(i));
                return true;
            }
        }
        return false;
    }

    void
    flush()
    {
        for (auto &set : sets_)
            set.clear();
    }

    template <typename Pred>
    std::vector<Entry>
    removeIf(Pred pred)
    {
        std::vector<Entry> victims;
        for (auto &set : sets_) {
            for (std::size_t i = 0; i < set.size();) {
                if (pred(set[i].tag, set[i].payload)) {
                    victims.push_back(set[i]);
                    set.erase(set.begin() + static_cast<long>(i));
                } else {
                    ++i;
                }
            }
        }
        return victims;
    }

    /** (set, tag, payload) in set order, MRU -> LRU within a set. */
    std::vector<std::tuple<std::size_t, std::uint64_t, int>>
    contents() const
    {
        std::vector<std::tuple<std::size_t, std::uint64_t, int>> out;
        for (std::size_t s = 0; s < sets_.size(); ++s)
            for (const Entry &e : sets_[s])
                out.emplace_back(s, e.tag, e.payload);
        return out;
    }

  private:
    std::vector<Entry> &setFor(std::uint64_t tag)
    {
        return sets_[tag % sets_.size()];
    }

    std::size_t ways_;
    std::vector<std::vector<Entry>> sets_;
};

std::vector<std::tuple<std::size_t, std::uint64_t, int>>
contents(const SetAssocArray<int> &arr)
{
    std::vector<std::tuple<std::size_t, std::uint64_t, int>> out;
    arr.forEach([&out](std::size_t s, std::uint64_t tag, int payload) {
        out.emplace_back(s, tag, payload);
    });
    return out;
}

} // namespace

TEST_P(SetAssocParamTest, MatchesVectorPerSetReference)
{
    const auto [entries, ways] = GetParam();
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        Rng rng(0x5E7A55 * seed + entries * 131 + ways);
        SetAssocArray<int> arr(entries, ways);
        VectorSetsArray ref(entries, ways);
        // Tags mostly collide within a few times the capacity; some are
        // wide so the set index sees high bits.
        const auto draw_tag = [&rng, entries = entries]() {
            return rng.chance(0.1) ? rng.next()
                                   : rng.below(3 * entries + 2);
        };
        for (int step = 0; step < 3000; ++step) {
            SCOPED_TRACE(::testing::Message()
                         << "seed " << seed << " step " << step);
            const std::uint64_t tag = draw_tag();
            const std::uint64_t op = rng.below(100);
            if (op < 35) {
                int want_payload = 0;
                const int want = ref.lookup(tag, want_payload);
                const auto got = arr.lookup(tag);
                ASSERT_EQ(got.hit, want >= 0);
                if (got.hit) {
                    ASSERT_EQ(got.depth, static_cast<unsigned>(want));
                    ASSERT_EQ(*got.payload, want_payload);
                }
            } else if (op < 70) {
                const int payload = static_cast<int>(rng.below(1000));
                const auto want = ref.insert(tag, payload);
                const auto got = arr.insert(tag, payload);
                ASSERT_EQ(got.has_value(), want.has_value());
                if (got) {
                    ASSERT_EQ(got->tag, want->tag);
                    ASSERT_EQ(got->payload, want->payload);
                }
            } else if (op < 82) {
                const int *want = ref.peek(tag);
                const int *got = arr.peek(tag);
                ASSERT_EQ(got != nullptr, want != nullptr);
                if (got) {
                    ASSERT_EQ(*got, *want);
                }
            } else if (op < 94) {
                ASSERT_EQ(arr.invalidate(tag), ref.invalidate(tag));
            } else if (op < 99) {
                const std::uint64_t mod = 2 + rng.below(4);
                const auto pred = [mod](std::uint64_t t, int p) {
                    return (t + static_cast<std::uint64_t>(p)) % mod == 0;
                };
                const auto want = ref.removeIf(pred);
                const auto got = arr.removeIf(pred);
                ASSERT_EQ(got.size(), want.size());
                for (std::size_t i = 0; i < got.size(); ++i) {
                    ASSERT_EQ(got[i].tag, want[i].tag);
                    ASSERT_EQ(got[i].payload, want[i].payload);
                }
            } else {
                arr.flush();
                ref.flush();
            }
            const auto want = ref.contents();
            ASSERT_EQ(contents(arr), want);
            ASSERT_EQ(arr.occupancy(), want.size());
        }
    }
}
