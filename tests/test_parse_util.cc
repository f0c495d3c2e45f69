/**
 * @file
 * Strict-parse and locale regression tests.
 *
 * Pins the two bugfix classes of the trace-ingestion PR: (1) every
 * numeric CLI flag in the bench layer parses the *whole* token with
 * std::from_chars — "--jobs=4abc" and "--seed=-1" are errors, not
 * silently truncated values (the atoi/atof family accepted both);
 * (2) JSON number parsing is locale-independent — under a
 * comma-decimal LC_NUMERIC, std::stod parsed "1.5" as 1 and broke
 * the emit→parse round trip of the simulator's JSON exports.
 */

#include <gtest/gtest.h>

#include <clocale>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "sim/json.hh"
#include "sim/parse_util.hh"
#include "sim/stats.hh"

using namespace gpummu;

namespace {

TEST(ParseNum, AcceptsWholeTokens)
{
    int i = 0;
    EXPECT_TRUE(parseNum("42", i));
    EXPECT_EQ(i, 42);
    EXPECT_TRUE(parseNum("-7", i));
    EXPECT_EQ(i, -7);
    std::uint64_t u = 0;
    EXPECT_TRUE(parseNum("18446744073709551615", u));
    EXPECT_EQ(u, UINT64_MAX);
    unsigned z = 1;
    EXPECT_TRUE(parseNum("0", z));
    EXPECT_EQ(z, 0u);
}

TEST(ParseNum, RejectsTrailingGarbage)
{
    // The headline atoi bug: "4abc" parsed as 4.
    int i = 99;
    EXPECT_FALSE(parseNum("4abc", i));
    EXPECT_FALSE(parseNum("42 ", i));
    EXPECT_FALSE(parseNum(" 42", i));
    EXPECT_FALSE(parseNum("", i));
    EXPECT_FALSE(parseNum("abc", i));
    EXPECT_FALSE(parseNum("12.5", i));
    // from_chars takes no '+' sign and no 0x prefix.
    EXPECT_FALSE(parseNum("+42", i));
    EXPECT_FALSE(parseNum("0x10", i));
    EXPECT_EQ(i, 99) << "failed parse must not clobber the output";
}

TEST(ParseNum, RejectsOverflowAndSignMismatch)
{
    std::uint32_t u = 7;
    EXPECT_FALSE(parseNum("4294967296", u)); // 2^32
    EXPECT_FALSE(parseNum("-1", u));
    EXPECT_EQ(u, 7u);
    std::int8_t s = 0;
    EXPECT_FALSE(parseNum("200", s));
    EXPECT_TRUE(parseNum("-128", s));
    EXPECT_EQ(s, -128);
}

TEST(ParseDouble, AcceptsWholeTokens)
{
    double d = 0.0;
    EXPECT_TRUE(parseDouble("1.5", d));
    EXPECT_EQ(d, 1.5);
    EXPECT_TRUE(parseDouble("1e3", d));
    EXPECT_EQ(d, 1000.0);
    EXPECT_TRUE(parseDouble("-2.25", d));
    EXPECT_EQ(d, -2.25);
    EXPECT_TRUE(parseDouble("0.03", d));
    EXPECT_EQ(d, 0.03);
}

TEST(ParseDouble, RejectsTrailingGarbage)
{
    double d = 7.0;
    EXPECT_FALSE(parseDouble("1.5x", d));
    EXPECT_FALSE(parseDouble("", d));
    EXPECT_FALSE(parseDouble("1,5", d));
    EXPECT_FALSE(parseDouble("scale", d));
    EXPECT_FALSE(parseDouble(" 1.5", d));
    EXPECT_EQ(d, 7.0);
}

/** Run benchutil::tryParse over @p flags; returns success and fills
 *  @p err / @p opt. */
bool
tryFlags(const std::vector<std::string> &flags,
         benchutil::Options &opt, std::string &err)
{
    std::vector<std::string> storage = flags;
    std::vector<char *> argv;
    std::string prog = "bench";
    argv.push_back(prog.data());
    for (std::string &s : storage)
        argv.push_back(s.data());
    return benchutil::tryParse(static_cast<int>(argv.size()),
                               argv.data(), opt, err);
}

TEST(BenchCli, AcceptsWellFormedFlags)
{
    benchutil::Options opt;
    std::string err;
    ASSERT_TRUE(tryFlags({"--scale=0.5", "--jobs=4", "--seed=7",
                          "--bench=bfs"},
                         opt, err))
        << err;
    EXPECT_EQ(opt.params.scale, 0.5);
    EXPECT_EQ(opt.jobs, 4u);
    EXPECT_EQ(opt.params.seed, 7u);
    ASSERT_EQ(opt.benchmarks.size(), 1u);
    EXPECT_EQ(opt.benchmarks[0], BenchmarkId::Bfs);
}

TEST(BenchCli, RejectsMalformedNumericFlags)
{
    benchutil::Options opt;
    std::string err;
    // Each of these previously parsed to a truncated value via
    // atof/atoi; now they are hard errors naming the flag.
    EXPECT_FALSE(tryFlags({"--scale=0.5abc"}, opt, err));
    EXPECT_NE(err.find("--scale"), std::string::npos);
    EXPECT_FALSE(tryFlags({"--scale=abc"}, opt, err));
    EXPECT_FALSE(tryFlags({"--scale=-1"}, opt, err));
    EXPECT_FALSE(tryFlags({"--scale=0"}, opt, err));
    // parseDouble takes these, but a NaN scale shrank the run to one
    // unit and an infinite one mapped an unbounded region.
    EXPECT_FALSE(tryFlags({"--scale=nan"}, opt, err));
    EXPECT_NE(err.find("--scale"), std::string::npos);
    EXPECT_FALSE(tryFlags({"--scale=inf"}, opt, err));
    EXPECT_FALSE(tryFlags({"--scale=-inf"}, opt, err));
    EXPECT_FALSE(tryFlags({"--jobs=4abc"}, opt, err));
    EXPECT_NE(err.find("--jobs"), std::string::npos);
    EXPECT_FALSE(tryFlags({"--jobs=0"}, opt, err));
    EXPECT_FALSE(tryFlags({"--jobs=-2"}, opt, err));
    EXPECT_FALSE(tryFlags({"--seed=12x"}, opt, err));
    EXPECT_NE(err.find("--seed"), std::string::npos);
    EXPECT_FALSE(tryFlags({"--seed=-1"}, opt, err));
    EXPECT_FALSE(
        tryFlags({"--sample-interval=100q", "--sample-out=s.csv"},
                 opt, err));
    EXPECT_NE(err.find("--sample-interval"), std::string::npos);
    EXPECT_FALSE(tryFlags(
        {"--sample-interval=0", "--sample-out=s.csv"}, opt, err));
    EXPECT_FALSE(tryFlags({"--bench=nosuch"}, opt, err));
    EXPECT_FALSE(tryFlags({"--frobnicate=1"}, opt, err));
    EXPECT_NE(err.find("unknown option"), std::string::npos);
}

TEST(BenchCli, NewWorkloadsAreSelectable)
{
    for (const char *name : {"hashprobe", "spgrid", "service"}) {
        benchutil::Options opt;
        std::string err;
        ASSERT_TRUE(tryFlags({std::string("--bench=") + name}, opt,
                             err))
            << err;
        ASSERT_EQ(opt.benchmarks.size(), 1u);
        EXPECT_EQ(benchmarkName(opt.benchmarks[0]), name);
    }
}

TEST(ParseScale, WantsAFiniteNumberAboveZero)
{
    double d = 7.0;
    EXPECT_TRUE(parseScale("0.25", d));
    EXPECT_EQ(d, 0.25);
    for (const char *bad : {"nan", "inf", "-inf", "0", "-0.5", "1e999",
                            "x"})
        EXPECT_FALSE(parseScale(bad, d)) << bad;
    EXPECT_EQ(d, 0.25);
}

TEST(ParseScaleDeathTest, BenchmarkRejectsANonFiniteScale)
{
    // The library checks the scale too, for callers that build
    // WorkloadParams without a CLI.
    SystemConfig cfg = presets::augmentedTlb();
    cfg.numCores = 2;
    for (const double scale :
         {std::nan(""), HUGE_VAL, -HUGE_VAL, 0.0, -1.0}) {
        WorkloadParams p;
        p.scale = scale;
        EXPECT_EXIT(runConfig(BenchmarkId::Bfs, cfg, p),
                    ::testing::ExitedWithCode(1),
                    "WorkloadParams.scale \\(.*\\) must be a finite "
                    "number above 0")
            << scale;
    }
    // A finite scale whose sizes do not fit: 1e300 overflows every
    // count, and 3e11 would wrap bfs's 64 MiB region past 2^64 bytes.
    for (const double scale : {1e300, 3e11}) {
        WorkloadParams p;
        p.scale = scale;
        EXPECT_EXIT(runConfig(BenchmarkId::Bfs, cfg, p),
                    ::testing::ExitedWithCode(1),
                    "WorkloadParams.scale \\(.*\\) is too large")
            << scale;
    }
}

/** RAII LC_NUMERIC override; skips the test when the locale is not
 *  installed in the image. */
class ScopedCommaLocale
{
  public:
    ScopedCommaLocale()
    {
        const char *prev = std::setlocale(LC_NUMERIC, nullptr);
        saved_ = prev != nullptr ? prev : "C";
        for (const char *name :
             {"de_DE.UTF-8", "de_DE.utf8", "fr_FR.UTF-8",
              "fr_FR.utf8"}) {
            if (std::setlocale(LC_NUMERIC, name) != nullptr) {
                active_ = true;
                return;
            }
        }
    }
    ~ScopedCommaLocale() { std::setlocale(LC_NUMERIC, saved_.c_str()); }
    bool active() const { return active_; }

  private:
    std::string saved_;
    bool active_ = false;
};

TEST(Locale, ParseDoubleIgnoresLcNumeric)
{
    ScopedCommaLocale locale;
    if (!locale.active())
        GTEST_SKIP() << "no comma-decimal locale installed";
    double d = 0.0;
    // Under de_DE std::stod("1.5") returns 1 (stops at the '.').
    ASSERT_TRUE(parseDouble("1.5", d));
    EXPECT_EQ(d, 1.5);
    EXPECT_FALSE(parseDouble("1,5", d));
}

TEST(Locale, JsonRoundTripsUnderCommaLocale)
{
    ScopedCommaLocale locale;
    if (!locale.active())
        GTEST_SKIP() << "no comma-decimal locale installed";

    // Emit (jsonNum/to_chars, locale-free) and re-parse
    // (parseJson/parseDouble/from_chars, locale-free), as a DSE
    // --out file and its --resume-from reload do: the round trip must
    // recover the exact values even with LC_NUMERIC=de_DE.
    const std::string json = "{\"scale\":" + jsonNum(0.25) +
                             ",\"points\":[{\"wall_seconds\":" +
                             jsonNum(0.5) + ",\"cycles_per_sec\":" +
                             jsonNum(246912.0) + "}]}";
    EXPECT_NE(json.find("\"scale\":0.25"), std::string::npos);

    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson(json, doc, &err)) << err;
    const JsonValue *scale = doc.find("scale");
    ASSERT_NE(scale, nullptr);
    EXPECT_EQ(scale->number, 0.25);
    const JsonValue *pts = doc.find("points");
    ASSERT_NE(pts, nullptr);
    ASSERT_EQ(pts->items.size(), 1u);
    const JsonValue *wall = pts->items[0].find("wall_seconds");
    ASSERT_NE(wall, nullptr);
    EXPECT_EQ(wall->number, 0.5);
    const JsonValue *cps = pts->items[0].find("cycles_per_sec");
    ASSERT_NE(cps, nullptr);
    EXPECT_EQ(cps->number, 246912.0);
}

} // namespace
