/**
 * @file
 * Lightweight statistics package.
 *
 * Components register named Counter / ScalarStat / Histogram objects
 * with a StatRegistry owned by the top-level system. The registry can
 * dump all stats in a stable, grep-friendly text format and supports
 * reset (used between warmup and measurement phases).
 */

#ifndef SIM_STATS_HH
#define SIM_STATS_HH

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "sim/logging.hh"

namespace gpummu {

/** Monotonically increasing event count. */
class Counter
{
  public:
    Counter() = default;

    void inc(std::uint64_t n = 1) { value_ += n; }
    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/** A settable floating point statistic (rates, averages). */
class ScalarStat
{
  public:
    ScalarStat() = default;

    void set(double v) { value_ = v; }
    void add(double v) { value_ += v; }
    double value() const { return value_; }
    void reset() { value_ = 0.0; }

  private:
    double value_ = 0.0;
};

/**
 * Accumulates samples; reports count, sum, mean, min and max.
 * Optionally keeps a fixed-width bucketed distribution.
 */
class Histogram
{
  public:
    /**
     * @param bucket_width width of each distribution bucket; 0 keeps
     *                     only the summary (count / mean / min / max).
     * @param num_buckets  buckets before the overflow bucket.
     */
    explicit Histogram(std::uint64_t bucket_width = 0,
                       std::size_t num_buckets = 0);

    void sample(std::uint64_t v, std::uint64_t count = 1);

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }
    std::uint64_t min() const { return count_ ? min_ : 0; }
    std::uint64_t max() const { return count_ ? max_ : 0; }
    double mean() const;

    /** Bucket counts; last bucket is overflow. Empty when summary-only. */
    const std::vector<std::uint64_t> &buckets() const { return buckets_; }
    std::uint64_t bucketWidth() const { return bucketWidth_; }

    /**
     * Percentile estimate for @p q in (0, 1], from the always-on
     * power-of-two distribution every sample also lands in: the
     * sample of rank ceil(q * count) is located in its log2 bucket
     * and linearly interpolated across the bucket's value range,
     * clamped to [min, max]. Exact for single-valued buckets,
     * deterministic always; 0 when the histogram is empty.
     */
    double percentile(double q) const;

    void reset();

  private:
    /** Power-of-two bucket index of a sample value. */
    static std::size_t logBucketOf(std::uint64_t v);

    std::uint64_t bucketWidth_;
    std::vector<std::uint64_t> buckets_;
    /** logBuckets_[i] counts samples with bit_width(v) == i. */
    std::array<std::uint64_t, 65> logBuckets_{};
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = 0;
    std::uint64_t max_ = 0;
};

/** Escape a string for inclusion in a JSON string literal. */
std::string jsonEscape(const std::string &s);

/**
 * Format a double for JSON with shortest round-trip precision; the
 * same value always formats to the same text, which the replay and
 * golden-stats tests rely on. Non-finite values become null.
 */
std::string jsonNum(double v);

/**
 * Name to stat mapping. Components register stats at construction
 * time; names use dotted paths ("core0.tlb.misses").
 */
class StatRegistry
{
  public:
    /** Register a counter; the registry does not own the object. */
    void addCounter(const std::string &name, Counter *c);
    void addScalar(const std::string &name, ScalarStat *s);
    void addHistogram(const std::string &name, Histogram *h);

    Counter *findCounter(const std::string &name) const;
    ScalarStat *findScalar(const std::string &name) const;
    Histogram *findHistogram(const std::string &name) const;

    /** Zero every registered statistic. */
    void resetAll();

    /**
     * Visit every registered stat in name order (the order dump and
     * dumpJson use). Observation-only consumers (the telemetry
     * sampler) snapshot through these without owning the registry.
     */
    void forEachCounter(
        const std::function<void(const std::string &, const Counter &)>
            &fn) const;
    void forEachHistogram(
        const std::function<void(const std::string &,
                                 const Histogram &)> &fn) const;

    /** Dump "name value" lines, sorted by name. */
    void dump(std::ostream &os) const;

    /**
     * Dump every stat as one JSON object, sorted by name:
     * {"counters":{...},"scalars":{...},"histograms":{...}}.
     * Output is byte-stable for identical stat values, so two dumps
     * can be compared with string equality.
     */
    void dumpJson(std::ostream &os) const;

  private:
    std::map<std::string, Counter *> counters_;
    std::map<std::string, ScalarStat *> scalars_;
    std::map<std::string, Histogram *> histograms_;
};

} // namespace gpummu

#endif // SIM_STATS_HH
