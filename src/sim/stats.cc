#include "sim/stats.hh"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <iomanip>

namespace gpummu {

Histogram::Histogram(std::uint64_t bucket_width, std::size_t num_buckets)
    : bucketWidth_(bucket_width)
{
    if (bucket_width > 0)
        buckets_.assign(num_buckets + 1, 0);
}

void
Histogram::sample(std::uint64_t v, std::uint64_t count)
{
    if (count == 0)
        return;
    if (count_ == 0) {
        min_ = v;
        max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    count_ += count;
    sum_ += v * count;
    if (bucketWidth_ > 0) {
        std::size_t idx = static_cast<std::size_t>(v / bucketWidth_);
        if (idx >= buckets_.size())
            idx = buckets_.size() - 1;
        buckets_[idx] += count;
    }
    logBuckets_[logBucketOf(v)] += count;
}

std::size_t
Histogram::logBucketOf(std::uint64_t v)
{
    return static_cast<std::size_t>(std::bit_width(v));
}

double
Histogram::percentile(double q) const
{
    if (count_ == 0)
        return 0.0;
    const double want = std::ceil(q * static_cast<double>(count_));
    const std::uint64_t rank = std::min<std::uint64_t>(
        std::max<std::uint64_t>(static_cast<std::uint64_t>(want), 1),
        count_);
    std::uint64_t below = 0;
    for (std::size_t b = 0; b < logBuckets_.size(); ++b) {
        const std::uint64_t n = logBuckets_[b];
        if (n == 0)
            continue;
        if (below + n < rank) {
            below += n;
            continue;
        }
        // bucket b holds values with bit_width == b:
        // b == 0 -> {0}, else [2^(b-1), 2^b - 1].
        const double lo =
            b == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(b) - 1);
        const double hi =
            b == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(b)) - 1.0;
        const double frac =
            n <= 1 ? 1.0
                   : static_cast<double>(rank - below) /
                         static_cast<double>(n);
        double v = lo + frac * (hi - lo);
        v = std::max(v, static_cast<double>(min_));
        v = std::min(v, static_cast<double>(max_));
        return v;
    }
    return static_cast<double>(max_);
}

double
Histogram::mean() const
{
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_)
                  : 0.0;
}

void
Histogram::reset()
{
    count_ = 0;
    sum_ = 0;
    min_ = 0;
    max_ = 0;
    std::fill(buckets_.begin(), buckets_.end(), 0);
    logBuckets_.fill(0);
}

void
StatRegistry::addCounter(const std::string &name, Counter *c)
{
    GPUMMU_ASSERT(c != nullptr);
    auto [it, inserted] = counters_.emplace(name, c);
    (void)it;
    GPUMMU_ASSERT(inserted, "duplicate counter name: ", name);
}

void
StatRegistry::addScalar(const std::string &name, ScalarStat *s)
{
    GPUMMU_ASSERT(s != nullptr);
    auto [it, inserted] = scalars_.emplace(name, s);
    (void)it;
    GPUMMU_ASSERT(inserted, "duplicate scalar name: ", name);
}

void
StatRegistry::addHistogram(const std::string &name, Histogram *h)
{
    GPUMMU_ASSERT(h != nullptr);
    auto [it, inserted] = histograms_.emplace(name, h);
    (void)it;
    GPUMMU_ASSERT(inserted, "duplicate histogram name: ", name);
}

Counter *
StatRegistry::findCounter(const std::string &name) const
{
    auto it = counters_.find(name);
    return it == counters_.end() ? nullptr : it->second;
}

ScalarStat *
StatRegistry::findScalar(const std::string &name) const
{
    auto it = scalars_.find(name);
    return it == scalars_.end() ? nullptr : it->second;
}

Histogram *
StatRegistry::findHistogram(const std::string &name) const
{
    auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : it->second;
}

void
StatRegistry::resetAll()
{
    for (auto &[name, c] : counters_)
        c->reset();
    for (auto &[name, s] : scalars_)
        s->reset();
    for (auto &[name, h] : histograms_)
        h->reset();
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
jsonNum(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    GPUMMU_ASSERT(ec == std::errc());
    return std::string(buf, ptr);
}

void
StatRegistry::dump(std::ostream &os) const
{
    for (const auto &[name, c] : counters_)
        os << name << " " << c->value() << "\n";
    for (const auto &[name, s] : scalars_)
        os << name << " " << s->value() << "\n";
    for (const auto &[name, h] : histograms_) {
        os << name << ".count " << h->count() << "\n";
        os << name << ".mean " << h->mean() << "\n";
        os << name << ".min " << h->min() << "\n";
        os << name << ".max " << h->max() << "\n";
        os << name << ".p50 " << h->percentile(0.50) << "\n";
        os << name << ".p95 " << h->percentile(0.95) << "\n";
        os << name << ".p99 " << h->percentile(0.99) << "\n";
    }
}

void
StatRegistry::forEachCounter(
    const std::function<void(const std::string &, const Counter &)>
        &fn) const
{
    for (const auto &[name, c] : counters_)
        fn(name, *c);
}

void
StatRegistry::forEachHistogram(
    const std::function<void(const std::string &, const Histogram &)>
        &fn) const
{
    for (const auto &[name, h] : histograms_)
        fn(name, *h);
}

void
StatRegistry::dumpJson(std::ostream &os) const
{
    os << "{\"counters\":{";
    bool first = true;
    for (const auto &[name, c] : counters_) {
        os << (first ? "" : ",") << '"' << jsonEscape(name)
           << "\":" << c->value();
        first = false;
    }
    os << "},\"scalars\":{";
    first = true;
    for (const auto &[name, s] : scalars_) {
        os << (first ? "" : ",") << '"' << jsonEscape(name)
           << "\":" << jsonNum(s->value());
        first = false;
    }
    os << "},\"histograms\":{";
    first = true;
    for (const auto &[name, h] : histograms_) {
        os << (first ? "" : ",") << '"' << jsonEscape(name)
           << "\":{\"count\":" << h->count()
           << ",\"sum\":" << h->sum()
           << ",\"mean\":" << jsonNum(h->mean())
           << ",\"min\":" << h->min() << ",\"max\":" << h->max()
           << ",\"p50\":" << jsonNum(h->percentile(0.50))
           << ",\"p95\":" << jsonNum(h->percentile(0.95))
           << ",\"p99\":" << jsonNum(h->percentile(0.99));
        if (h->bucketWidth() > 0) {
            os << ",\"bucket_width\":" << h->bucketWidth()
               << ",\"buckets\":[";
            const auto &b = h->buckets();
            for (std::size_t i = 0; i < b.size(); ++i)
                os << (i ? "," : "") << b[i];
            os << "]";
        }
        os << "}";
        first = false;
    }
    os << "}}";
}

} // namespace gpummu
