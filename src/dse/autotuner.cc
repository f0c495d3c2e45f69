#include "dse/autotuner.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/sweep.hh"
#include "dse/pareto.hh"
#include "sim/logging.hh"
#include "sim/json.hh"
#include "sim/stats.hh"

namespace gpummu {

namespace {

DsePointMetrics
metricsFrom(const RunStats &s)
{
    DsePointMetrics m;
    m.cycles = s.cycles;
    m.instructions = s.instructions;
    m.tlbAccesses = s.tlbAccesses;
    m.tlbHits = s.tlbHits;
    m.walkRefsIssued = s.walkRefsIssued;
    m.avgTlbMissLatency = s.avgTlbMissLatency;
    return m;
}

} // namespace

DseResult
runDse(const DseGrid &grid, const DseOptions &opt,
       const std::map<std::string, DsePointMetrics> &cache)
{
    DseResult r;
    r.opt = opt;
    r.gridSpec = gridSpecString(grid);

    const std::vector<DseKnobs> knobs = expandGrid(grid);
    GPUMMU_ASSERT(!knobs.empty(), "empty design grid");

    r.points.resize(knobs.size());
    std::vector<std::size_t> missing;
    for (std::size_t i = 0; i < knobs.size(); ++i) {
        DsePointResult &p = r.points[i];
        p.knobs = knobs[i];
        p.key = dsePointKey(opt.bench, opt.params, opt.numCores,
                            knobs[i]);
        auto it = cache.find(p.key);
        if (it != cache.end()) {
            p.metrics = it->second;
            ++r.reused;
        } else {
            missing.push_back(i);
        }
    }

    // Simulate only the cache misses, fanned out over the sweep
    // pool. The shared Experiment memoizes, so even duplicate knob
    // points (possible via repeated axis values) simulate once.
    if (!missing.empty()) {
        Experiment exp(opt.params);
        std::vector<SweepPoint> sweep;
        sweep.reserve(missing.size());
        for (std::size_t i : missing) {
            sweep.push_back(SweepPoint{
                opt.bench, makeDseConfig(knobs[i], opt.numCores)});
        }
        const std::vector<RunOutput> outs =
            SweepRunner(exp, opt.jobs).run(sweep);
        for (std::size_t j = 0; j < missing.size(); ++j)
            r.points[missing[j]].metrics =
                metricsFrom(outs[j].stats);
        r.simulated = missing.size();
    }

    // Deterministic presentation order: sort by key (ties — i.e.
    // exact duplicate grid points — keep expansion order).
    std::stable_sort(r.points.begin(), r.points.end(),
                     [](const DsePointResult &a,
                        const DsePointResult &b) {
                         return a.key < b.key;
                     });

    std::vector<ParetoPoint> pareto_pts(r.points.size());
    for (std::size_t i = 0; i < r.points.size(); ++i) {
        DsePointResult &p = r.points[i];
        p.area = opt.cost.area(p.knobs, opt.numCores);
        pareto_pts[i] = ParetoPoint{
            p.area, static_cast<double>(p.metrics.cycles)};
    }
    r.frontier = paretoFrontier(pareto_pts);
    for (std::size_t idx : r.frontier)
        r.points[idx].pareto = true;
    return r;
}

std::string
emitDseJson(const DseResult &r)
{
    std::ostringstream os;
    os << "{\"schema_version\":" << kDseSchemaVersion
       << ",\"generator\":\"dse_pareto\",\"bench\":\""
       << jsonEscape(benchmarkName(r.opt.bench)) << "\",\"seed\":"
       << r.opt.params.seed << ",\"scale\":"
       << jsonNum(r.opt.params.scale) << ",\"cores\":"
       << r.opt.numCores << ",\"grid\":\"" << jsonEscape(r.gridSpec)
       << "\",\"points\":[";
    bool first = true;
    for (const DsePointResult &p : r.points) {
        const DseKnobs &k = p.knobs;
        const DsePointMetrics &m = p.metrics;
        os << (first ? "\n" : ",\n") << "{\"key\":\"" << p.key
           << "\",\"config\":\"dse-" << jsonEscape(knobSpec(k))
           << "\",\"tlb_entries\":" << k.tlbEntries
           << ",\"tlb_ways\":" << k.tlbWays
           << ",\"tlb_ports\":" << k.tlbPorts
           << ",\"pwc_lines\":" << k.pwcLines
           << ",\"l2tlb_entries\":" << k.l2tlbEntries
           << ",\"l2tlb_ports\":" << k.l2tlbPorts
           << ",\"walkers\":" << k.walkers
           << ",\"walk_sched\":" << (k.walkSched ? "true" : "false")
           << ",\"page_2m\":" << (k.largePages ? "true" : "false")
           << ",\"cycles\":" << m.cycles
           << ",\"instructions\":" << m.instructions
           << ",\"tlb_accesses\":" << m.tlbAccesses
           << ",\"tlb_hits\":" << m.tlbHits
           << ",\"walk_refs_issued\":" << m.walkRefsIssued
           << ",\"avg_tlb_miss_latency\":"
           << jsonNum(m.avgTlbMissLatency)
           << ",\"area\":" << jsonNum(p.area)
           << ",\"pareto\":" << (p.pareto ? "true" : "false") << "}";
        first = false;
    }
    os << "\n],\"frontier\":[";
    first = true;
    for (std::size_t idx : r.frontier) {
        os << (first ? "" : ",") << '"' << r.points[idx].key << '"';
        first = false;
    }
    os << "]}\n";
    return os.str();
}

namespace {

/** A whole number in [0, 2^64): anything larger has no uint64_t
 *  value, so the cast would be undefined. */
bool
getUint(const JsonValue &obj, const char *key, std::uint64_t &out)
{
    constexpr double kTwoTo64 = 18446744073709551616.0;
    const JsonValue *v = obj.find(key);
    if (v == nullptr || v->kind != JsonValue::Kind::Number ||
        v->number < 0 || v->number >= kTwoTo64 ||
        v->number != std::floor(v->number)) {
        return false;
    }
    out = static_cast<std::uint64_t>(v->number);
    return true;
}

} // namespace

bool
loadDseCache(const std::string &json,
             std::map<std::string, DsePointMetrics> &out,
             std::string *err)
{
    out.clear();
    JsonValue doc;
    std::string perr;
    if (!parseJson(json, doc, &perr)) {
        if (err != nullptr)
            *err = perr;
        return false;
    }
    auto fail = [err](const std::string &why) {
        if (err != nullptr)
            *err = why;
        return false;
    };
    if (doc.kind != JsonValue::Kind::Object)
        return fail("resume file is not a JSON object");
    const JsonValue *sv = doc.find("schema_version");
    if (sv == nullptr || sv->kind != JsonValue::Kind::Number)
        return fail("resume file has no schema_version");
    if (sv->number < 1 || sv->number > kDseSchemaVersion) {
        return fail("resume file schema_version " +
                    std::to_string(sv->number) +
                    " is outside [1, " +
                    std::to_string(kDseSchemaVersion) + "]");
    }
    const JsonValue *pts = doc.find("points");
    if (pts == nullptr || pts->kind != JsonValue::Kind::Array)
        return fail("resume file has no points array");
    for (std::size_t i = 0; i < pts->items.size(); ++i) {
        const JsonValue &p = pts->items[i];
        const std::string where =
            "points[" + std::to_string(i) + "]";
        if (p.kind != JsonValue::Kind::Object)
            return fail(where + " is not an object");
        const JsonValue *key = p.find("key");
        if (key == nullptr || key->kind != JsonValue::Kind::String ||
            key->str.size() != 16) {
            return fail(where + " has no 16-hex-digit key");
        }
        DsePointMetrics m;
        const JsonValue *lat = p.find("avg_tlb_miss_latency");
        if (!getUint(p, "cycles", m.cycles) ||
            !getUint(p, "instructions", m.instructions) ||
            !getUint(p, "tlb_accesses", m.tlbAccesses) ||
            !getUint(p, "tlb_hits", m.tlbHits) ||
            !getUint(p, "walk_refs_issued", m.walkRefsIssued) ||
            lat == nullptr ||
            lat->kind != JsonValue::Kind::Number) {
            return fail(where + " has a missing or malformed metric");
        }
        m.avgTlbMissLatency = lat->number;
        if (m.cycles == 0)
            return fail(where + " has zero cycles");
        // Duplicate grid points legitimately repeat a key (identical
        // simulations by the determinism contract); a repeat with
        // *different* metrics is corruption and must not resume.
        auto [it, inserted] = out.emplace(key->str, m);
        if (!inserted) {
            const DsePointMetrics &prev = it->second;
            if (prev.cycles != m.cycles ||
                prev.instructions != m.instructions ||
                prev.tlbAccesses != m.tlbAccesses ||
                prev.tlbHits != m.tlbHits ||
                prev.walkRefsIssued != m.walkRefsIssued ||
                prev.avgTlbMissLatency != m.avgTlbMissLatency) {
                return fail(where + " repeats key " + key->str +
                            " with conflicting metrics");
            }
        }
    }
    return true;
}

DseValidation
validateDseJson(const std::string &json)
{
    DseValidation v;
    JsonValue doc;
    std::string perr;
    if (!parseJson(json, doc, &perr)) {
        v.errors.push_back(perr);
        return v;
    }
    if (doc.kind != JsonValue::Kind::Object) {
        v.errors.push_back("top level: not a JSON object");
        return v;
    }
    auto require = [&](const char *key, JsonValue::Kind kind)
        -> const JsonValue * {
        const JsonValue *m = doc.find(key);
        if (m == nullptr) {
            v.errors.push_back(std::string("top level: missing '") +
                               key + "'");
            return nullptr;
        }
        if (m->kind != kind) {
            v.errors.push_back(std::string("top level: '") + key +
                               "' has the wrong type");
            return nullptr;
        }
        return m;
    };
    if (const JsonValue *sv =
            require("schema_version", JsonValue::Kind::Number)) {
        if (sv->number != std::floor(sv->number) || sv->number < 1 ||
            sv->number > kDseSchemaVersion) {
            v.errors.push_back(
                "top level: schema_version must be an integer in "
                "[1, " + std::to_string(kDseSchemaVersion) + "]");
        }
    }
    require("generator", JsonValue::Kind::String);
    require("bench", JsonValue::Kind::String);
    require("seed", JsonValue::Kind::Number);
    require("scale", JsonValue::Kind::Number);
    require("cores", JsonValue::Kind::Number);
    require("grid", JsonValue::Kind::String);

    const JsonValue *pts = require("points", JsonValue::Kind::Array);
    const JsonValue *front =
        require("frontier", JsonValue::Kind::Array);
    if (pts == nullptr || front == nullptr)
        return v;
    if (pts->items.empty()) {
        v.errors.push_back("points: array is empty");
        return v;
    }
    std::map<std::string, bool> flags; // key -> pareto flag
    for (std::size_t i = 0; i < pts->items.size(); ++i) {
        const JsonValue &p = pts->items[i];
        const std::string where =
            "points[" + std::to_string(i) + "]";
        if (p.kind != JsonValue::Kind::Object) {
            v.errors.push_back(where + ": not an object");
            continue;
        }
        const JsonValue *key = p.find("key");
        if (key == nullptr ||
            key->kind != JsonValue::Kind::String ||
            key->str.size() != 16) {
            v.errors.push_back(where +
                               ": missing 16-hex-digit 'key'");
            continue;
        }
        for (const char *req :
             {"config", "tlb_entries", "tlb_ways", "tlb_ports",
              "pwc_lines", "l2tlb_entries", "l2tlb_ports", "walkers",
              "walk_sched", "page_2m", "cycles", "instructions",
              "tlb_accesses", "tlb_hits", "walk_refs_issued",
              "avg_tlb_miss_latency", "area", "pareto"}) {
            if (p.find(req) == nullptr) {
                v.errors.push_back(where + ": missing '" + req +
                                   "'");
            }
        }
        const JsonValue *cyc = p.find("cycles");
        if (cyc != nullptr &&
            (cyc->kind != JsonValue::Kind::Number ||
             cyc->number <= 0)) {
            v.errors.push_back(where +
                               ": cycles must be positive");
        }
        const JsonValue *area = p.find("area");
        if (area != nullptr &&
            (area->kind != JsonValue::Kind::Number ||
             !std::isfinite(area->number) || area->number <= 0)) {
            v.errors.push_back(
                where + ": area must be finite and positive");
        }
        const JsonValue *flag = p.find("pareto");
        if (flag != nullptr && flag->kind == JsonValue::Kind::Bool)
            flags[key->str] = flags[key->str] || flag->boolean;
    }
    if (front->items.empty())
        v.errors.push_back("frontier: array is empty");
    std::map<std::string, bool> on_frontier;
    for (const JsonValue &f : front->items) {
        if (f.kind != JsonValue::Kind::String) {
            v.errors.push_back("frontier: non-string key");
            continue;
        }
        if (flags.find(f.str) == flags.end()) {
            v.errors.push_back("frontier: key " + f.str +
                               " not among the points");
            continue;
        }
        on_frontier[f.str] = true;
    }
    for (const auto &[key, flag] : flags) {
        const bool listed =
            on_frontier.find(key) != on_frontier.end();
        if (flag != listed) {
            v.errors.push_back(
                "point " + key +
                ": pareto flag inconsistent with frontier list");
        }
    }
    return v;
}

} // namespace gpummu
