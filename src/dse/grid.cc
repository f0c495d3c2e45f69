#include "dse/grid.hh"

#include <charconv>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <system_error>

#include "sim/logging.hh"
#include "sim/stats.hh"

namespace gpummu {

namespace {

/** Strict full-token unsigned parse; false on garbage/overflow. */
template <typename T>
bool
parseUint(const std::string &tok, T &out)
{
    if (tok.empty())
        return false;
    T v{};
    const char *first = tok.data();
    const char *last = tok.data() + tok.size();
    const auto [ptr, ec] = std::from_chars(first, last, v);
    if (ec != std::errc() || ptr != last)
        return false;
    out = v;
    return true;
}

bool
splitList(const std::string &text, char sep,
          std::vector<std::string> &out)
{
    out.clear();
    std::string cur;
    std::istringstream is(text);
    while (std::getline(is, cur, sep))
        out.push_back(cur);
    return !out.empty();
}

template <typename T>
bool
parseUintList(const std::string &text, std::vector<T> &out,
              bool allow_zero)
{
    std::vector<std::string> toks;
    if (!splitList(text, ',', toks))
        return false;
    out.clear();
    for (const std::string &tok : toks) {
        T v{};
        if (!parseUint(tok, v))
            return false;
        if (v == 0 && !allow_zero)
            return false;
        out.push_back(v);
    }
    return true;
}

bool
fail(std::string *err, const std::string &why)
{
    if (err != nullptr)
        *err = why;
    return false;
}

} // namespace

std::size_t
DseGrid::numPoints() const
{
    return tlbEntries.size() * tlbWays.size() * tlbPorts.size() *
           pwcLines.size() * l2tlbEntries.size() * l2tlbPorts.size() *
           walkers.size() * largePages.size();
}

bool
parseGridSpec(const std::string &spec, DseGrid &out, std::string *err)
{
    std::vector<std::string> fields;
    if (!splitList(spec, ';', fields))
        return fail(err, "empty grid spec");
    for (const std::string &field : fields) {
        const std::size_t eq = field.find('=');
        if (eq == std::string::npos || eq == 0)
            return fail(err, "grid field '" + field +
                                 "' is not key=v1,v2,...");
        const std::string key = field.substr(0, eq);
        const std::string vals = field.substr(eq + 1);
        bool ok = false;
        if (key == "tlb_entries") {
            ok = parseUintList(vals, out.tlbEntries, false);
        } else if (key == "tlb_ways") {
            ok = parseUintList(vals, out.tlbWays, false);
        } else if (key == "tlb_ports") {
            ok = parseUintList(vals, out.tlbPorts, false);
        } else if (key == "pwc_lines") {
            ok = parseUintList(vals, out.pwcLines, true);
        } else if (key == "l2tlb_entries") {
            ok = parseUintList(vals, out.l2tlbEntries, true);
        } else if (key == "l2tlb_ports") {
            ok = parseUintList(vals, out.l2tlbPorts, false);
        } else if (key == "walkers") {
            // "<n>" = n naive walkers, "<n>s" = scheduled walking
            // (the batch coalescer uses one walker; n must be 1).
            std::vector<std::string> toks;
            ok = splitList(vals, ',', toks);
            out.walkers.clear();
            for (const std::string &tok0 : toks) {
                std::string tok = tok0;
                bool sched = false;
                if (!tok.empty() && tok.back() == 's') {
                    sched = true;
                    tok.pop_back();
                }
                unsigned n = 0;
                if (!parseUint(tok, n) || n == 0 || (sched && n != 1)) {
                    ok = false;
                    break;
                }
                out.walkers.emplace_back(n, sched);
            }
            ok = ok && !out.walkers.empty();
        } else if (key == "page") {
            std::vector<std::string> toks;
            ok = splitList(vals, ',', toks);
            out.largePages.clear();
            for (const std::string &tok : toks) {
                if (tok == "4k") {
                    out.largePages.push_back(false);
                } else if (tok == "2m") {
                    out.largePages.push_back(true);
                } else {
                    ok = false;
                    break;
                }
            }
            ok = ok && !out.largePages.empty();
        } else {
            return fail(err, "unknown grid knob '" + key + "'");
        }
        if (!ok)
            return fail(err, "bad value list for grid knob '" + key +
                                 "': '" + vals + "'");
    }
    return true;
}

bool
namedGrid(const std::string &name, DseGrid &out)
{
    // All three stay parseable specs so the CLI help can print them
    // and tests can round-trip them through parseGridSpec.
    std::string spec;
    if (name == "tiny") {
        // 8 points: the CI smoke grid.
        spec = "tlb_entries=64,128;walkers=1,1s;l2tlb_entries=0,1024";
    } else if (name == "smoke") {
        // 64 points: the reproducible EXPERIMENTS.md frontier.
        spec = "tlb_entries=64,128,256,512;tlb_ports=2,4;"
               "pwc_lines=0,16;l2tlb_entries=0,4096;"
               "walkers=1,1s;page=4k";
    } else if (name == "default") {
        // 768 points: the full pathfinding sweep.
        spec = "tlb_entries=64,128,256,512;tlb_ways=2,4;"
               "tlb_ports=2,4;pwc_lines=0,16;"
               "l2tlb_entries=0,2048,8192;"
               "walkers=1,2,4,1s;page=4k,2m";
    } else {
        return false;
    }
    DseGrid g;
    std::string err;
    const bool ok = parseGridSpec(spec, g, &err);
    GPUMMU_ASSERT(ok, "named grid '", name, "' failed to parse: ",
                  err);
    out = g;
    return true;
}

std::string
gridSpecString(const DseGrid &grid)
{
    std::ostringstream os;
    auto list = [&os](const char *key, const auto &vals,
                      auto &&fmt1) {
        os << key << '=';
        for (std::size_t i = 0; i < vals.size(); ++i)
            os << (i ? "," : "") << fmt1(vals[i]);
        os << ';';
    };
    auto id = [](auto v) { return v; };
    list("tlb_entries", grid.tlbEntries, id);
    list("tlb_ways", grid.tlbWays, id);
    list("tlb_ports", grid.tlbPorts, id);
    list("pwc_lines", grid.pwcLines, id);
    list("l2tlb_entries", grid.l2tlbEntries, id);
    list("l2tlb_ports", grid.l2tlbPorts, id);
    list("walkers", grid.walkers,
         [](const std::pair<unsigned, bool> &w) {
             return std::to_string(w.first) + (w.second ? "s" : "");
         });
    os << "page=";
    for (std::size_t i = 0; i < grid.largePages.size(); ++i)
        os << (i ? "," : "") << (grid.largePages[i] ? "2m" : "4k");
    return os.str();
}

std::vector<DseKnobs>
expandGrid(const DseGrid &grid)
{
    auto bad = [](const std::string &why) {
        throw std::invalid_argument("grid: " + why);
    };
    if (grid.numPoints() == 0)
        bad("an axis is empty");

    std::vector<DseKnobs> pts;
    pts.reserve(grid.numPoints());
    for (std::size_t entries : grid.tlbEntries)
        for (std::size_t ways : grid.tlbWays)
            for (unsigned ports : grid.tlbPorts)
                for (std::size_t pwc : grid.pwcLines)
                    for (std::size_t l2e : grid.l2tlbEntries)
                        for (unsigned l2p : grid.l2tlbPorts)
                            for (const auto &[wn, ws] : grid.walkers)
                                for (bool lp : grid.largePages)
                                    pts.push_back({entries, ways, ports,
                                                   pwc, l2e, l2p, wn,
                                                   ws, lp});

    for (const DseKnobs &k : pts) {
        const SystemConfig cfg = makeDseConfig(k, 1);
        std::vector<std::string> why = cfg.validate();
        // The grid sweeps set-associative geometries: more ways than
        // entries would run fully associative under a set-assoc name.
        if (cfg.core.mmu.tlb.ways > cfg.core.mmu.tlb.entries ||
            (cfg.l2tlb.enabled && cfg.l2tlb.ways > cfg.l2tlb.entries))
            why.push_back("more ways than entries");
        if (!why.empty())
            bad(knobSpec(k) + ": " + why.front());
    }
    return pts;
}

std::string
knobSpec(const DseKnobs &k)
{
    std::ostringstream os;
    os << "tlb" << k.tlbEntries << 'e' << k.tlbWays << 'w'
       << k.tlbPorts << "p-pwc" << k.pwcLines << "-l2";
    if (k.l2tlbEntries == 0)
        os << "none";
    else
        os << k.l2tlbEntries << 'e' << k.l2tlbPorts << 'p';
    os << "-w" << k.walkers << (k.walkSched ? "s" : "") << '-'
       << (k.largePages ? "2m" : "4k");
    return os.str();
}

SystemConfig
makeDseConfig(const DseKnobs &k, unsigned num_cores)
{
    SystemConfig cfg;
    cfg.name = "dse-" + knobSpec(k);
    cfg.numCores = num_cores;
    cfg.core.mmu.enabled = true;
    cfg.core.mmu.tlb.entries = k.tlbEntries;
    cfg.core.mmu.tlb.ways = k.tlbWays;
    cfg.core.mmu.tlb.ports = k.tlbPorts;
    // The DSE explores around the paper's augmented design: hits
    // under misses and overlapped cache access stay on, so the knobs
    // under study are the only thing varying.
    cfg.core.mmu.hitUnderMiss = true;
    cfg.core.mmu.cacheOverlap = true;
    cfg.core.mmu.ptw.pwcLines = k.pwcLines;
    cfg.core.mmu.ptw.numWalkers = k.walkers;
    cfg.core.mmu.ptw.scheduling = k.walkSched;
    if (k.l2tlbEntries != 0) {
        cfg.l2tlb.enabled = true;
        cfg.l2tlb.entries = k.l2tlbEntries;
        cfg.l2tlb.ports = k.l2tlbPorts;
    }
    cfg.largePages = k.largePages;
    return cfg;
}

std::uint64_t
fnv1a64(const std::string &s)
{
    std::uint64_t h = 14695981039346656037ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

std::string
dsePointKey(BenchmarkId bench, const WorkloadParams &params,
            unsigned num_cores, const DseKnobs &k)
{
    // jsonNum gives the shortest round-trip spelling of scale, so the
    // preimage is identical however the double was produced.
    const std::string preimage =
        benchmarkName(bench) + "|s" + std::to_string(params.seed) +
        "|x" + jsonNum(params.scale) + "|c" +
        std::to_string(num_cores) + "|" + knobSpec(k);
    const std::uint64_t h = fnv1a64(preimage);
    char buf[17];
    static const char *hex = "0123456789abcdef";
    for (int i = 0; i < 16; ++i)
        buf[i] = hex[(h >> (60 - 4 * i)) & 0xF];
    buf[16] = '\0';
    return std::string(buf);
}

} // namespace gpummu
