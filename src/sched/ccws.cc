#include "sched/ccws.hh"

#include <algorithm>
#include <numeric>

#include "sim/logging.hh"

namespace gpummu {

namespace {

/** Exponential decay by right-shifting per elapsed half-life. */
void
decayScores(std::vector<std::uint64_t> &scores, Cycle &last, Cycle now,
            Cycle half_life)
{
    if (now <= last)
        return;
    const Cycle steps = (now - last) / half_life;
    if (steps == 0)
        return;
    last += steps * half_life;
    const unsigned shift =
        static_cast<unsigned>(std::min<Cycle>(steps, 63));
    for (auto &s : scores)
        s >>= shift;
}

/**
 * Allowed set: when the total score exceeds the cutoff, only the
 * highest-scoring warps - greedily accumulated until the cutoff is
 * reached - keep memory-issue rights. Everyone is allowed below the
 * cutoff.
 */
bool
computeAllowed(const std::vector<std::uint64_t> &scores,
               std::uint64_t cutoff, unsigned min_allowed,
               std::vector<bool> &allowed)
{
    const std::uint64_t total =
        std::accumulate(scores.begin(), scores.end(),
                        std::uint64_t{0});
    if (total <= cutoff) {
        std::fill(allowed.begin(), allowed.end(), true);
        return false;
    }
    std::vector<int> order(scores.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
        return scores[static_cast<std::size_t>(a)] >
               scores[static_cast<std::size_t>(b)];
    });
    std::fill(allowed.begin(), allowed.end(), false);
    std::uint64_t acc = 0;
    unsigned count = 0;
    for (int w : order) {
        acc += scores[static_cast<std::size_t>(w)];
        if (count < min_allowed || acc <= cutoff) {
            allowed[static_cast<std::size_t>(w)] = true;
            ++count;
        }
        if (acc > cutoff && count >= min_allowed)
            break;
    }
    return true;
}

} // namespace

// --------------------------------------------------------- VtaThrottle

VtaThrottle::VtaThrottle(const ThrottleConfig &cfg, unsigned num_warps)
    : cfg_(cfg), rr_(num_warps), scores_(num_warps, 0),
      allowed_(num_warps, true)
{
    vtas_.reserve(num_warps);
    for (unsigned i = 0; i < num_warps; ++i) {
        vtas_.push_back(std::make_unique<SetAssocArray<char>>(
            cfg.vtaEntriesPerWarp, cfg.vtaWays));
    }
}

bool
VtaThrottle::mayIssueMem(int warp_id)
{
    return allowed_[static_cast<std::size_t>(warp_id)];
}

bool
VtaThrottle::lostLocality(int warp_id, std::uint64_t tag)
{
    if (!vtas_[static_cast<std::size_t>(warp_id)]->lookup(tag).hit)
        return false;
    vtaHits_.inc();
    return true;
}

void
VtaThrottle::recordVictim(std::uint64_t tag, int alloc_warp)
{
    if (alloc_warp < 0 ||
        alloc_warp >= static_cast<int>(vtas_.size()))
        return;
    vtas_[static_cast<std::size_t>(alloc_warp)]->insert(tag, 0);
}

void
VtaThrottle::bump(int warp_id, std::uint64_t amount)
{
    auto &s = scores_[static_cast<std::size_t>(warp_id)];
    s = std::min(s + amount, cfg_.scoreCap);
}

void
VtaThrottle::onWarpReset(int warp_id)
{
    if (warp_id < 0 || warp_id >= static_cast<int>(scores_.size()))
        return;
    scores_[static_cast<std::size_t>(warp_id)] = 0;
    vtas_[static_cast<std::size_t>(warp_id)]->flush();
    recomputeAllowed();
}

void
VtaThrottle::recomputeAllowed()
{
    throttling_ = computeAllowed(scores_, cfg_.cutoff,
                                 cfg_.minAllowed, allowed_);
}

void
VtaThrottle::tick(Cycle now)
{
    decayScores(scores_, lastDecay_, now, cfg_.halfLife);
    if (now - lastUpdate_ >= cfg_.updateInterval) {
        lastUpdate_ = now;
        recomputeAllowed();
    }
    if (throttling_)
        throttledCycles_.inc();
}

std::uint64_t
VtaThrottle::score(int warp_id) const
{
    return scores_[static_cast<std::size_t>(warp_id)];
}

std::uint64_t
VtaThrottle::totalScore() const
{
    return std::accumulate(scores_.begin(), scores_.end(),
                           std::uint64_t{0});
}

void
VtaThrottle::regStats(StatRegistry &reg, const std::string &prefix)
{
    reg.addCounter(prefix + ".vta_hits", &vtaHits_);
    reg.addCounter(prefix + ".throttled_cycles", &throttledCycles_);
}

// ---------------------------------------------------------------- Ccws

Ccws::Ccws(const CcwsConfig &cfg, unsigned num_warps)
    : VtaThrottle(cfg, num_warps),
      tlbMissWeight_(cfg.tlbMissWeight)
{
}

void
Ccws::onL1Miss(int warp_id, PhysAddr line_addr, bool tlb_missed)
{
    if (lostLocality(warp_id, line_addr)) {
        bump(warp_id, tlb_missed ? cfg_.vtaHitScore * tlbMissWeight_
                                 : cfg_.vtaHitScore);
    }
}

void
Ccws::onL1Eviction(PhysAddr line_addr, int alloc_warp)
{
    recordVictim(line_addr, alloc_warp);
}

// ---------------------------------------------------------------- Tcws

Tcws::Tcws(const TcwsConfig &cfg, unsigned num_warps)
    : VtaThrottle(cfg, num_warps), lruWeights_(cfg.lruWeights)
{
}

void
Tcws::onTlbMiss(int warp_id, Vpn vpn)
{
    if (lostLocality(warp_id, vpn))
        bump(warp_id, cfg_.vtaHitScore);
}

void
Tcws::onTlbHit(int warp_id, Vpn vpn, unsigned depth)
{
    (void)vpn;
    const std::uint64_t w = lruWeights_[std::min<unsigned>(depth, 3)];
    if (w > 0)
        bump(warp_id, w);
}

void
Tcws::onTlbEviction(Vpn vpn, int alloc_warp)
{
    recordVictim(vpn, alloc_warp);
}

} // namespace gpummu
