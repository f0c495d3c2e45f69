#include "mem/l1_cache.hh"

#include <algorithm>
#include <bit>

#include "trace/trace.hh"

namespace gpummu {

L1Cache::L1Cache(const L1CacheConfig &cfg, MemorySystem &mem)
    : cfg_(cfg), mem_(mem), array_(cfg.bytes / kLineSize, cfg.ways),
      mshrLine_(2 * cfg.numMshrs), mshrReady_(2 * cfg.numMshrs),
      mshrFilter_(std::size_t{8}
                  << std::bit_width(std::max(cfg.numMshrs, 1u) - 1))
{
    // numMshrs = 0 would retry forever.
    GPUMMU_ASSERT(cfg.numMshrs > 0);
}

std::size_t
L1Cache::findMshr(PhysAddr line) const
{
    if (mshrFilter_[filterIndex(line)] == 0)
        return mshrTail_;
    std::size_t i = mshrHead_;
    while (i != mshrTail_ && mshrLine_[i] != line)
        ++i;
    return i;
}

void
L1Cache::insertMshr(PhysAddr line, Cycle ready_at)
{
    PhysAddr *lines = mshrLine_.data();
    Cycle *ready = mshrReady_.data();
    if (mshrTail_ == mshrLine_.size()) {
        // Slide the live window back to the start of the arrays.
        std::copy(lines + mshrHead_, lines + mshrTail_, lines);
        std::copy(ready + mshrHead_, ready + mshrTail_, ready);
        mshrTail_ -= mshrHead_;
        mshrHead_ = 0;
    }
    const std::size_t pos =
        std::upper_bound(ready + mshrHead_, ready + mshrTail_, ready_at) -
        ready;
    std::move_backward(lines + pos, lines + mshrTail_, lines + mshrTail_ + 1);
    std::move_backward(ready + pos, ready + mshrTail_, ready + mshrTail_ + 1);
    lines[pos] = line;
    ready[pos] = ready_at;
    ++mshrTail_;
    ++mshrFilter_[filterIndex(line)];
}

void
L1Cache::reapMshrs(Cycle now)
{
    while (mshrHead_ != mshrTail_ && mshrReady_[mshrHead_] <= now)
        --mshrFilter_[filterIndex(mshrLine_[mshrHead_++])];
}

AccessOutcome
L1Cache::access(PhysAddr line_addr, bool is_write, Cycle now, int warp_id)
{
    AccessOutcome out;

    if (is_write) {
        accesses_.inc();
        // Write-through no-allocate: forward to the shared system and
        // invalidate any local copy so later loads refetch.
        array_.invalidate(line_addr);
        auto shared = mem_.access(line_addr, true, now + cfg_.hitLatency,
                                  AccessSource::Data);
        // Stores retire into the memory system; the warp does not
        // wait on the response, so report store latency as the local
        // hand-off only.
        out.hit = true;
        out.readyAt = now + cfg_.hitLatency;
        (void)shared;
        return out;
    }

    auto res = array_.lookup(line_addr);
    if (res.hit) {
        accesses_.inc();
        // Tags are allocated at miss time; if the fill is still in
        // flight this is an MSHR merge, not a data hit.
        if (auto i = findMshr(line_addr);
            i != mshrTail_ && mshrReady_[i] > now) {
            mshrMerges_.inc();
            out.hit = false;
            out.mshrMerged = true;
            out.readyAt = mshrReady_[i];
            return out;
        }
        hits_.inc();
        if (trace_)
            trace_->instantAt(TraceCat::L1, "l1_hit", traceTid_, now,
                              "line", line_addr, "warp",
                              static_cast<std::uint64_t>(warp_id));
        out.hit = true;
        out.readyAt = now + cfg_.hitLatency;
        return out;
    }

    // The tag was evicted while its fill is outstanding: merge.
    if (auto i = findMshr(line_addr); i != mshrTail_) {
        if (mshrReady_[i] > now) {
            accesses_.inc();
            mshrMerges_.inc();
            out.hit = false;
            out.mshrMerged = true;
            out.readyAt = mshrReady_[i];
            return out;
        }
        // Stale: shift the front up over it. Only expired entries
        // (readyAt no later than this one's) sit before it.
        --mshrFilter_[filterIndex(line_addr)];
        std::move_backward(&mshrLine_[mshrHead_], &mshrLine_[i],
                           &mshrLine_[i] + 1);
        std::move_backward(&mshrReady_[mshrHead_], &mshrReady_[i],
                           &mshrReady_[i] + 1);
        ++mshrHead_;
    }

    if (mshrTail_ - mshrHead_ >= cfg_.numMshrs) {
        reapMshrs(now);
        if (mshrTail_ - mshrHead_ >= cfg_.numMshrs) {
            // Structural stall: the caller must retry once an
            // outstanding fill returns. Not counted as an access.
            mshrStalls_.inc();
            out.needRetry = true;
            out.readyAt = std::max(now + 1, earliestMshrFree());
            return out;
        }
    }

    accesses_.inc();
    if (trace_)
        trace_->instantAt(TraceCat::L1, "l1_miss", traceTid_, now,
                          "line", line_addr, "warp",
                          static_cast<std::uint64_t>(warp_id));
    auto shared = mem_.access(line_addr, false, now + cfg_.hitLatency,
                              AccessSource::Data);
    insertMshr(line_addr, shared.readyAt);
    missLatency_.sample(shared.readyAt - now);

    // Allocate the tag now (fetch-on-miss with immediate allocation);
    // the evicted victim is reported to the CCWS hook.
    auto victim = array_.insert(line_addr, LineInfo{warp_id});
    if (victim) {
        evictions_.inc();
        if (onEvict_)
            onEvict_(victim->tag, victim->payload.allocWarp);
    }

    out.hit = false;
    out.dram = shared.dram;
    out.readyAt = shared.readyAt;
    return out;
}

void
L1Cache::flush()
{
    array_.flush();
    std::fill(mshrFilter_.begin(), mshrFilter_.end(), 0);
    mshrHead_ = mshrTail_ = 0;
}

void
L1Cache::regStats(StatRegistry &reg, const std::string &prefix)
{
    reg.addCounter(prefix + ".accesses", &accesses_);
    reg.addCounter(prefix + ".hits", &hits_);
    reg.addCounter(prefix + ".mshr_merges", &mshrMerges_);
    reg.addCounter(prefix + ".mshr_stalls", &mshrStalls_);
    reg.addCounter(prefix + ".evictions", &evictions_);
    reg.addHistogram(prefix + ".miss_latency", &missLatency_);
}

} // namespace gpummu
