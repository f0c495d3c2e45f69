#include "mem/memory_system.hh"

#include <algorithm>

#include "trace/trace.hh"

namespace gpummu {

MemorySystem::MemorySystem(const MemorySystemConfig &cfg) : cfg_(cfg)
{
    GPUMMU_ASSERT(cfg.numPartitions > 0);
    partitions_.reserve(cfg.numPartitions);
    for (unsigned i = 0; i < cfg.numPartitions; ++i)
        partitions_.emplace_back(cfg);
}

std::size_t
MemorySystem::partitionIndex(PhysAddr line_addr) const
{
    // Mix the address so power-of-two strides spread across channels.
    const std::uint64_t mixed = line_addr ^ (line_addr >> 7);
    return mixed % partitions_.size();
}

AccessOutcome
MemorySystem::access(PhysAddr line_addr, bool is_write, Cycle now,
                     AccessSource source)
{
    const std::size_t part_idx = partitionIndex(line_addr);
    Partition &part = partitions_[part_idx];
    const bool walk_lane =
        cfg_.prioritizeWalks && source == AccessSource::PageWalk;
    const int tid = static_cast<int>(part_idx);
    const bool is_walk = source == AccessSource::PageWalk;

    // Request crosses the interconnect, then queues at the L2 slice.
    // Prioritized page walks arbitrate on their own lane.
    const Cycle at_l2 = now + cfg_.icntLatency;
    Cycle l2_start;
    if (walk_lane) {
        const Cycle demand_view =
            std::min(part.l2BusyUntil, at_l2 + cfg_.l2WalkQueueCap);
        l2_start = std::max({at_l2, part.l2BusyUntilWalk, demand_view});
        part.l2BusyUntilWalk = l2_start + cfg_.l2ServiceInterval;
    } else {
        l2_start = std::max(at_l2, part.l2BusyUntil);
        part.l2BusyUntil = l2_start + cfg_.l2ServiceInterval;
    }

    l2Accesses_.inc();
    if (is_write)
        writes_.inc();
    if (source == AccessSource::PageWalk)
        walkAccesses_.inc();

    auto res = part.l2.lookup(line_addr);
    AccessOutcome out;
    if (res.hit) {
        l2Hits_.inc();
        if (source == AccessSource::PageWalk)
            walkL2Hits_.inc();
        if (trace_)
            trace_->instantAt(TraceCat::L2, "l2_hit", tid, l2_start,
                              "line", line_addr, "walk", is_walk);
        out.hit = true;
        out.readyAt = l2_start + cfg_.l2HitLatency + cfg_.icntLatency;
        return out;
    }

    if (trace_)
        trace_->instantAt(TraceCat::L2, "l2_miss", tid, l2_start,
                          "line", line_addr, "walk", is_walk);

    if (is_write) {
        // Coalesced GPU stores write whole lines: the L2 allocates
        // the line without fetching it, so store misses do not
        // consume DRAM read bandwidth (the eventual writeback is
        // folded into the channel occupancy model).
        part.l2.insert(line_addr, 0);
        out.hit = false;
        out.readyAt = l2_start + cfg_.l2HitLatency + cfg_.icntLatency;
        return out;
    }

    // L2 miss: queue at the DRAM channel, then fill the L2 slice.
    const Cycle at_dram = l2_start + cfg_.l2HitLatency;
    Cycle dram_start;
    if (walk_lane) {
        const Cycle demand_view = std::min(
            part.dramBusyUntil, at_dram + cfg_.dramWalkQueueCap);
        dram_start =
            std::max({at_dram, part.dramBusyUntilWalk, demand_view});
        part.dramBusyUntilWalk =
            dram_start + cfg_.dramServiceInterval;
    } else {
        dram_start = std::max(at_dram, part.dramBusyUntil);
        part.dramBusyUntil = dram_start + cfg_.dramServiceInterval;
    }
    dramAccesses_.inc();
    if (trace_)
        trace_->span(TraceCat::Dram, "dram_busy", tid, dram_start,
                     cfg_.dramServiceInterval, "line", line_addr,
                     "walk", is_walk);

    part.l2.insert(line_addr, 0);

    out.hit = false;
    out.dram = true;
    out.readyAt = dram_start + cfg_.dramLatency + cfg_.icntLatency;
    return out;
}

void
MemorySystem::flushL2()
{
    for (auto &part : partitions_)
        part.l2.flush();
}

void
MemorySystem::regStats(StatRegistry &reg, const std::string &prefix)
{
    reg.addCounter(prefix + ".l2.accesses", &l2Accesses_);
    reg.addCounter(prefix + ".l2.hits", &l2Hits_);
    reg.addCounter(prefix + ".dram.accesses", &dramAccesses_);
    reg.addCounter(prefix + ".walk.accesses", &walkAccesses_);
    reg.addCounter(prefix + ".walk.l2_hits", &walkL2Hits_);
    reg.addCounter(prefix + ".writes", &writes_);
}

} // namespace gpummu
