/**
 * @file
 * Service model: long-running phase-changing request server.
 *
 * The paper's benchmarks hold one access mixture for a whole kernel;
 * real GPU-resident services (inference servers, KV front ends) cycle
 * through phases with *different* translation behaviour: serving hot
 * sessions (TLB friendly), scanning per-warp database windows
 * (capacity bound), and bursting region-wide lookups (divergence
 * spikes). Each thread runs many requests and the phase switches
 * every few requests, so interval telemetry (PR 5) sees the TLB miss
 * rate and page divergence *move* within one run - the workload the
 * phase-aligned sampling machinery exists for.
 */

#include "workloads/benchmark_base.hh"
#include "workloads/benchmarks.hh"

namespace gpummu {

namespace {

class ServiceWorkload : public BenchmarkBase
{
  public:
    explicit ServiceWorkload(const WorkloadParams &p)
        : BenchmarkBase(p, "service")
    {
        numBlocks_ = scaled<unsigned>(180);
    }

    void
    build(AddressSpace &as) override
    {
        requests_ = as.mmap("sv.requests", scaledMiB(16));
        sessions_ = as.mmap("sv.sessions", scaledMiB(48));
        database_ = as.mmap("sv.database", scaledMiB(224));
        log_ = as.mmap("sv.log", scaledMiB(32));

        const unsigned tpb = threadsPerBlock_;
        // Requests per phase before the server's behaviour shifts.
        const std::uint32_t phase_len = 4;

        const int req_ld = prog_.addAddrGen([this, tpb](ThreadCtx &c) {
            const std::uint64_t idx =
                static_cast<std::uint64_t>(c.blockId) * tpb +
                static_cast<std::uint64_t>(c.tidInBlock) +
                static_cast<std::uint64_t>(c.visits(1)) * 50021ULL;
            return streamAddr(requests_, idx, 32);
        });

        // The phase-switching data access: hot sessions, then warp
        // database windows, then region-wide scatter bursts.
        const int data_ld =
            prog_.addAddrGen([this, phase_len](ThreadCtx &c) {
                const std::uint32_t phase =
                    (c.visits(1) / phase_len) % 3;
                switch (phase) {
                  case 0: {
                    // Hot sessions: a few shared pages, coalescing
                    // lane groups (TLB and L1 friendly).
                    const std::uint64_t pages =
                        regionPages(sessions_);
                    const std::uint64_t h = splitMix64(
                        c.visits(1) * 131ULL +
                        static_cast<unsigned>(c.laneId) / 8);
                    const std::uint64_t page =
                        h % std::min<std::uint64_t>(24, pages);
                    return sessions_.base + page * kPageSize4K +
                           (h >> 32) % 4 * (kPageSize4K / 4);
                  }
                  case 1: {
                    // Database scan: per-warp windows rotating with
                    // the request index (capacity pressure, reuse
                    // within the window).
                    return clusteredAddr(c, database_, /*salt=*/23,
                                         c.visits(1) / phase_len,
                                         /*window_pages=*/8,
                                         /*p_scatter=*/0.02);
                  }
                  default: {
                    // Scatter burst: region-wide divergent lookups.
                    const std::uint64_t pages =
                        regionPages(database_);
                    const std::uint64_t page = c.rng.below(pages);
                    return database_.base + page * kPageSize4K +
                           c.rng.below(4) * (kPageSize4K / 4);
                  }
                }
            });

        const int log_st = prog_.addAddrGen([this, tpb](ThreadCtx &c) {
            const std::uint64_t idx =
                static_cast<std::uint64_t>(c.blockId) * tpb +
                static_cast<std::uint64_t>(c.tidInBlock) +
                static_cast<std::uint64_t>(c.visits(1)) * 131ULL;
            return streamAddr(log_, idx, 64);
        });

        // ~20% of requests commit a log record.
        const int log_cond = prog_.addCondGen(
            [](ThreadCtx &c) { return c.rng.chance(0.2); });
        // Long-running: enough requests to cross many phases (and
        // several telemetry intervals).
        const int reqs = std::max(6, scaled<int>(36));
        const int loop_cond = prog_.addCondGen([reqs](ThreadCtx &c) {
            return c.visits(1) < static_cast<unsigned>(reqs);
        });

        const int b_entry = prog_.addBlock(); // 0
        const int b_req = prog_.addBlock();   // 1
        const int b_log = prog_.addBlock();   // 2
        const int b_join = prog_.addBlock();  // 3
        const int b_exit = prog_.addBlock();  // 4

        prog_.appendAlu(b_entry, 2);
        prog_.appendBranch(b_entry, -1, b_req, -1, -1);

        prog_.appendLoad(b_req, req_ld);
        prog_.appendAlu(b_req, 2); // parse request
        prog_.appendLoad(b_req, data_ld);
        prog_.appendAlu(b_req, 3); // serve
        prog_.appendBranch(b_req, log_cond, b_log, b_join, b_join);

        prog_.appendStore(b_log, log_st);
        prog_.appendBranch(b_log, -1, b_join, -1, -1);

        prog_.appendAlu(b_join, 1);
        prog_.appendBranch(b_join, loop_cond, b_req, b_exit, b_exit);

        prog_.appendExit(b_exit);
    }

  private:
    VmRegion requests_;
    VmRegion sessions_;
    VmRegion database_;
    VmRegion log_;
};

} // namespace

std::unique_ptr<Workload>
makeService(const WorkloadParams &p)
{
    return std::make_unique<ServiceWorkload>(p);
}

} // namespace gpummu
