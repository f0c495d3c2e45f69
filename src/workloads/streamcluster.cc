/**
 * @file
 * Streamcluster model (Rodinia streamcluster, online clustering).
 *
 * Each warp owns a small working set of candidate-centre pages that
 * it re-reads across many gain-computation iterations while points
 * stream through. Under round-robin scheduling 48 warps' working
 * sets overlap in time and thrash the L1 and TLB; limiting the
 * active warps (CCWS) restores the intra-warp reuse - streamcluster
 * is one of the paper's biggest CCWS winners. Page divergence stays
 * low (~2).
 */

#include "workloads/benchmark_base.hh"
#include "workloads/benchmarks.hh"

namespace gpummu {

namespace {

class StreamclusterWorkload : public BenchmarkBase
{
  public:
    explicit StreamclusterWorkload(const WorkloadParams &p)
        : BenchmarkBase(p, "streamcluster")
    {
        numBlocks_ = scaled<unsigned>(240);
    }

    void
    build(AddressSpace &as) override
    {
        points_ = as.mmap("sc.points", scaledMiB(96));
        centers_ = as.mmap("sc.centers", scaledMiB(48));
        gains_ = as.mmap("sc.gains", scaledMiB(8));

        const unsigned tpb = threadsPerBlock_;
        const int point_ld = prog_.addAddrGen([this, tpb](ThreadCtx &c) {
            // Coalesced pass over the points: lanes are adjacent
            // 32-byte records, one fresh kilobyte per iteration.
            // Each point is re-read across 4 consecutive gain
            // iterations before the pass moves on.
            const std::uint64_t idx =
                static_cast<std::uint64_t>(c.blockId) * tpb +
                static_cast<std::uint64_t>(c.tidInBlock) +
                static_cast<std::uint64_t>(c.visits(1) / 4) * 50021ULL;
            return streamAddr(points_, idx, 32);
        });
        // Per-warp candidate-centre window, stable for 16 iterations:
        // the reuse CCWS recovers. A modest shared-medoid hot set
        // keeps some accesses cheap.
        MixParams center_mix;
        center_mix.salt = 3;
        center_mix.hotPages = 12;
        center_mix.hotGroups = 4;
        center_mix.pHot = 0.55;
        center_mix.windowPages = 6;
        center_mix.poolPages = 256;
        center_mix.pScatter = 0.01;
        center_mix.linesPerPage = 2;
        center_mix.epochLen = 16;
        center_mix.pChaos = 0.005;
        center_mix.stickyLen = 4;
        const int center_ld =
            prog_.addAddrGen([this, center_mix](ThreadCtx &c) {
                return mixedAddr(c, centers_, center_mix, c.visits(1));
            });
        MixParams gain_mix;
        gain_mix.salt = 4;
        gain_mix.hotPages = 4;
        gain_mix.pHot = 0.2;
        gain_mix.windowPages = 1;
        gain_mix.pScatter = 0.0;
        gain_mix.linesPerPage = 2;
        gain_mix.epochLen = 16;
        const int gain_st =
            prog_.addAddrGen([this, gain_mix](ThreadCtx &c) {
                return mixedAddr(c, gains_, gain_mix, c.visits(1));
            });

        const int outer_iters = std::max(6, scaled<int>(48));
        const int loop_cond = prog_.addCondGen(
            [outer_iters](ThreadCtx &c) {
                return c.visits(1) < static_cast<unsigned>(outer_iters);
            });
        // Occasionally a gain write happens (divergent but cheap).
        const int write_cond = prog_.addCondGen(
            [](ThreadCtx &c) { return c.rng.chance(0.25); });

        const int b_entry = prog_.addBlock(); // 0
        const int b_loop = prog_.addBlock();  // 1
        const int b_wr = prog_.addBlock();    // 2
        const int b_join = prog_.addBlock();  // 3
        const int b_exit = prog_.addBlock();  // 4

        prog_.appendAlu(b_entry, 2);
        prog_.appendBranch(b_entry, -1, b_loop, -1, -1);

        prog_.appendLoad(b_loop, point_ld);
        prog_.appendAlu(b_loop, 3);
        prog_.appendLoad(b_loop, center_ld);
        prog_.appendAlu(b_loop, 3);
        prog_.appendLoad(b_loop, center_ld);
        prog_.appendAlu(b_loop, 3);
        prog_.appendLoad(b_loop, center_ld);
        prog_.appendAlu(b_loop, 2);
        prog_.appendBranch(b_loop, write_cond, b_wr, b_join, b_join);

        prog_.appendStore(b_wr, gain_st);
        prog_.appendBranch(b_wr, -1, b_join, -1, -1);

        prog_.appendAlu(b_join, 1);
        prog_.appendBranch(b_join, loop_cond, b_loop, b_exit, b_exit);

        prog_.appendExit(b_exit);
    }

  private:
    VmRegion points_;
    VmRegion centers_;
    VmRegion gains_;
};

} // namespace

std::unique_ptr<Workload>
makeStreamcluster(const WorkloadParams &p)
{
    return std::make_unique<StreamclusterWorkload>(p);
}

} // namespace gpummu
