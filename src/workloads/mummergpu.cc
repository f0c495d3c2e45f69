/**
 * @file
 * MUMmerGPU model (DNA sequence alignment over a suffix tree).
 *
 * Each thread walks a suffix tree with data-dependent depth; lanes of
 * a warp match different queries, so their node accesses land on
 * wildly different pages. This is the paper's worst page-divergence
 * benchmark (average above 8, maxima at the full warp width) with the
 * highest TLB miss rates, and the biggest beneficiary of 4+ TLB ports
 * and PTW scheduling.
 */

#include "workloads/benchmark_base.hh"
#include "workloads/benchmarks.hh"

namespace gpummu {

namespace {

class MummergpuWorkload : public BenchmarkBase
{
  public:
    explicit MummergpuWorkload(const WorkloadParams &p)
        : BenchmarkBase(p, "mummergpu")
    {
        numBlocks_ = scaled<unsigned>(240);
    }

    void
    build(AddressSpace &as) override
    {
        tree_ = as.mmap("mummer.tree", scaledMiB(128));
        queries_ = as.mmap("mummer.queries", scaledMiB(16));
        output_ = as.mmap("mummer.output", scaledMiB(16));

        const unsigned tpb = threadsPerBlock_;
        const int query_ld = prog_.addAddrGen([this, tpb](ThreadCtx &c) {
            const std::uint64_t idx =
                static_cast<std::uint64_t>(c.blockId) * tpb +
                static_cast<std::uint64_t>(c.tidInBlock) +
                static_cast<std::uint64_t>(c.visits(1)) * 65537ULL;
            return streamAddr(queries_, idx, 16);
        });
        // Wide per-warp window plus heavy region-wide escapes: lanes
        // spread across many pages per instruction (the suffix-tree
        // walk). Small hot component models the tree root levels.
        MixParams node_mix;
        node_mix.salt = 5;
        node_mix.hotPages = 16;
        node_mix.hotGroups = 8;
        node_mix.pHot = 0.25;
        node_mix.windowPages = 10;
        node_mix.poolPages = 512;
        node_mix.pScatter = 0.10;
        node_mix.linesPerPage = 2;
        node_mix.epochLen = 4;
        node_mix.pChaos = 0.25;
        node_mix.stickyLen = 3;
        const int node_ld =
            prog_.addAddrGen([this, node_mix](ThreadCtx &c) {
                return mixedAddr(c, tree_, node_mix, c.visits(1));
            });
        const int out_st = prog_.addAddrGen([this, tpb](ThreadCtx &c) {
            const std::uint64_t idx =
                static_cast<std::uint64_t>(c.blockId) * tpb +
                static_cast<std::uint64_t>(c.tidInBlock);
            return streamAddr(output_, idx, 16);
        });

        // Match loop: continue with p=0.62 (mean depth ~2.6, long
        // tail), giving heavy intra-warp trip-count divergence.
        const int match_cond = prog_.addCondGen(
            [](ThreadCtx &c) { return c.rng.chance(0.70); });
        const int outer_iters = std::max(3, scaled<int>(12));
        const int loop_cond = prog_.addCondGen(
            [outer_iters](ThreadCtx &c) {
                return c.visits(1) < static_cast<unsigned>(outer_iters);
            });

        const int b_entry = prog_.addBlock(); // 0
        const int b_loop = prog_.addBlock();  // 1
        const int b_match = prog_.addBlock(); // 2
        const int b_tail = prog_.addBlock();  // 3
        const int b_exit = prog_.addBlock();  // 4

        prog_.appendAlu(b_entry, 2);
        prog_.appendBranch(b_entry, -1, b_loop, -1, -1);

        prog_.appendLoad(b_loop, query_ld);
        prog_.appendAlu(b_loop, 1);
        prog_.appendLoad(b_loop, node_ld); // root descent, full warp
        prog_.appendAlu(b_loop, 1);
        prog_.appendBranch(b_loop, -1, b_match, -1, -1);

        prog_.appendLoad(b_match, node_ld);
        prog_.appendAlu(b_match, 3);
        prog_.appendLoad(b_match, node_ld);
        prog_.appendAlu(b_match, 3);
        prog_.appendBranch(b_match, match_cond, b_match, b_tail,
                           b_tail);

        prog_.appendStore(b_tail, out_st);
        prog_.appendAlu(b_tail, 1);
        prog_.appendBranch(b_tail, loop_cond, b_loop, b_exit, b_exit);

        prog_.appendExit(b_exit);
    }

  private:
    VmRegion tree_;
    VmRegion queries_;
    VmRegion output_;
};

} // namespace

std::unique_ptr<Workload>
makeMummergpu(const WorkloadParams &p)
{
    return std::make_unique<MummergpuWorkload>(p);
}

} // namespace gpummu
