/**
 * @file
 * Graph breadth-first search model (Rodinia bfs).
 *
 * Shape reproduced from the paper's characterisation: irregular
 * neighbour-list accesses with per-warp frontier neighbourhoods
 * (intra-warp locality that round-robin scheduling stretches past
 * the TLB/L1), an activity branch that diverges per thread, an inner
 * neighbour loop with data-dependent trip counts, average page
 * divergence above 4 with a far-flung tail, and a TLB miss rate in
 * the ~40% band at default scale.
 */

#include "workloads/benchmark_base.hh"
#include "workloads/benchmarks.hh"

namespace gpummu {

namespace {

class BfsWorkload : public BenchmarkBase
{
  public:
    explicit BfsWorkload(const WorkloadParams &p)
        : BenchmarkBase(p, "bfs")
    {
        numBlocks_ = scaled<unsigned>(240);
    }

    void
    build(AddressSpace &as) override
    {
        adj_ = as.mmap("bfs.adj", scaledMiB(64));
        frontier_ = as.mmap("bfs.frontier", scaledMiB(8));
        visited_ = as.mmap("bfs.visited", scaledMiB(16));

        // Mixture: 40% shared hub pages (hot), per-warp 2-page
        // frontier neighbourhoods rotated every 8 iterations, 6%
        // far-flung escapes. Gives avg page divergence ~4-5 with a
        // max at the warp width, and TLB miss in the ~40% band.
        MixParams adj_mix;
        adj_mix.salt = 1;
        adj_mix.hotPages = 24;
        adj_mix.hotGroups = 6;
        adj_mix.pHot = 0.45;
        adj_mix.windowPages = 6;
        adj_mix.poolPages = 320;
        adj_mix.pScatter = 0.04;
        adj_mix.linesPerPage = 2;
        adj_mix.epochLen = 8;
        adj_mix.pChaos = 0.12;
        adj_mix.stickyLen = 2;
        MixParams visited_mix;
        visited_mix.salt = 2;
        visited_mix.hotPages = 8;
        visited_mix.pHot = 0.3;
        visited_mix.windowPages = 2;
        visited_mix.poolPages = 128;
        visited_mix.pScatter = 0.01;
        visited_mix.linesPerPage = 2;
        visited_mix.epochLen = 8;

        const int frontier_ld = prog_.addAddrGen([this](ThreadCtx &c) {
            const std::uint64_t idx =
                static_cast<std::uint64_t>(c.globalTid) +
                static_cast<std::uint64_t>(c.visits(1)) * 1048573ULL;
            return streamAddr(frontier_, idx, 4);
        });
        const int adj_ld = prog_.addAddrGen([this, adj_mix](ThreadCtx &c) {
            return mixedAddr(c, adj_, adj_mix, c.visits(1));
        });
        const int visited_st =
            prog_.addAddrGen([this, visited_mix](ThreadCtx &c) {
                return mixedAddr(c, visited_, visited_mix, c.visits(1));
            });

        // ~60% of threads are active in the frontier each iteration.
        const int active_cond = prog_.addCondGen(
            [](ThreadCtx &c) { return c.rng.chance(0.8); });
        // Neighbour loop: continue with decaying probability so trip
        // counts are data dependent (1-4 typical).
        const int neigh_cond = prog_.addCondGen(
            [](ThreadCtx &c) { return c.rng.chance(0.55); });
        const int outer_iters = std::max(4, scaled<int>(24));
        const int loop_cond = prog_.addCondGen(
            [outer_iters](ThreadCtx &c) {
                return c.visits(1) < static_cast<unsigned>(outer_iters);
            });

        const int b_entry = prog_.addBlock();  // 0
        const int b_loop = prog_.addBlock();   // 1
        const int b_work = prog_.addBlock();   // 2
        const int b_join = prog_.addBlock();   // 3
        const int b_exit = prog_.addBlock();   // 4

        prog_.appendAlu(b_entry, 2);
        prog_.appendBranch(b_entry, -1, b_loop, -1, -1);

        prog_.appendLoad(b_loop, frontier_ld);
        prog_.appendAlu(b_loop, 5);
        prog_.appendBranch(b_loop, active_cond, b_work, b_join,
                           b_join);

        prog_.appendLoad(b_work, adj_ld);
        prog_.appendAlu(b_work, 4);
        prog_.appendLoad(b_work, adj_ld);
        prog_.appendAlu(b_work, 4);
        prog_.appendStore(b_work, visited_st);
        prog_.appendAlu(b_work, 2);
        prog_.appendBranch(b_work, neigh_cond, b_work, b_join, b_join);

        prog_.appendAlu(b_join, 4);
        prog_.appendBranch(b_join, loop_cond, b_loop, b_exit, b_exit);

        prog_.appendExit(b_exit);
    }

  private:
    VmRegion adj_;
    VmRegion frontier_;
    VmRegion visited_;
};

} // namespace

std::unique_ptr<Workload>
makeBfs(const WorkloadParams &p)
{
    return std::make_unique<BfsWorkload>(p);
}

} // namespace gpummu
