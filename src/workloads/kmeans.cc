/**
 * @file
 * K-means clustering model (Rodinia kmeans).
 *
 * Points stream in coalesced row-major order; every point iterates a
 * large centroid table that is scanned cyclically by all warps. The
 * cyclic scan is bigger than both the TLB reach and the L1, which is
 * what gives kmeans its high TLB miss rate with page divergence ~1
 * and makes it resistant to CCWS-style throttling (all warps share
 * the same thrashing working set) - matching the paper, where kmeans
 * stays hard even for TA-CCWS.
 */

#include "workloads/benchmark_base.hh"
#include "workloads/benchmarks.hh"

namespace gpummu {

namespace {

class KmeansWorkload : public BenchmarkBase
{
  public:
    explicit KmeansWorkload(const WorkloadParams &p)
        : BenchmarkBase(p, "kmeans")
    {
        numBlocks_ = scaled<unsigned>(240);
    }

    void
    build(AddressSpace &as) override
    {
        points_ = as.mmap("kmeans.points", scaledMiB(128));
        centroids_ = as.mmap("kmeans.centroids", scaledMiB(8));
        assign_ = as.mmap("kmeans.assign", scaledMiB(8));

        const unsigned tpb = threadsPerBlock_;
        const int point_ld = prog_.addAddrGen([this, tpb](ThreadCtx &c) {
            // Row-major 32-byte points; lanes are adjacent, so a warp
            // instruction covers 1KB (page divergence 1).
            const std::uint64_t idx =
                (static_cast<std::uint64_t>(c.blockId) * tpb +
                 static_cast<std::uint64_t>(c.tidInBlock)) +
                static_cast<std::uint64_t>(c.visits(1)) * 93491ULL;
            return streamAddr(points_, idx, 32);
        });
        const int centroid_ld = prog_.addAddrGen([this](ThreadCtx &c) {
            // Cyclic scan over the centroid table; all lanes touch
            // the same centroid (perfect coalescing, divergence 1).
            // Warps start at decorrelated offsets, so the core's live
            // centroid footprint is ~one page per warp and rotates
            // every few accesses - past the TLB's reach across 48
            // warps but with short-term reuse inside one warp.
            const std::uint64_t cidx =
                static_cast<std::uint64_t>(c.visits(2)) - 1;
            const std::uint64_t pages = regionPages(centroids_);
            const std::uint64_t page =
                (warpWindow(c, /*salt=*/7, /*epoch=*/0) + cidx / 4) %
                pages;
            return centroids_.base + page * kPageSize4K +
                   ((cidx % 4) / 2) * 2048;
        });
        const int assign_st = prog_.addAddrGen([this, tpb](ThreadCtx &c) {
            const std::uint64_t idx =
                static_cast<std::uint64_t>(c.blockId) * tpb +
                static_cast<std::uint64_t>(c.tidInBlock);
            return streamAddr(assign_, idx, 4);
        });

        const int inner_iters = std::max(4, scaled<int>(16));
        const int outer_iters = std::max(2, scaled<int>(8));
        // Uniform loops: every thread runs the same trip counts.
        const int inner_cond = prog_.addCondGen(
            [inner_iters](ThreadCtx &c) {
                return c.visits(2) %
                           static_cast<unsigned>(inner_iters) !=
                       0;
            });
        const int outer_cond = prog_.addCondGen(
            [outer_iters](ThreadCtx &c) {
                return c.visits(1) < static_cast<unsigned>(outer_iters);
            });

        const int b_entry = prog_.addBlock(); // 0
        const int b_point = prog_.addBlock(); // 1
        const int b_cent = prog_.addBlock();  // 2
        const int b_tail = prog_.addBlock();  // 3
        const int b_exit = prog_.addBlock();  // 4

        prog_.appendAlu(b_entry, 2);
        prog_.appendBranch(b_entry, -1, b_point, -1, -1);

        prog_.appendLoad(b_point, point_ld);
        prog_.appendAlu(b_point, 2);
        prog_.appendBranch(b_point, -1, b_cent, -1, -1);

        prog_.appendLoad(b_cent, centroid_ld);
        prog_.appendAlu(b_cent, 5);
        prog_.appendBranch(b_cent, inner_cond, b_cent, b_tail, b_tail);

        prog_.appendStore(b_tail, assign_st);
        prog_.appendAlu(b_tail, 2);
        prog_.appendBranch(b_tail, outer_cond, b_point, b_exit, b_exit);

        prog_.appendExit(b_exit);
    }

  private:
    VmRegion points_;
    VmRegion centroids_;
    VmRegion assign_;
};

} // namespace

std::unique_ptr<Workload>
makeKmeans(const WorkloadParams &p)
{
    return std::make_unique<KmeansWorkload>(p);
}

} // namespace gpummu
