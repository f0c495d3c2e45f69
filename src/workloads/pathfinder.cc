/**
 * @file
 * Pathfinder model (Rodinia pathfinder, grid dynamic programming).
 *
 * Row-wise wavefront: each thread reads its three upstream cells and
 * writes one result, rows streaming down the grid. Accesses are
 * well-coalesced (page divergence ~1-2 from row straddles), control
 * flow is uniform, and the TLB pressure comes purely from streaming
 * reach - the mildest benchmark in the paper's set.
 */

#include "workloads/benchmark_base.hh"
#include "workloads/benchmarks.hh"

namespace gpummu {

namespace {

class PathfinderWorkload : public BenchmarkBase
{
  public:
    explicit PathfinderWorkload(const WorkloadParams &p)
        : BenchmarkBase(p, "pathfinder")
    {
        numBlocks_ = scaled<unsigned>(240);
    }

    void
    build(AddressSpace &as) override
    {
        grid_ = as.mmap("pf.grid", scaledMiB(256));
        out_ = as.mmap("pf.out", scaledMiB(32));

        const unsigned tpb = threadsPerBlock_;
        // Row base: each block works a separate horizontal strip;
        // rows advance with the outer iteration. The row pitch is a
        // prime multiple of the page size so that successive rows
        // touch fresh pages (streaming TLB pressure ~25%).
        auto cell = [this, tpb](ThreadCtx &c, int dx) {
            const std::uint64_t row =
                static_cast<std::uint64_t>(c.blockId) * 977 +
                static_cast<std::uint64_t>(c.visits(1));
            const std::uint64_t col = static_cast<std::uint64_t>(
                std::max(0, c.tidInBlock * 8 + dx));
            // Wide DP rows (16 pages + stagger): every row starts on
            // fresh pages, so a warp re-misses the TLB once per row
            // while its three reads within the row stay coalesced.
            const std::uint64_t row_pitch = 3 * kPageSize4K + 64;
            const std::uint64_t off =
                (row * row_pitch + col * 4) % grid_.bytes;
            return grid_.base + (off & ~3ULL);
        };
        const int left_ld = prog_.addAddrGen(
            [cell](ThreadCtx &c) { return cell(c, -1); });
        const int mid_ld = prog_.addAddrGen(
            [cell](ThreadCtx &c) { return cell(c, 0); });
        const int right_ld = prog_.addAddrGen(
            [cell](ThreadCtx &c) { return cell(c, 1); });
        const int out_st = prog_.addAddrGen([this, tpb](ThreadCtx &c) {
            const std::uint64_t idx =
                static_cast<std::uint64_t>(c.blockId) * tpb +
                static_cast<std::uint64_t>(c.tidInBlock) +
                static_cast<std::uint64_t>(c.visits(1)) * 131ULL;
            return streamAddr(out_, idx, 4);
        });

        const int rows = std::max(8, scaled<int>(64));
        const int loop_cond = prog_.addCondGen([rows](ThreadCtx &c) {
            return c.visits(1) < static_cast<unsigned>(rows);
        });

        const int b_entry = prog_.addBlock(); // 0
        const int b_row = prog_.addBlock();   // 1
        const int b_exit = prog_.addBlock();  // 2

        prog_.appendAlu(b_entry, 2);
        prog_.appendBranch(b_entry, -1, b_row, -1, -1);

        prog_.appendLoad(b_row, left_ld);
        prog_.appendAlu(b_row, 2);
        prog_.appendLoad(b_row, mid_ld);
        prog_.appendAlu(b_row, 2);
        prog_.appendLoad(b_row, right_ld);
        prog_.appendAlu(b_row, 5);
        prog_.appendStore(b_row, out_st);
        prog_.appendAlu(b_row, 5);
        prog_.appendBranch(b_row, loop_cond, b_row, b_exit, b_exit);

        prog_.appendExit(b_exit);
    }

  private:
    VmRegion grid_;
    VmRegion out_;
};

} // namespace

std::unique_ptr<Workload>
makePathfinder(const WorkloadParams &p)
{
    return std::make_unique<PathfinderWorkload>(p);
}

} // namespace gpummu
