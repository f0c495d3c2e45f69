/**
 * @file
 * Spgrid model: sparse-grid physics stencil with blocked reuse.
 *
 * Models the SPGrid-style sparse-paged grids used by fluid/MPM
 * solvers: the domain is stored page-per-tile, a block table maps
 * active tiles, and each warp sweeps one tile applying a 5-point
 * stencil. In-tile accesses coalesce and reuse heavily (the blocked
 * layout is the whole point of SPGrid), but the cross-tile neighbours
 * live one page (x) or one row-stride of pages (y) away, so every
 * apron access is a *different-page* reference - TLB pressure scales
 * with active-tile count while L1 behaviour stays excellent. A small
 * scatter fraction models halo lookups of far-away active tiles.
 * This is the large-page-friendly counterpoint to hashprobe.
 */

#include "workloads/benchmark_base.hh"
#include "workloads/benchmarks.hh"

namespace gpummu {

namespace {

class SpgridWorkload : public BenchmarkBase
{
  public:
    explicit SpgridWorkload(const WorkloadParams &p)
        : BenchmarkBase(p, "spgrid")
    {
        numBlocks_ = scaled<unsigned>(220);
    }

    void
    build(AddressSpace &as) override
    {
        blockTable_ = as.mmap("sg.blocktable", scaledMiB(16));
        grid_ = as.mmap("sg.grid", scaledMiB(256));

        const unsigned tpb = threadsPerBlock_;
        // One y-row of the tile grid; neighbours in y are this many
        // pages apart.
        const std::uint64_t row_stride = 64;

        // The warp's tile for this sweep iteration (lane-invariant,
        // rotated per iteration): the page every in-tile access and
        // store reuses.
        auto tile_page = [this, row_stride](ThreadCtx &c) {
            const std::uint64_t pages = regionPages(grid_);
            // Tiles cluster: a warp sweeps a neighbourhood of rows,
            // so different warps' aprons overlap (shared halo pages).
            return warpWindow(c, /*salt=*/17, c.visits(1)) %
                   std::max<std::uint64_t>(1,
                                           pages - 2 * row_stride - 2);
        };

        const int table_ld =
            prog_.addAddrGen([this, tpb](ThreadCtx &c) {
                const std::uint64_t idx =
                    static_cast<std::uint64_t>(c.blockId) * tpb +
                    static_cast<std::uint64_t>(c.tidInBlock) +
                    static_cast<std::uint64_t>(c.visits(1)) *
                        40013ULL;
                return streamAddr(blockTable_, idx, 8);
            });
        const int center_ld =
            prog_.addAddrGen([this, tile_page,
                              row_stride](ThreadCtx &c) {
                const std::uint64_t page =
                    tile_page(c) + row_stride + 1;
                return grid_.base + page * kPageSize4K +
                       static_cast<std::uint64_t>(c.laneId) * 64;
            });
        // x-apron: +/-1 page; alternates with the iteration.
        const int xnbr_ld =
            prog_.addAddrGen([this, tile_page,
                              row_stride](ThreadCtx &c) {
                const std::uint64_t off = c.visits(1) % 2 ? 0 : 2;
                const std::uint64_t page =
                    tile_page(c) + row_stride + off;
                return grid_.base + page * kPageSize4K +
                       static_cast<std::uint64_t>(c.laneId) * 64;
            });
        // y-apron: +/-row_stride pages, with a small far-halo
        // scatter (sparse domains look up distant active tiles).
        const int ynbr_ld =
            prog_.addAddrGen([this, tile_page,
                              row_stride](ThreadCtx &c) {
                const std::uint64_t pages = regionPages(grid_);
                std::uint64_t page;
                if (c.rng.chance(0.05)) {
                    page = c.rng.below(pages);
                } else {
                    const std::uint64_t off =
                        c.visits(1) % 2 ? 0 : 2 * row_stride;
                    page = tile_page(c) + 1 + off;
                }
                return grid_.base + page * kPageSize4K +
                       static_cast<std::uint64_t>(c.laneId) * 64;
            });
        const int center_st = center_ld; // write the updated cell

        const int tiles = std::max(3, scaled<int>(14));
        const int loop_cond = prog_.addCondGen([tiles](ThreadCtx &c) {
            return c.visits(1) < static_cast<unsigned>(tiles);
        });

        const int b_entry = prog_.addBlock(); // 0
        const int b_tile = prog_.addBlock();  // 1
        const int b_sten = prog_.addBlock();  // 2
        const int b_exit = prog_.addBlock();  // 3

        prog_.appendAlu(b_entry, 2);
        prog_.appendBranch(b_entry, -1, b_tile, -1, -1);

        prog_.appendLoad(b_tile, table_ld);
        prog_.appendAlu(b_tile, 2); // decode tile coordinates
        prog_.appendBranch(b_tile, -1, b_sten, -1, -1);

        prog_.appendLoad(b_sten, center_ld);
        prog_.appendLoad(b_sten, xnbr_ld);
        prog_.appendLoad(b_sten, ynbr_ld);
        prog_.appendAlu(b_sten, 4); // stencil arithmetic
        prog_.appendStore(b_sten, center_st);
        prog_.appendBranch(b_sten, loop_cond, b_tile, b_exit,
                           b_exit);

        prog_.appendExit(b_exit);
    }

  private:
    VmRegion blockTable_;
    VmRegion grid_;
};

} // namespace

std::unique_ptr<Workload>
makeSpgrid(const WorkloadParams &p)
{
    return std::make_unique<SpgridWorkload>(p);
}

} // namespace gpummu
