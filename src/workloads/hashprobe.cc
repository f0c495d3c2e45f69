/**
 * @file
 * Hashprobe model: pointer-chasing irregular hash-table probes.
 *
 * Qualitatively different from the paper's six benchmarks: every
 * probe hashes into a bucket array, then *chases node pointers* -
 * each hop's page is a hash of the previous page, so consecutive
 * loads of one thread land on unrelated pages (the ZPC HashTable
 * pattern). Lanes chase independent chains, pushing page divergence
 * toward the warp width with almost no intra-warp locality for CCWS
 * to recover - a worst case for TLB reach that stresses the walker
 * scheduling and page-divergence machinery directly. A small hot
 * bucket head keeps the pattern from being pure noise.
 */

#include "workloads/benchmark_base.hh"
#include "workloads/benchmarks.hh"

namespace gpummu {

namespace {

class HashprobeWorkload : public BenchmarkBase
{
  public:
    explicit HashprobeWorkload(const WorkloadParams &p)
        : BenchmarkBase(p, "hashprobe")
    {
        numBlocks_ = scaled<unsigned>(200);
    }

    void
    build(AddressSpace &as) override
    {
        keys_ = as.mmap("hp.keys", scaledMiB(8));
        buckets_ = as.mmap("hp.buckets", scaledMiB(64));
        nodes_ = as.mmap("hp.nodes", scaledMiB(192));

        const unsigned tpb = threadsPerBlock_;
        const int key_ld = prog_.addAddrGen([this, tpb](ThreadCtx &c) {
            const std::uint64_t idx =
                static_cast<std::uint64_t>(c.blockId) * tpb +
                static_cast<std::uint64_t>(c.tidInBlock) +
                static_cast<std::uint64_t>(c.visits(1)) * 65537ULL;
            return streamAddr(keys_, idx, 16);
        });

        // Bucket lookup: hashed region-wide, with a hot head (the
        // table's most popular buckets) that stays TLB resident.
        const int bucket_ld = prog_.addAddrGen([this](ThreadCtx &c) {
            const std::uint64_t pages = regionPages(buckets_);
            std::uint64_t page;
            if (c.rng.chance(0.25)) {
                page = splitMix64(c.visits(1) * 131ULL +
                                  static_cast<unsigned>(c.laneId) / 8) %
                       std::min<std::uint64_t>(16, pages);
            } else {
                page = c.rng.below(pages);
            }
            return buckets_.base + page * kPageSize4K +
                   c.rng.below(4) * (kPageSize4K / 4);
        });

        // Chain head: the probed key's first node. Seeds the chase
        // from the thread's RNG and parks the page in sticky state.
        const int head_ld = prog_.addAddrGen([this](ThreadCtx &c) {
            const std::uint64_t pages = regionPages(nodes_);
            auto &s = c.sticky[3];
            s.page = c.rng.below(pages);
            return nodes_.base + s.page * kPageSize4K +
                   c.rng.below(4) * (kPageSize4K / 4);
        });
        // Pointer hop: the next node's page is a hash of the current
        // one - zero spatial locality between consecutive loads.
        const int next_ld = prog_.addAddrGen([this](ThreadCtx &c) {
            const std::uint64_t pages = regionPages(nodes_);
            auto &s = c.sticky[3];
            s.page = splitMix64(s.page * 0x9e3779b97f4a7c15ULL +
                                0xda942042e4dd58b5ULL) %
                     pages;
            return nodes_.base + s.page * kPageSize4K +
                   c.rng.below(4) * (kPageSize4K / 4);
        });

        // ~45% of nodes collide and the chain walks on (divergent).
        const int chain_cond = prog_.addCondGen(
            [](ThreadCtx &c) { return c.rng.chance(0.45); });
        const int reqs = std::max(3, scaled<int>(16));
        const int loop_cond = prog_.addCondGen([reqs](ThreadCtx &c) {
            return c.visits(1) < static_cast<unsigned>(reqs);
        });

        const int b_entry = prog_.addBlock(); // 0
        const int b_req = prog_.addBlock();   // 1
        const int b_head = prog_.addBlock();  // 2
        const int b_chain = prog_.addBlock(); // 3
        const int b_join = prog_.addBlock();  // 4
        const int b_exit = prog_.addBlock();  // 5

        prog_.appendAlu(b_entry, 2);
        prog_.appendBranch(b_entry, -1, b_req, -1, -1);

        prog_.appendLoad(b_req, key_ld);
        prog_.appendAlu(b_req, 3); // hash
        prog_.appendLoad(b_req, bucket_ld);
        prog_.appendBranch(b_req, -1, b_head, -1, -1);

        prog_.appendLoad(b_head, head_ld);
        prog_.appendAlu(b_head, 2); // compare key
        prog_.appendBranch(b_head, chain_cond, b_chain, b_join,
                           b_join);

        prog_.appendLoad(b_chain, next_ld);
        prog_.appendAlu(b_chain, 2);
        prog_.appendBranch(b_chain, chain_cond, b_chain, b_join,
                           b_join);

        prog_.appendAlu(b_join, 1);
        prog_.appendBranch(b_join, loop_cond, b_req, b_exit, b_exit);

        prog_.appendExit(b_exit);
    }

  private:
    VmRegion keys_;
    VmRegion buckets_;
    VmRegion nodes_;
};

} // namespace

std::unique_ptr<Workload>
makeHashprobe(const WorkloadParams &p)
{
    return std::make_unique<HashprobeWorkload>(p);
}

} // namespace gpummu
