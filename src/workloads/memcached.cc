/**
 * @file
 * Memcached model (key-value store driven by a skewed trace).
 *
 * The paper stimulates memcached with a representative slice of the
 * Wikipedia access traces; we substitute a Zipf-distributed key
 * popularity (the standard model for that trace family). Each thread
 * services requests: hash the key, probe the bucket array, walk a
 * short chain on conflicts (divergent), then read the value; ~10% of
 * requests are SETs that write the value. Hot pages concentrate the
 * head of the distribution while the tail scatters region-wide,
 * producing mid-range page divergence and TLB miss rates.
 */

#include "workloads/benchmark_base.hh"
#include "workloads/benchmarks.hh"

namespace gpummu {

namespace {

class MemcachedWorkload : public BenchmarkBase
{
  public:
    explicit MemcachedWorkload(const WorkloadParams &p)
        : BenchmarkBase(p, "memcached")
    {
        numBlocks_ = scaled<unsigned>(240);
    }

    void
    build(AddressSpace &as) override
    {
        table_ = as.mmap("mc.hashtable", scaledMiB(48));
        values_ = as.mmap("mc.values", scaledMiB(160));
        requests_ = as.mmap("mc.requests", scaledMiB(16));

        tableZipf_ = std::make_unique<ZipfSampler>(
            std::min<std::uint64_t>(768, regionPages(table_)), 0.6);
        valueZipf_ = std::make_unique<ZipfSampler>(
            std::min<std::uint64_t>(1024, regionPages(values_)), 0.6);

        const unsigned tpb = threadsPerBlock_;
        const int req_ld = prog_.addAddrGen([this, tpb](ThreadCtx &c) {
            const std::uint64_t idx =
                static_cast<std::uint64_t>(c.blockId) * tpb +
                static_cast<std::uint64_t>(c.tidInBlock) +
                static_cast<std::uint64_t>(c.visits(1)) * 40009ULL;
            return streamAddr(requests_, idx, 32);
        });
        // Requests batch by popularity: about half of a warp's probes
        // hit the same hot key (the trace's head), chosen
        // lane-invariantly so they coalesce; the rest are Zipf over
        // the full table/value space.
        const int bucket_ld = prog_.addAddrGen([this](ThreadCtx &c) {
            std::uint64_t page;
            if (c.rng.chance(0.6)) {
                page = warpWindow(c, /*salt=*/11,
                                  c.visits(1) * 131ULL +
                                      static_cast<unsigned>(c.laneId) / 8) %
                       64;
            } else {
                page = tableZipf_->sample(c.rng);
            }
            // 4 line slots per bucket page: hot buckets coalesce and
            // stay L1 resident.
            return table_.base + page * kPageSize4K +
                   c.rng.below(2) * (kPageSize4K / 2);
        });
        const int value_ld = prog_.addAddrGen([this](ThreadCtx &c) {
            std::uint64_t page;
            if (c.rng.chance(0.55)) {
                page = warpWindow(c, /*salt=*/13,
                                  c.visits(1) * 131ULL +
                                      static_cast<unsigned>(c.laneId) / 8) %
                       128;
            } else {
                page = valueZipf_->sample(c.rng);
            }
            return values_.base + page * kPageSize4K +
                   c.rng.below(2) * (kPageSize4K / 2);
        });
        const int value_st = value_ld; // SETs write the same layout

        // Chain walk: ~30% of probes collide and walk on.
        const int chain_cond = prog_.addCondGen(
            [](ThreadCtx &c) { return c.rng.chance(0.3); });
        // SET fraction of requests.
        const int set_cond = prog_.addCondGen(
            [](ThreadCtx &c) { return c.rng.chance(0.1); });
        const int reqs = std::max(4, scaled<int>(20));
        const int loop_cond = prog_.addCondGen([reqs](ThreadCtx &c) {
            return c.visits(1) < static_cast<unsigned>(reqs);
        });

        const int b_entry = prog_.addBlock(); // 0
        const int b_req = prog_.addBlock();   // 1
        const int b_probe = prog_.addBlock(); // 2
        const int b_get = prog_.addBlock();   // 3
        const int b_set = prog_.addBlock();   // 4
        const int b_join = prog_.addBlock();  // 5
        const int b_exit = prog_.addBlock();  // 6

        prog_.appendAlu(b_entry, 2);
        prog_.appendBranch(b_entry, -1, b_req, -1, -1);

        prog_.appendLoad(b_req, req_ld);
        prog_.appendAlu(b_req, 4); // hash
        prog_.appendBranch(b_req, -1, b_probe, -1, -1);

        prog_.appendLoad(b_probe, bucket_ld);
        prog_.appendAlu(b_probe, 3);
        prog_.appendBranch(b_probe, chain_cond, b_probe, b_get, b_get);

        prog_.appendLoad(b_get, value_ld);
        prog_.appendAlu(b_get, 3);
        prog_.appendBranch(b_get, set_cond, b_set, b_join, b_join);

        prog_.appendStore(b_set, value_st);
        prog_.appendBranch(b_set, -1, b_join, -1, -1);

        prog_.appendAlu(b_join, 2);
        prog_.appendBranch(b_join, loop_cond, b_req, b_exit, b_exit);

        prog_.appendExit(b_exit);
    }

  private:
    VmRegion table_;
    VmRegion values_;
    VmRegion requests_;
    std::unique_ptr<ZipfSampler> tableZipf_;
    std::unique_ptr<ZipfSampler> valueZipf_;
};

} // namespace

std::unique_ptr<Workload>
makeMemcached(const WorkloadParams &p)
{
    return std::make_unique<MemcachedWorkload>(p);
}

} // namespace gpummu
