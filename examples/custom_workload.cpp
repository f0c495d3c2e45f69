/**
 * @file
 * Custom workload walkthrough: shows how a downstream user defines
 * their own kernel (a pointer-chasing hash join probe) against the
 * public Workload interface and evaluates MMU designs on it.
 *
 * The kernel: each thread streams probe keys, hashes into a large
 * build table, and walks a short conflict chain - a braided mix of
 * coalesced streaming and irregular probing, the kind of future
 * unified-address-space workload the paper's Section 5 anticipates.
 */

#include <iostream>

#include "core/experiment.hh"
#include "core/presets.hh"
#include "workloads/patterns.hh"

using namespace gpummu;

namespace {

class HashJoinWorkload : public Workload
{
  public:
    explicit HashJoinWorkload(const WorkloadParams &p)
        : Workload(p), prog_("hashjoin")
    {
    }

    std::string name() const override { return "hashjoin"; }
    const KernelProgram &program() const override { return prog_; }
    unsigned threadsPerBlock() const override { return 256; }
    unsigned numBlocks() const override { return 48; }

    void
    build(AddressSpace &as) override
    {
        probes_ = as.mmap("join.probes", 8ULL << 20);
        build_ = as.mmap("join.build", 96ULL << 20);

        // Streamed probe keys: coalesced, one fresh line per warp
        // per iteration.
        const int probe_ld = prog_.addAddrGen([this](ThreadCtx &c) {
            const std::uint64_t idx =
                static_cast<std::uint64_t>(c.globalTid) +
                static_cast<std::uint64_t>(c.visits(1)) * 999983ULL;
            return streamAddr(probes_, idx, 8);
        });
        // Build-table buckets: hot skew plus per-warp partition
        // windows plus a scattered tail - tuned via MixParams, the
        // same knobs the six paper benchmarks use.
        MixParams mix;
        mix.salt = 21;
        mix.hotPages = 32;
        mix.pHot = 0.45;
        mix.hotGroups = 4;
        mix.windowPages = 2;
        mix.poolPages = 256;
        mix.pScatter = 0.05;
        mix.linesPerPage = 2;
        mix.stickyLen = 2;
        const int bucket_ld = prog_.addAddrGen([this, mix](ThreadCtx &c) {
            return mixedAddr(c, build_, mix, c.visits(1));
        });

        const int chain_cond = prog_.addCondGen(
            [](ThreadCtx &c) { return c.rng.chance(0.35); });
        const int loop_cond = prog_.addCondGen([](ThreadCtx &c) {
            return c.visits(1) < 16;
        });

        const int b_entry = prog_.addBlock();
        const int b_loop = prog_.addBlock();
        const int b_chain = prog_.addBlock();
        const int b_join = prog_.addBlock();
        const int b_exit = prog_.addBlock();

        prog_.appendAlu(b_entry, 2);
        prog_.appendBranch(b_entry, -1, b_loop, -1, -1);

        prog_.appendLoad(b_loop, probe_ld);
        prog_.appendAlu(b_loop, 3); // hash
        prog_.appendLoad(b_loop, bucket_ld);
        prog_.appendAlu(b_loop, 2);
        prog_.appendBranch(b_loop, chain_cond, b_chain, b_join,
                           b_join);

        prog_.appendLoad(b_chain, bucket_ld);
        prog_.appendAlu(b_chain, 2);
        prog_.appendBranch(b_chain, chain_cond, b_chain, b_join,
                           b_join);

        prog_.appendAlu(b_join, 2);
        prog_.appendBranch(b_join, loop_cond, b_loop, b_exit, b_exit);

        prog_.appendExit(b_exit);
    }

  private:
    KernelProgram prog_;
    VmRegion probes_;
    VmRegion build_;
};

RunStats
run(const SystemConfig &cfg, const WorkloadParams &params)
{
    HashJoinWorkload wl(params);
    return runWorkloadFull(wl, cfg).stats;
}

} // namespace

int
main()
{
    WorkloadParams params;
    params.seed = 11;

    const SystemConfig base = presets::noTlb();
    const SystemConfig naive = presets::naiveTlb(4);
    const SystemConfig aug = presets::augmentedTlb();

    std::cout << "Custom workload: GPU hash-join probe under three "
                 "MMU designs\n\n";
    const RunStats b = run(base, params);
    ReportTable table({"config", "cycles", "tlb-miss%", "pagediv",
                       "speedup-vs-no-tlb"});
    for (const SystemConfig *cfg : {&base, &naive, &aug}) {
        const RunStats s = run(*cfg, params);
        table.addRow(
            {cfg->name, std::to_string(s.cycles),
             ReportTable::pct(s.tlbMissRate()),
             ReportTable::num(s.avgPageDivergence, 2),
             ReportTable::num(static_cast<double>(b.cycles) /
                              static_cast<double>(s.cycles))});
    }
    table.print(std::cout);
    std::cout << "\nDefine your own Workload subclass exactly like "
                 "this to evaluate\nGPU MMU designs on new "
                 "unified-address-space kernels.\n";
    return 0;
}
