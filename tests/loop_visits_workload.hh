/**
 * @file
 * A divergent loop that records each thread's block-entry counts, for
 * the shader-core tests of ThreadCtx::visits().
 */

#ifndef TESTS_LOOP_VISITS_WORKLOAD_HH
#define TESTS_LOOP_VISITS_WORKLOAD_HH

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "workloads/workload.hh"

namespace gpummu {

/**
 * Every thread runs basic block 1 trips(globalTid) times; the lanes
 * of a warp take different trip counts. The loop condition records
 * (globalTid, visits(1)) at each trip, and a branch after the loop,
 * which every thread reaches once all its warp's (or block's) lanes
 * have left the loop, records visits(1) once more.
 */
class LoopVisitsWorkload : public Workload
{
  public:
    LoopVisitsWorkload(unsigned threads_per_block, unsigned blocks)
        : Workload(WorkloadParams{}),
          seen(std::size_t(threads_per_block) * blocks),
          after(std::size_t(threads_per_block) * blocks, 0),
          prog_("loopvisits"), tpb_(threads_per_block), blocks_(blocks)
    {
    }

    static std::uint32_t
    trips(int global_tid)
    {
        return 1 + static_cast<std::uint32_t>(global_tid * 7 +
                                              global_tid / 5) %
                       5;
    }

    std::string name() const override { return "loopvisits"; }
    const KernelProgram &program() const override { return prog_; }
    unsigned threadsPerBlock() const override { return tpb_; }
    unsigned numBlocks() const override { return blocks_; }

    void
    build(AddressSpace &as) override
    {
        (void)as;
        // The trip count steers the loop, not visits(1): a wrong count
        // shows in what is recorded instead of hanging the run.
        const int loop = prog_.addCondGen([this](ThreadCtx &c) {
            auto &s = seen[static_cast<std::size_t>(c.globalTid)];
            s.push_back(c.visits(1));
            return s.size() < trips(c.globalTid);
        });
        const int done = prog_.addCondGen([this](ThreadCtx &c) {
            after[static_cast<std::size_t>(c.globalTid)] = c.visits(1);
            return false;
        });
        const int b0 = prog_.addBlock();
        const int b1 = prog_.addBlock(); // the loop
        const int b2 = prog_.addBlock(); // after the loop
        const int b3 = prog_.addBlock(); // exit
        prog_.appendAlu(b0, 1);
        prog_.appendBranch(b0, -1, b1, -1, -1);
        prog_.appendAlu(b1, 1);
        prog_.appendBranch(b1, loop, b1, b2, b2);
        prog_.appendBranch(b2, done, b3, b3, b3);
        prog_.appendExit(b3);
    }

    /** Per global thread id: visits(1) at each loop condition. */
    std::vector<std::vector<std::uint32_t>> seen;
    /** Per global thread id: visits(1) after the loop. */
    std::vector<std::uint32_t> after;

  private:
    KernelProgram prog_;
    unsigned tpb_;
    unsigned blocks_;
};

/** Every thread saw 1, 2, ..., trips in order, and trips after. */
inline void
expectEachThreadCountedItsTrips(const LoopVisitsWorkload &wl)
{
    for (std::size_t tid = 0; tid < wl.seen.size(); ++tid) {
        const std::uint32_t n =
            LoopVisitsWorkload::trips(static_cast<int>(tid));
        std::vector<std::uint32_t> want(n);
        for (std::uint32_t i = 0; i < n; ++i)
            want[i] = i + 1;
        EXPECT_EQ(wl.seen[tid], want) << "thread " << tid;
        EXPECT_EQ(wl.after[tid], n) << "thread " << tid;
    }
}

} // namespace gpummu

#endif // TESTS_LOOP_VISITS_WORKLOAD_HH
