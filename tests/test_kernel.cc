/**
 * @file
 * Unit tests for the kernel IR builder and ThreadCtx.
 */

#include <gtest/gtest.h>

#include "gpu/kernel.hh"

using namespace gpummu;

namespace {

KernelProgram
tinyProgram()
{
    KernelProgram prog("tiny");
    const int gen = prog.addAddrGen(
        [](ThreadCtx &c) { return 0x1000u + c.globalTid * 4; });
    const int cond =
        prog.addCondGen([](ThreadCtx &c) { return c.visits(0) < 3; });
    const int b0 = prog.addBlock();
    const int b1 = prog.addBlock();
    prog.appendAlu(b0, 2);
    prog.appendLoad(b0, gen);
    prog.appendBranch(b0, cond, b0, b1, b1);
    prog.appendExit(b1);
    return prog;
}

} // namespace

TEST(Kernel, BuilderProducesValidProgram)
{
    auto prog = tinyProgram();
    prog.validate();
    EXPECT_EQ(prog.numBlocks(), 2u);
    EXPECT_EQ(prog.block(0).instrs.size(), 4u);
    EXPECT_EQ(prog.block(0).instrs[0].op, Opcode::Alu);
    EXPECT_EQ(prog.block(0).instrs[2].op, Opcode::Load);
    EXPECT_EQ(prog.block(1).instrs[0].op, Opcode::Exit);
}

TEST(Kernel, GeneratorsEvaluatePerThread)
{
    auto prog = tinyProgram();
    ThreadCtx a(5, 0, 5, 32, 1);
    ThreadCtx b(6, 0, 6, 32, 1);
    EXPECT_EQ(prog.genAddr(0, a), 0x1000u + 20);
    EXPECT_EQ(prog.genAddr(0, b), 0x1000u + 24);
}

TEST(Kernel, UnconditionalBranchIsAlwaysTaken)
{
    KernelProgram prog("u");
    ThreadCtx c(0, 0, 0, 32, 1);
    EXPECT_TRUE(prog.genCond(-1, c));
}

TEST(Kernel, VisitsDriveConditions)
{
    auto prog = tinyProgram();
    ThreadCtx c(0, 0, 0, 32, 1);
    std::vector<std::uint32_t> visits(prog.numBlocks(), 0);
    c.bindVisits(visits.data(), 1, static_cast<unsigned>(visits.size()));
    visits[0] = 2;
    EXPECT_TRUE(prog.genCond(0, c));
    visits[0] = 3;
    EXPECT_FALSE(prog.genCond(0, c));
}

TEST(ThreadCtx, IdentityFields)
{
    ThreadCtx c(100, 3, 100 - 3 * 0, 32, 7);
    ThreadCtx d(70, 2, 70, 32, 7);
    EXPECT_EQ(d.laneId, 70 % 32);
    EXPECT_EQ(d.warpInBlock, 70 / 32);
    (void)c;
}

TEST(ThreadCtx, RngStreamsArePerThreadDeterministic)
{
    ThreadCtx a1(9, 0, 9, 32, 5), a2(9, 0, 9, 32, 5);
    ThreadCtx b(10, 0, 10, 32, 5);
    EXPECT_EQ(a1.rng.next(), a2.rng.next());
    ThreadCtx a3(9, 0, 9, 32, 5);
    EXPECT_NE(a3.rng.next(), b.rng.next());
}

TEST(KernelDeathTest, EmptyProgramFailsValidation)
{
    KernelProgram prog("empty");
    EXPECT_DEATH(prog.validate(), "no blocks");
}

TEST(KernelDeathTest, BlockWithoutTerminatorFails)
{
    KernelProgram prog("noterm");
    const int b = prog.addBlock();
    prog.appendAlu(b, 1);
    EXPECT_DEATH(prog.validate(), "branch/exit");
}

TEST(KernelDeathTest, CodeAfterTerminatorFails)
{
    KernelProgram prog("after");
    const int b = prog.addBlock();
    prog.appendExit(b);
    prog.appendAlu(b, 1);
    EXPECT_DEATH(prog.validate(), "after a terminator");
}

TEST(KernelDeathTest, BadBranchTargetFails)
{
    KernelProgram prog("badtarget");
    const int b = prog.addBlock();
    prog.appendBranch(b, -1, 5, -1, -1);
    EXPECT_DEATH(prog.validate(), "taken");
}

TEST(KernelDeathTest, ConditionalWithoutReconvergenceFails)
{
    KernelProgram prog("noreconv");
    const int cond =
        prog.addCondGen([](ThreadCtx &) { return true; });
    const int b = prog.addBlock();
    const int b2 = prog.addBlock();
    prog.appendBranch(b, cond, b2, b2, -1);
    prog.appendExit(b2);
    EXPECT_DEATH(prog.validate(), "reconvergence");
}
