/**
 * @file
 * Kernel intermediate representation.
 *
 * Workloads describe their GPU kernels as small structured control
 * flow graphs of basic blocks. Instructions are templates: memory
 * operations carry an address-generator id and branches a condition-
 * generator id, both evaluated per thread against its ThreadCtx. This
 * keeps the six benchmark models compact while giving the simulator
 * real per-thread address streams and divergent control flow.
 *
 * Control flow is structured: every branch names its reconvergence
 * block explicitly (the immediate post-dominator), which both the
 * per-warp SIMT stacks and TBC's block-wide stacks consume directly.
 */

#ifndef GPU_KERNEL_HH
#define GPU_KERNEL_HH

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace gpummu {

class ThreadCtx;

enum class Opcode
{
    Alu,    ///< generic compute, no memory traffic
    Load,   ///< global load through TLB + L1
    Store,  ///< global store (write-through)
    Branch, ///< conditional or unconditional control transfer
    Exit,   ///< thread terminates
};

struct Instruction
{
    Opcode op = Opcode::Alu;
    /** Memory ops: index into KernelProgram's address generators. */
    int addrGen = -1;
    /** Branches: condition generator; -1 means always taken. */
    int condGen = -1;
    int takenBlock = -1;
    int fallBlock = -1;
    /** Branches: immediate post-dominator where paths re-join. */
    int reconvBlock = -1;
};

struct BasicBlock
{
    int id = -1;
    std::vector<Instruction> instrs;
};

/** Per-thread evaluation context handed to generators. Its
 *  block-entry counts live with the core (bindVisits()). */
class ThreadCtx
{
  public:
    ThreadCtx() = default;
    ThreadCtx(int global_tid, int block_id, int tid_in_block,
              unsigned warp_width, std::uint64_t seed)
        : globalTid(global_tid), blockId(block_id),
          tidInBlock(tid_in_block),
          laneId(tid_in_block % static_cast<int>(warp_width)),
          warpInBlock(tid_in_block / static_cast<int>(warp_width)),
          rng(splitMix64(seed ^ (static_cast<std::uint64_t>(global_tid)
                                 * 0x9e3779b97f4a7c15ULL)))
    {
    }

    int globalTid = 0;
    int blockId = 0;
    int tidInBlock = 0;
    int laneId = 0;
    int warpInBlock = 0;

    /** Private deterministic random stream. */
    Rng rng;

    /**
     * Per-generator sticky-page state (a thread walking a node list
     * or chain stays on one page for several consecutive accesses).
     * Indexed by the generator's salt modulo the array size.
     */
    struct Sticky
    {
        std::uint64_t page = ~0ULL;
        unsigned left = 0;
    };
    std::array<Sticky, 8> sticky{};

    /** Read basic block b's entry count at row[b * stride], for b
     *  below @p blocks; an unbound context reads 0 everywhere. */
    void
    bindVisits(const std::uint32_t *row, unsigned stride, unsigned blocks)
    {
        visitRow_ = row;
        visitStride_ = stride;
        visitBlocks_ = blocks;
    }

    /** Times this thread has entered basic block @p block. */
    std::uint32_t
    visits(int block) const
    {
        const auto b = static_cast<unsigned>(block);
        return b < visitBlocks_
                   ? visitRow_[std::size_t(b) * visitStride_]
                   : 0;
    }

  private:
    const std::uint32_t *visitRow_ = nullptr;
    unsigned visitStride_ = 0;
    unsigned visitBlocks_ = 0;
};

class KernelProgram
{
  public:
    using AddrGen = std::function<VirtAddr(ThreadCtx &)>;
    using CondGen = std::function<bool(ThreadCtx &)>;

    explicit KernelProgram(std::string name) : name_(std::move(name)) {}

    /** Create a new empty basic block and return its id. */
    int
    addBlock()
    {
        const int id = static_cast<int>(blocks_.size());
        blocks_.push_back(BasicBlock{id, {}});
        return id;
    }

    int
    addAddrGen(AddrGen gen)
    {
        addrGens_.push_back(std::move(gen));
        return static_cast<int>(addrGens_.size()) - 1;
    }

    int
    addCondGen(CondGen gen)
    {
        condGens_.push_back(std::move(gen));
        return static_cast<int>(condGens_.size()) - 1;
    }

    void
    appendAlu(int block, unsigned count = 1)
    {
        for (unsigned i = 0; i < count; ++i)
            blockAt(block).instrs.push_back(Instruction{});
    }

    void
    appendLoad(int block, int addr_gen)
    {
        Instruction in;
        in.op = Opcode::Load;
        in.addrGen = addr_gen;
        blockAt(block).instrs.push_back(in);
    }

    void
    appendStore(int block, int addr_gen)
    {
        Instruction in;
        in.op = Opcode::Store;
        in.addrGen = addr_gen;
        blockAt(block).instrs.push_back(in);
    }

    /** Conditional branch; cond_gen -1 means unconditional. */
    void
    appendBranch(int block, int cond_gen, int taken, int fall,
                 int reconv)
    {
        Instruction in;
        in.op = Opcode::Branch;
        in.condGen = cond_gen;
        in.takenBlock = taken;
        in.fallBlock = fall;
        in.reconvBlock = reconv;
        blockAt(block).instrs.push_back(in);
    }

    void
    appendExit(int block)
    {
        Instruction in;
        in.op = Opcode::Exit;
        blockAt(block).instrs.push_back(in);
    }

    const std::string &name() const { return name_; }
    const std::vector<BasicBlock> &blocks() const { return blocks_; }
    std::size_t numBlocks() const { return blocks_.size(); }
    std::size_t numAddrGens() const { return addrGens_.size(); }
    std::size_t numCondGens() const { return condGens_.size(); }

    const BasicBlock &
    block(int id) const
    {
        GPUMMU_ASSERT(id >= 0 &&
                      id < static_cast<int>(blocks_.size()));
        return blocks_[static_cast<std::size_t>(id)];
    }

    VirtAddr
    genAddr(int gen, ThreadCtx &ctx) const
    {
        GPUMMU_ASSERT(gen >= 0 &&
                      gen < static_cast<int>(addrGens_.size()));
        return addrGens_[static_cast<std::size_t>(gen)](ctx);
    }

    bool
    genCond(int gen, ThreadCtx &ctx) const
    {
        if (gen < 0)
            return true;
        GPUMMU_ASSERT(gen < static_cast<int>(condGens_.size()));
        return condGens_[static_cast<std::size_t>(gen)](ctx);
    }

    /**
     * Validate structural invariants: every block ends in a branch or
     * exit, branch targets are in range, and no instruction follows a
     * terminator. Call once after building.
     */
    void validate() const;

  private:
    BasicBlock &
    blockAt(int id)
    {
        GPUMMU_ASSERT(id >= 0 &&
                      id < static_cast<int>(blocks_.size()));
        return blocks_[static_cast<std::size_t>(id)];
    }

    std::string name_;
    std::vector<BasicBlock> blocks_;
    std::vector<AddrGen> addrGens_;
    std::vector<CondGen> condGens_;
};

} // namespace gpummu

#endif // GPU_KERNEL_HH
