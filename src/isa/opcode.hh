/**
 * @file
 * Opcodes and operand conventions of the mini-RISC ISA that the synthetic
 * workloads are written in.
 *
 * The ISA is RV64-flavoured: 32 integer registers (x0 hardwired to zero)
 * and 32 floating-point registers, a flat register id space where ids
 * 0..31 are integer registers and 32..63 are FP registers, and fixed
 * 4-byte instruction encoding (so pc = code_base + 4 * index).
 */

#ifndef TEA_ISA_OPCODE_HH
#define TEA_ISA_OPCODE_HH

#include <cstdint>

namespace tea {

/** Operation codes. */
enum class Op : std::uint8_t
{
    Nop,

    // Integer ALU
    Add,   ///< rd = rs1 + rs2
    Sub,   ///< rd = rs1 - rs2
    And,   ///< rd = rs1 & rs2
    Or,    ///< rd = rs1 | rs2
    Xor,   ///< rd = rs1 ^ rs2
    Shl,   ///< rd = rs1 << (rs2 & 63)
    Shr,   ///< rd = rs1 >> (rs2 & 63)
    AddI,  ///< rd = rs1 + imm
    AndI,  ///< rd = rs1 & imm
    ShlI,  ///< rd = rs1 << (imm & 63)
    ShrI,  ///< rd = rs1 >> (imm & 63)
    Li,    ///< rd = imm
    Slt,   ///< rd = (int64)rs1 < (int64)rs2
    SltI,  ///< rd = (int64)rs1 < imm
    Mul,   ///< rd = rs1 * rs2 (3-cycle pipelined)
    Div,   ///< rd = rs1 / rs2 (long latency, unpipelined)

    // Memory
    Ld,       ///< rd = mem64[rs1 + imm]
    St,       ///< mem64[rs1 + imm] = rs2
    Fld,      ///< fd = mem64[rs1 + imm] (rd is an FP register)
    Fst,      ///< mem64[rs1 + imm] = fs2 (rs2 is an FP register)
    Prefetch, ///< software prefetch of mem[rs1 + imm] into L1D

    // Floating point (operands are FP registers)
    FAdd,   ///< fd = fs1 + fs2
    FSub,   ///< fd = fs1 - fs2
    FMul,   ///< fd = fs1 * fs2
    FDiv,   ///< fd = fs1 / fs2 (unpipelined)
    FSqrt,  ///< fd = sqrt(fs1) (unpipelined, long latency)
    FMov,   ///< fd = fs1
    FLi,    ///< fd = bit pattern of immediate double
    FCmpLt, ///< rd(int) = fs1 < fs2   (flt.d-style comparison)

    // Control flow (target is a static instruction index)
    Beq,  ///< branch if rs1 == rs2
    Bne,  ///< branch if rs1 != rs2
    Blt,  ///< branch if (int64)rs1 < (int64)rs2
    Bge,  ///< branch if (int64)rs1 >= (int64)rs2
    Jmp,  ///< unconditional jump to target
    Call, ///< x1 = return index; jump to target
    Ret,  ///< jump to index in x1

    // System
    FsFlags, ///< write FP exception flags CSR; always flushes the pipeline
    FrFlags, ///< read FP exception flags CSR; always flushes the pipeline
    Halt,    ///< terminate the program

    NumOps
};

/** Coarse instruction class used for issue-queue routing and reporting. */
enum class InstClass : std::uint8_t
{
    IntAlu,   ///< single-cycle integer op
    IntMul,   ///< pipelined multiply
    IntDiv,   ///< unpipelined divide
    Load,     ///< integer or FP load
    Store,    ///< integer or FP store
    Prefetch, ///< software prefetch (issues like a load, no dest)
    FpAlu,    ///< pipelined FP add/mul/compare/move
    FpDiv,    ///< unpipelined FP divide
    FpSqrt,   ///< unpipelined FP square root
    Branch,   ///< conditional branch, jump, call, return
    Csr,      ///< serializing CSR op (always flushes)
    Nop,      ///< nop / halt
};

/** Mnemonic, e.g. "fsqrt". */
const char *opName(Op op);

/** Panic on a value outside Op (out of line: off the hot path). */
[[noreturn]] void badOp(Op op);

/**
 * Instruction class of @p op. This and the predicates below are
 * constexpr so that the core's per-micro-op calls inline to a compare
 * or a table switch.
 */
constexpr InstClass
opClass(Op op)
{
    switch (op) {
      case Op::Nop:
      case Op::Halt:
        return InstClass::Nop;
      case Op::Add:
      case Op::Sub:
      case Op::And:
      case Op::Or:
      case Op::Xor:
      case Op::Shl:
      case Op::Shr:
      case Op::AddI:
      case Op::AndI:
      case Op::ShlI:
      case Op::ShrI:
      case Op::Li:
      case Op::Slt:
      case Op::SltI:
        return InstClass::IntAlu;
      case Op::Mul:
        return InstClass::IntMul;
      case Op::Div:
        return InstClass::IntDiv;
      case Op::Ld:
      case Op::Fld:
        return InstClass::Load;
      case Op::St:
      case Op::Fst:
        return InstClass::Store;
      case Op::Prefetch:
        return InstClass::Prefetch;
      case Op::FAdd:
      case Op::FSub:
      case Op::FMul:
      case Op::FMov:
      case Op::FLi:
      case Op::FCmpLt:
        return InstClass::FpAlu;
      case Op::FDiv:
        return InstClass::FpDiv;
      case Op::FSqrt:
        return InstClass::FpSqrt;
      case Op::Beq:
      case Op::Bne:
      case Op::Blt:
      case Op::Bge:
      case Op::Jmp:
      case Op::Call:
      case Op::Ret:
        return InstClass::Branch;
      case Op::FsFlags:
      case Op::FrFlags:
        return InstClass::Csr;
      case Op::NumOps:
        break;
    }
    badOp(op);
}

/** True for conditional branches (not jumps/calls/returns). */
constexpr bool
isCondBranch(Op op)
{
    return op == Op::Beq || op == Op::Bne || op == Op::Blt || op == Op::Bge;
}

/** True for any control-flow instruction. */
constexpr bool
isControl(Op op)
{
    return opClass(op) == InstClass::Branch;
}

/** True for loads (Ld/Fld). */
constexpr bool
isLoad(Op op)
{
    return op == Op::Ld || op == Op::Fld;
}

/** True for stores (St/Fst). */
constexpr bool
isStore(Op op)
{
    return op == Op::St || op == Op::Fst;
}

/** True for ops that unconditionally flush the pipeline at commit. */
constexpr bool
isAlwaysFlush(Op op)
{
    return opClass(op) == InstClass::Csr;
}

} // namespace tea

#endif // TEA_ISA_OPCODE_HH
