/**
 * @file
 * Unit tests for the ISA layer: opcodes, builder, functional executor,
 * sparse memory, programs/symbols and the disassembler.
 */

#include <gtest/gtest.h>

#include "isa/builder.hh"
#include "isa/disasm.hh"
#include "isa/executor.hh"
#include "isa/memory.hh"
#include "isa/opcode.hh"

using namespace tea;

TEST(Opcode, Classification)
{
    EXPECT_EQ(opClass(Op::Add), InstClass::IntAlu);
    EXPECT_EQ(opClass(Op::Mul), InstClass::IntMul);
    EXPECT_EQ(opClass(Op::Div), InstClass::IntDiv);
    EXPECT_EQ(opClass(Op::Fld), InstClass::Load);
    EXPECT_EQ(opClass(Op::Fst), InstClass::Store);
    EXPECT_EQ(opClass(Op::FSqrt), InstClass::FpSqrt);
    EXPECT_EQ(opClass(Op::Beq), InstClass::Branch);
    EXPECT_EQ(opClass(Op::FsFlags), InstClass::Csr);
}

TEST(Opcode, Predicates)
{
    EXPECT_TRUE(isLoad(Op::Ld));
    EXPECT_TRUE(isLoad(Op::Fld));
    EXPECT_FALSE(isLoad(Op::St));
    EXPECT_TRUE(isStore(Op::Fst));
    EXPECT_TRUE(isCondBranch(Op::Blt));
    EXPECT_FALSE(isCondBranch(Op::Jmp));
    EXPECT_TRUE(isControl(Op::Ret));
    EXPECT_TRUE(isAlwaysFlush(Op::FrFlags));
    EXPECT_FALSE(isAlwaysFlush(Op::FSqrt));
}

TEST(SparseMemory, ZeroFill)
{
    SparseMemory m;
    EXPECT_EQ(m.read(0x1000), 0u);
    EXPECT_EQ(m.populatedPages(), 0u); // reads allocate nothing
}

TEST(SparseMemory, ReadBack)
{
    SparseMemory m;
    m.write(0x2000, 42);
    m.write(0x2000 + pageBytes, 43);
    EXPECT_EQ(m.read(0x2000), 42u);
    EXPECT_EQ(m.read(0x2000 + pageBytes), 43u);
    EXPECT_EQ(m.populatedPages(), 2u);
}

TEST(SparseMemory, DoubleRoundTrip)
{
    SparseMemory m;
    m.writeDouble(0x3000, 3.14159);
    EXPECT_DOUBLE_EQ(m.readDouble(0x3000), 3.14159);
}

TEST(SparseMemory, ContentHashIgnoresWriteOrder)
{
    SparseMemory a;
    SparseMemory b;
    for (Addr i = 0; i < 3000; ++i)
        a.write(0x10000 + 8 * i * 7, i * 0x1234567ULL + 1);
    for (Addr i = 3000; i-- > 0;)
        b.write(0x10000 + 8 * i * 7, i * 0x1234567ULL + 1);
    EXPECT_EQ(a.contentHash(), b.contentHash());
}

TEST(SparseMemory, ContentHashZeroPageMatchesAbsent)
{
    SparseMemory empty;
    SparseMemory zeroed;
    zeroed.write(0x5000, 0);
    ASSERT_EQ(zeroed.populatedPages(), 1u);
    EXPECT_EQ(zeroed.contentHash(), empty.contentHash());

    SparseMemory one;
    one.write(0x9000, 7);
    SparseMemory one_and_zero = one;
    one_and_zero.write(0x5000, 0);
    EXPECT_EQ(one_and_zero.contentHash(), one.contentHash());
}

TEST(SparseMemory, ContentHashSeesEveryWord)
{
    // Every word position, so each of the four lanes at every depth;
    // also the same change on another page.
    SparseMemory base;
    for (Addr i = 0; i < pageBytes / 8; ++i)
        base.write(0x4000 + 8 * i, i + 1);
    const std::uint64_t h = base.contentHash();
    for (Addr i = 0; i < pageBytes / 8; ++i) {
        SparseMemory m = base;
        m.write(0x4000 + 8 * i, m.read(0x4000 + 8 * i) ^ 0x100);
        EXPECT_NE(m.contentHash(), h) << "word " << i;
    }
    SparseMemory moved;
    for (Addr i = 0; i < pageBytes / 8; ++i)
        moved.write(0x8000 + 8 * i, i + 1);
    EXPECT_NE(moved.contentHash(), h);
}

TEST(SparseMemory, LineAndPageHelpers)
{
    EXPECT_EQ(lineOf(0x12345), 0x12340u);
    EXPECT_EQ(pageOf(0x12345), 0x12u);
}

TEST(Builder, ForwardLabelPatched)
{
    ProgramBuilder b("t");
    Label end = b.label();
    b.jmp(end);
    b.addi(x(5), x(5), 1); // skipped
    b.bind(end);
    b.halt();
    Program p = b.build();
    EXPECT_EQ(p.inst(0).target, 2u);
}

TEST(Builder, FunctionSymbols)
{
    ProgramBuilder b("t");
    b.beginFunction("first");
    b.nop();
    b.nop();
    b.endFunction();
    b.beginFunction("second");
    b.halt();
    b.endFunction();
    Program p = b.build();
    ASSERT_EQ(p.functions().size(), 2u);
    EXPECT_EQ(p.functionOf(0), 0);
    EXPECT_EQ(p.functionOf(1), 0);
    EXPECT_EQ(p.functionOf(2), 1);
    EXPECT_EQ(p.functionName(1), "second");
    EXPECT_EQ(p.functionName(-1), "<anon>");
}

TEST(Builder, PcMapping)
{
    ProgramBuilder b("t");
    b.nop();
    b.halt();
    Program p = b.build();
    EXPECT_EQ(p.pcOf(1), p.codeBase() + 4);
    EXPECT_EQ(p.indexOf(p.pcOf(1)), 1u);
}

TEST(Executor, AluSemantics)
{
    ProgramBuilder b("t");
    b.li(x(5), 6);
    b.li(x(6), 7);
    b.mul(x(7), x(5), x(6));
    b.sub(x(8), x(7), x(5));
    b.shli(x(9), x(5), 2);
    b.div(x(10), x(7), x(6));
    b.halt();
    Program p = b.build();
    ArchState st;
    InstIndex pc = 0;
    while (true) {
        ExecResult r = execute(p, pc, st);
        if (r.halted)
            break;
        pc = r.nextPc;
    }
    EXPECT_EQ(st.reg(x(7)), 42u);
    EXPECT_EQ(st.reg(x(8)), 36u);
    EXPECT_EQ(st.reg(x(9)), 24u);
    EXPECT_EQ(st.reg(x(10)), 6u);
}

TEST(Executor, X0IsHardwiredZero)
{
    ProgramBuilder b("t");
    b.li(x(0), 99);
    b.add(x(5), x(0), x(0));
    b.halt();
    Program p = b.build();
    ArchState st;
    InstIndex pc = 0;
    while (true) {
        ExecResult r = execute(p, pc, st);
        if (r.halted)
            break;
        pc = r.nextPc;
    }
    EXPECT_EQ(st.reg(x(0)), 0u);
    EXPECT_EQ(st.reg(x(5)), 0u);
}

TEST(Executor, DivByZeroYieldsZero)
{
    ProgramBuilder b("t");
    b.li(x(5), 10);
    b.div(x(6), x(5), x(0));
    b.halt();
    Program p = b.build();
    ArchState st;
    execute(p, 0, st);
    execute(p, 1, st);
    EXPECT_EQ(st.reg(x(6)), 0u);
}

TEST(Executor, LoadsAndStores)
{
    ProgramBuilder b("t");
    b.li(x(5), 0x10000000);
    b.li(x(6), 1234);
    b.st(x(5), 8, x(6));
    b.ld(x(7), x(5), 8);
    b.halt();
    Program p = b.build();
    ArchState st;
    InstIndex pc = 0;
    while (true) {
        ExecResult r = execute(p, pc, st);
        if (r.halted)
            break;
        pc = r.nextPc;
    }
    EXPECT_EQ(st.reg(x(7)), 1234u);
    EXPECT_EQ(st.mem.read(0x10000008), 1234u);
}

TEST(Executor, BranchesFollowCondition)
{
    ProgramBuilder b("t");
    b.li(x(5), 0);
    b.li(x(6), 3);
    Label top = b.here();
    b.addi(x(5), x(5), 1);
    b.blt(x(5), x(6), top);
    b.halt();
    Program p = b.build();
    ArchState st;
    InstIndex pc = 0;
    int executed = 0;
    while (executed < 1000) {
        ExecResult r = execute(p, pc, st);
        ++executed;
        if (r.halted)
            break;
        pc = r.nextPc;
    }
    EXPECT_EQ(st.reg(x(5)), 3u);
}

TEST(Executor, CallAndRet)
{
    ProgramBuilder b("t");
    Label fn = b.label();
    b.call(fn);
    b.halt();
    b.bind(fn);
    b.li(x(5), 7);
    b.ret();
    Program p = b.build();
    ArchState st;
    InstIndex pc = 0;
    while (true) {
        ExecResult r = execute(p, pc, st);
        if (r.halted)
            break;
        pc = r.nextPc;
    }
    EXPECT_EQ(st.reg(x(5)), 7u);
    EXPECT_EQ(st.reg(linkReg), 1u); // return index after the call
}

TEST(Executor, FpSemantics)
{
    ProgramBuilder b("t");
    b.fli(f(1), 2.25);
    b.fsqrt(f(2), f(1));
    b.fmul(f(3), f(2), f(2));
    b.fcmplt(x(5), f(1), f(3));
    b.halt();
    Program p = b.build();
    ArchState st;
    InstIndex pc = 0;
    while (true) {
        ExecResult r = execute(p, pc, st);
        if (r.halted)
            break;
        pc = r.nextPc;
    }
    EXPECT_DOUBLE_EQ(st.fpReg(f(2)), 1.5);
    EXPECT_NEAR(st.fpReg(f(3)), 2.25, 1e-12);
    EXPECT_EQ(st.reg(x(5)), 0u); // 2.25 < 2.25 is false
}

TEST(Executor, NegativeSqrtClampsToZero)
{
    ProgramBuilder b("t");
    b.fli(f(1), -4.0);
    b.fsqrt(f(2), f(1));
    b.halt();
    Program p = b.build();
    ArchState st;
    execute(p, 0, st);
    execute(p, 1, st);
    EXPECT_DOUBLE_EQ(st.fpReg(f(2)), 0.0);
}

TEST(Program, BasicBlocks)
{
    ProgramBuilder b("t");
    b.li(x(5), 0);       // 0: block 0
    Label top = b.here();
    b.addi(x(5), x(5), 1); // 1: block 1 (branch target)
    b.slti(x(6), x(5), 3); // 2
    b.bne(x(6), x(0), top); // 3
    b.halt();              // 4: block 2 (fall-through leader)
    Program p = b.build();
    auto ids = p.basicBlockIds();
    EXPECT_EQ(ids[0], 0u);
    EXPECT_EQ(ids[1], 1u);
    EXPECT_EQ(ids[2], 1u);
    EXPECT_EQ(ids[3], 1u);
    EXPECT_EQ(ids[4], 2u);
}

TEST(Disasm, RendersOperands)
{
    StaticInst ld{Op::Fld, f(2), x(5), noReg, 16};
    EXPECT_EQ(disassemble(ld), "fld f2, 16(x5)");
    StaticInst add{Op::Add, x(3), x(1), x(2)};
    EXPECT_EQ(disassemble(add), "add x3, x1, x2");
    StaticInst st{Op::St, noReg, x(5), x(6), 8};
    EXPECT_EQ(disassemble(st), "st x6, 8(x5)");
    StaticInst csr{Op::FsFlags};
    EXPECT_EQ(disassemble(csr), "fsflags");
}

TEST(Disasm, RegNames)
{
    EXPECT_EQ(regName(x(0)), "x0");
    EXPECT_EQ(regName(f(31)), "f31");
    EXPECT_EQ(regName(noReg), "-");
}
