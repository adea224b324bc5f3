#include "isa/opcode.hh"

#include "common/logging.hh"

namespace tea {

const char *
opName(Op op)
{
    switch (op) {
      case Op::Nop: return "nop";
      case Op::Add: return "add";
      case Op::Sub: return "sub";
      case Op::And: return "and";
      case Op::Or: return "or";
      case Op::Xor: return "xor";
      case Op::Shl: return "shl";
      case Op::Shr: return "shr";
      case Op::AddI: return "addi";
      case Op::AndI: return "andi";
      case Op::ShlI: return "shli";
      case Op::ShrI: return "shri";
      case Op::Li: return "li";
      case Op::Slt: return "slt";
      case Op::SltI: return "slti";
      case Op::Mul: return "mul";
      case Op::Div: return "div";
      case Op::Ld: return "ld";
      case Op::St: return "st";
      case Op::Fld: return "fld";
      case Op::Fst: return "fst";
      case Op::Prefetch: return "prefetch";
      case Op::FAdd: return "fadd";
      case Op::FSub: return "fsub";
      case Op::FMul: return "fmul";
      case Op::FDiv: return "fdiv";
      case Op::FSqrt: return "fsqrt";
      case Op::FMov: return "fmov";
      case Op::FLi: return "fli";
      case Op::FCmpLt: return "flt";
      case Op::Beq: return "beq";
      case Op::Bne: return "bne";
      case Op::Blt: return "blt";
      case Op::Bge: return "bge";
      case Op::Jmp: return "jmp";
      case Op::Call: return "call";
      case Op::Ret: return "ret";
      case Op::FsFlags: return "fsflags";
      case Op::FrFlags: return "frflags";
      case Op::Halt: return "halt";
      case Op::NumOps: break;
    }
    badOp(op);
}

void
badOp(Op op)
{
    tea_panic("unknown op %d", static_cast<int>(op));
}

} // namespace tea
