/**
 * @file
 * Static program representation: instruction list, code layout and the
 * symbol table used for function/basic-block-granularity PICS.
 */

#ifndef TEA_ISA_PROGRAM_HH
#define TEA_ISA_PROGRAM_HH

#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "isa/static_inst.hh"

namespace tea {

/** A named function covering a contiguous static-instruction range. */
struct Symbol
{
    std::string name;
    InstIndex begin = 0; ///< first instruction index (inclusive)
    InstIndex end = 0;   ///< one past the last instruction index
};

/**
 * A complete static program: instructions, code base address and symbols.
 *
 * Instructions are 4 bytes each, so the instruction at index i lives at
 * byte address codeBase() + 4 * i; this drives the I-cache and I-TLB.
 */
class Program
{
  public:
    /** Construct an empty program named @p name. */
    explicit Program(std::string name = "program");

    /** Program name (used in reports). */
    const std::string &name() const { return name_; }

    /** All static instructions. */
    const std::vector<StaticInst> &insts() const { return insts_; }

    /** Static instruction at @p idx. */
    const StaticInst &inst(InstIndex idx) const
    {
        tea_assert(idx < insts_.size(), "instruction index %u out of range",
                   idx);
        return insts_[idx];
    }

    /** Number of static instructions. */
    InstIndex size() const
    {
        return static_cast<InstIndex>(insts_.size());
    }

    /** Code base byte address. */
    Addr codeBase() const { return codeBase_; }

    /** Byte address of the instruction at @p idx. */
    Addr pcOf(InstIndex idx) const { return codeBase_ + 4 * Addr(idx); }

    /** Index of the instruction at byte address @p pc. */
    InstIndex indexOf(Addr pc) const
    {
        return static_cast<InstIndex>((pc - codeBase_) / 4);
    }

    /** Entry-point instruction index. */
    InstIndex entry() const { return entry_; }

    /** Function symbols sorted by begin index. */
    const std::vector<Symbol> &functions() const { return functions_; }

    /**
     * Id of the function containing @p idx, or -1 when the index falls
     * outside every symbol (anonymous code).
     */
    int functionOf(InstIndex idx) const;

    /** Name of function @p id, or "<anon>" for -1. */
    const std::string &functionName(int id) const;

    /**
     * Compute the basic-block id of every instruction. Leaders are the
     * entry, all control-flow targets, and all fall-through successors of
     * control instructions.
     */
    std::vector<std::uint32_t> basicBlockIds() const;

    // Mutators used by ProgramBuilder.
    void append(const StaticInst &inst) { insts_.push_back(inst); }
    void setEntry(InstIndex e) { entry_ = e; }
    void addFunction(Symbol s) { functions_.push_back(std::move(s)); }
    StaticInst &instMutable(InstIndex idx);

  private:
    std::string name_;
    std::vector<StaticInst> insts_;
    std::vector<Symbol> functions_;
    Addr codeBase_ = 0x10000;
    InstIndex entry_ = 0;
    static const std::string anonName_;
};

} // namespace tea

#endif // TEA_ISA_PROGRAM_HH
