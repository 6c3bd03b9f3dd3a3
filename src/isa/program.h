// Stored-procedure container and fluent builder.
//
// A stored procedure has three parts (paper Fig. 3): the transaction logic,
// a commit handler and an abort handler. The softcore runs the logic phase
// first (ending at YIELD), later resumes at the commit handler, and jumps to
// the abort handler on any DB-instruction failure or voluntary abort.
#ifndef BIONICDB_ISA_PROGRAM_H_
#define BIONICDB_ISA_PROGRAM_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "isa/instruction.h"

namespace bionicdb::isa {

/// A compiled stored procedure plus the catalogue metadata the softcore
/// needs for transaction grouping (how many GP/CP registers it consumes).
class Program {
 public:
  const std::vector<Instruction>& code() const { return code_; }
  const Instruction& at(uint64_t pc) const { return code_[pc]; }
  uint64_t size() const { return code_.size(); }

  uint64_t logic_entry() const { return logic_entry_; }
  uint64_t commit_entry() const { return commit_entry_; }
  uint64_t abort_entry() const { return abort_entry_; }

  /// Registers consumed per invocation — drives batch closure (section 4.5).
  uint32_t gp_regs_used() const { return gp_regs_used_; }
  uint32_t cp_regs_used() const { return cp_regs_used_; }

  /// Static set of r0-relative LOAD offsets (GP r0 holds the transaction
  /// block's data address), sorted and unique: the words the softcore
  /// prefetches into its on-chip parameter window at admission. Empty when
  /// the program ever writes r0. Words overlapping a SCAN output buffer
  /// are left out (the coprocessor writes them), as are negative offsets
  /// (the block header).
  const std::vector<int64_t>& param_offsets() const { return param_offsets_; }

  /// Multi-line disassembly listing with section markers.
  std::string Disassemble() const;

  /// Structural sanity checks: sections present, branch targets in range,
  /// every DB instruction names a CP register, RET after YIELD only, etc.
  Status Validate() const;

 private:
  friend class ProgramBuilder;

  std::vector<Instruction> code_;
  uint64_t logic_entry_ = 0;
  uint64_t commit_entry_ = 0;
  uint64_t abort_entry_ = 0;
  uint32_t gp_regs_used_ = 0;
  uint32_t cp_regs_used_ = 0;
  std::vector<int64_t> param_offsets_;
};

/// Fluent emitter used by workloads and by the text assembler.
///
/// Sections must be emitted in order: Logic(), then Commit(), then Abort().
/// Labels give symbolic branch targets resolved at Build() time.
class ProgramBuilder {
 public:
  ProgramBuilder& Logic();
  ProgramBuilder& Commit();
  ProgramBuilder& Abort();

  /// Binds `name` to the next emitted instruction.
  ProgramBuilder& Label(const std::string& name);

  // --- CPU instructions -------------------------------------------------
  ProgramBuilder& Add(Reg rd, Reg rs1, Reg rs2);
  ProgramBuilder& AddI(Reg rd, Reg rs1, int64_t imm);
  ProgramBuilder& Sub(Reg rd, Reg rs1, Reg rs2);
  ProgramBuilder& SubI(Reg rd, Reg rs1, int64_t imm);
  ProgramBuilder& Mul(Reg rd, Reg rs1, Reg rs2);
  ProgramBuilder& MulI(Reg rd, Reg rs1, int64_t imm);
  ProgramBuilder& Div(Reg rd, Reg rs1, Reg rs2);
  ProgramBuilder& DivI(Reg rd, Reg rs1, int64_t imm);
  ProgramBuilder& Mov(Reg rd, Reg rs);
  ProgramBuilder& MovI(Reg rd, int64_t imm);
  ProgramBuilder& Cmp(Reg rs1, Reg rs2);
  ProgramBuilder& CmpI(Reg rs1, int64_t imm);

  /// LOAD rd <- mem[GP[base] + offset]; base == kNoReg uses the transaction
  /// block base address (the worker loads it into GP r0 at txn start, but
  /// the addressing mode of the paper is base-offset, so we keep it
  /// explicit).
  ProgramBuilder& Load(Reg rd, Reg base, int64_t offset);
  /// STORE mem[GP[base] + offset] <- GP[rs].
  ProgramBuilder& Store(Reg rs, Reg base, int64_t offset);

  ProgramBuilder& Jmp(const std::string& label);
  ProgramBuilder& Be(const std::string& label);
  ProgramBuilder& Bne(const std::string& label);
  ProgramBuilder& Ble(const std::string& label);
  ProgramBuilder& Blt(const std::string& label);
  ProgramBuilder& Bgt(const std::string& label);
  ProgramBuilder& Bge(const std::string& label);

  /// RET rd <- CP[cp]: blocks until the DB result arrives; on an error
  /// status the softcore transfers control to the abort handler.
  ProgramBuilder& Ret(Reg rd, Reg cp);

  ProgramBuilder& Yield();
  ProgramBuilder& CommitTxn();
  ProgramBuilder& AbortTxn();
  ProgramBuilder& Nop();

  // --- DB instructions ---------------------------------------------------
  struct DbArgs {
    uint16_t table_id = 0;
    Reg cp = 0;
    int32_t key_offset = 0;
    uint16_t key_len = 0;       // 0 = schema default
    Reg part_reg = kNoReg;      // partition from a GP register...
    int32_t partition = -1;     // ...or immediate; -1 = local partition
    int32_t aux_offset = 0;     // insert payload / scan output buffer
    uint32_t scan_count = 0;
    Reg scan_reg = kNoReg;      // scan count from a GP register (overrides
                                // the immediate when not kNoReg)
  };

  ProgramBuilder& Insert(const DbArgs& args);
  ProgramBuilder& Search(const DbArgs& args);
  ProgramBuilder& Scan(const DbArgs& args);
  ProgramBuilder& Update(const DbArgs& args);
  ProgramBuilder& Remove(const DbArgs& args);

  /// Batch op framing: DB instructions emitted between BeginBatch() and
  /// EndBatch() carry kBatchFlagMember, and the group's last DB
  /// instruction also carries kBatchFlagEnd — the index pipelines' batch
  /// collectors flush on that hint instead of waiting out their timeout.
  /// Framing is advisory: per-op pipelines ignore the flags entirely.
  ProgramBuilder& BeginBatch();
  ProgramBuilder& EndBatch();

  /// Resolves labels, computes register usage and validates the result.
  StatusOr<Program> Build();

 private:
  enum class Section { kNone, kLogic, kCommit, kAbort };

  ProgramBuilder& Emit(Instruction inst);
  ProgramBuilder& EmitDb(Opcode op, const DbArgs& args);
  ProgramBuilder& EmitBranch(Opcode op, const std::string& label);

  std::vector<Instruction> code_;
  std::map<std::string, uint64_t> labels_;
  std::vector<std::pair<uint64_t, std::string>> fixups_;
  Section section_ = Section::kNone;
  uint64_t logic_entry_ = 0;
  uint64_t commit_entry_ = 0;
  uint64_t abort_entry_ = 0;
  bool has_logic_ = false;
  bool has_commit_ = false;
  bool has_abort_ = false;
  bool in_batch_ = false;
  int64_t batch_last_db_ = -1;  // pc of the open group's last DB op
};

}  // namespace bionicdb::isa

#endif  // BIONICDB_ISA_PROGRAM_H_
