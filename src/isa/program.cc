#include "isa/program.h"

#include <algorithm>
#include <sstream>

namespace bionicdb::isa {

const char* OpcodeName(Opcode op) {
  switch (op) {
    case Opcode::kInsert: return "INSERT";
    case Opcode::kSearch: return "SEARCH";
    case Opcode::kScan: return "SCAN";
    case Opcode::kUpdate: return "UPDATE";
    case Opcode::kRemove: return "REMOVE";
    case Opcode::kAdd: return "ADD";
    case Opcode::kSub: return "SUB";
    case Opcode::kMul: return "MUL";
    case Opcode::kDiv: return "DIV";
    case Opcode::kMov: return "MOV";
    case Opcode::kCmp: return "CMP";
    case Opcode::kLoad: return "LOAD";
    case Opcode::kStore: return "STORE";
    case Opcode::kJmp: return "JMP";
    case Opcode::kBe: return "BE";
    case Opcode::kBne: return "BNE";
    case Opcode::kBle: return "BLE";
    case Opcode::kBlt: return "BLT";
    case Opcode::kBgt: return "BGT";
    case Opcode::kBge: return "BGE";
    case Opcode::kRet: return "RET";
    case Opcode::kCommit: return "COMMIT";
    case Opcode::kAbort: return "ABORT";
    case Opcode::kYield: return "YIELD";
    case Opcode::kNop: return "NOP";
  }
  return "???";
}

namespace {
std::string RegName(Reg r) {
  if (r == kNoReg) return "-";
  return "r" + std::to_string(int(r));
}
}  // namespace

std::string Instruction::ToString() const {
  std::ostringstream os;
  os << OpcodeName(opcode);
  if (IsDbOpcode(opcode)) {
    os << " t" << table_id << ", key@" << key_offset;
    if (key_len != 0) os << "(len=" << key_len << ")";
    os << ", cp" << int(cp);
    if (part_reg != kNoReg) {
      os << ", part=" << RegName(part_reg);
    } else if (partition >= 0) {
      os << ", part=" << partition;
    }
    if (opcode == Opcode::kInsert) os << ", payload@" << aux_offset;
    if (opcode == Opcode::kScan) {
      os << ", out@" << aux_offset << ", count=";
      if (scan_reg != kNoReg) {
        os << RegName(scan_reg);
      } else {
        os << scan_count;
      }
    }
    if (batch_flags & kBatchFlagMember) {
      os << ((batch_flags & kBatchFlagEnd) ? " [batch-end]" : " [batch]");
    }
    return os.str();
  }
  switch (opcode) {
    case Opcode::kAdd:
    case Opcode::kSub:
    case Opcode::kMul:
    case Opcode::kDiv:
      os << " " << RegName(rd) << ", " << RegName(rs1) << ", ";
      if (use_imm) {
        os << "#" << imm;
      } else {
        os << RegName(rs2);
      }
      break;
    case Opcode::kMov:
      os << " " << RegName(rd) << ", ";
      if (use_imm) {
        os << "#" << imm;
      } else {
        os << RegName(rs1);
      }
      break;
    case Opcode::kCmp:
      os << " " << RegName(rs1) << ", ";
      if (use_imm) {
        os << "#" << imm;
      } else {
        os << RegName(rs2);
      }
      break;
    case Opcode::kLoad:
      os << " " << RegName(rd) << ", [" << RegName(rs1) << " + " << imm << "]";
      break;
    case Opcode::kStore:
      os << " " << RegName(rs1) << " -> [" << RegName(rs2) << " + " << imm
         << "]";
      break;
    case Opcode::kJmp:
    case Opcode::kBe:
    case Opcode::kBne:
    case Opcode::kBle:
    case Opcode::kBlt:
    case Opcode::kBgt:
    case Opcode::kBge:
      os << " @" << imm;
      break;
    case Opcode::kRet:
      os << " " << RegName(rd) << ", cp" << int(rs1);
      break;
    default:
      break;
  }
  return os.str();
}

std::string Program::Disassemble() const {
  std::ostringstream os;
  for (uint64_t pc = 0; pc < code_.size(); ++pc) {
    if (pc == logic_entry_) os << ".logic\n";
    if (pc == commit_entry_) os << ".commit\n";
    if (pc == abort_entry_) os << ".abort\n";
    os << "  " << pc << ": " << code_[pc].ToString() << "\n";
  }
  return os.str();
}

Status Program::Validate() const {
  if (code_.empty()) return Status::InvalidArgument("empty program");
  if (commit_entry_ == 0 || abort_entry_ == 0) {
    return Status::InvalidArgument("missing commit or abort section");
  }
  if (commit_entry_ > abort_entry_) {
    return Status::InvalidArgument("commit section must precede abort");
  }
  bool has_yield = false;
  for (uint64_t pc = 0; pc < code_.size(); ++pc) {
    const Instruction& inst = code_[pc];
    switch (inst.opcode) {
      case Opcode::kJmp:
      case Opcode::kBe:
      case Opcode::kBne:
      case Opcode::kBle:
      case Opcode::kBlt:
      case Opcode::kBgt:
      case Opcode::kBge:
        if (inst.imm < 0 || uint64_t(inst.imm) >= code_.size()) {
          return Status::OutOfRange("branch target out of range at pc " +
                                    std::to_string(pc));
        }
        break;
      case Opcode::kYield:
        if (pc >= commit_entry_) {
          return Status::InvalidArgument("YIELD inside a handler at pc " +
                                         std::to_string(pc));
        }
        has_yield = true;
        break;
      case Opcode::kInsert:
      case Opcode::kSearch:
      case Opcode::kScan:
      case Opcode::kUpdate:
      case Opcode::kRemove:
        if (inst.cp == kNoReg) {
          return Status::InvalidArgument(
              "DB instruction without CP register at pc " +
              std::to_string(pc));
        }
        if (pc >= commit_entry_) {
          return Status::InvalidArgument(
              "DB instruction inside a handler at pc " + std::to_string(pc));
        }
        if ((inst.batch_flags & kBatchFlagEnd) != 0 &&
            (inst.batch_flags & kBatchFlagMember) == 0) {
          return Status::InvalidArgument(
              "batch-end flag outside a batch group at pc " +
              std::to_string(pc));
        }
        break;
      default:
        if (inst.batch_flags != 0) {
          return Status::InvalidArgument(
              "batch flags on a CPU instruction at pc " + std::to_string(pc));
        }
        break;
    }
  }
  if (!has_yield) {
    return Status::InvalidArgument("logic section does not YIELD");
  }
  if (code_.back().opcode != Opcode::kCommit &&
      code_.back().opcode != Opcode::kAbort &&
      code_.back().opcode != Opcode::kJmp) {
    return Status::InvalidArgument("program does not terminate");
  }
  return Status::Ok();
}

// --- ProgramBuilder -----------------------------------------------------

ProgramBuilder& ProgramBuilder::Logic() {
  section_ = Section::kLogic;
  logic_entry_ = code_.size();
  has_logic_ = true;
  return *this;
}
ProgramBuilder& ProgramBuilder::Commit() {
  section_ = Section::kCommit;
  commit_entry_ = code_.size();
  has_commit_ = true;
  return *this;
}
ProgramBuilder& ProgramBuilder::Abort() {
  section_ = Section::kAbort;
  abort_entry_ = code_.size();
  has_abort_ = true;
  return *this;
}

ProgramBuilder& ProgramBuilder::Label(const std::string& name) {
  labels_[name] = code_.size();
  return *this;
}

ProgramBuilder& ProgramBuilder::Emit(Instruction inst) {
  code_.push_back(inst);
  return *this;
}

ProgramBuilder& ProgramBuilder::EmitBranch(Opcode op,
                                           const std::string& label) {
  Instruction inst;
  inst.opcode = op;
  fixups_.emplace_back(code_.size(), label);
  return Emit(inst);
}

namespace {
Instruction Alu(Opcode op, Reg rd, Reg rs1, Reg rs2) {
  Instruction i;
  i.opcode = op;
  i.rd = rd;
  i.rs1 = rs1;
  i.rs2 = rs2;
  return i;
}
Instruction AluImm(Opcode op, Reg rd, Reg rs1, int64_t imm) {
  Instruction i;
  i.opcode = op;
  i.rd = rd;
  i.rs1 = rs1;
  i.use_imm = true;
  i.imm = imm;
  return i;
}

// Program::param_offsets(): every r0-relative LOAD offset, unless some
// instruction retargets r0 (only ALU ops, MOV, LOAD and RET set rd) or the
// word overlaps a SCAN output buffer. A register-driven scan length has no
// static bound, so its buffer extends to the end of the block.
std::vector<int64_t> ParamOffsets(const std::vector<Instruction>& code) {
  std::vector<std::pair<int64_t, int64_t>> scan_bufs;  // [begin, end)
  for (const Instruction& inst : code) {
    if (inst.rd == 0) return {};
    if (inst.opcode == Opcode::kScan) {
      const int64_t end = inst.scan_reg != kNoReg
                              ? INT64_MAX
                              : inst.aux_offset + 8 * int64_t(inst.scan_count);
      scan_bufs.emplace_back(inst.aux_offset, end);
    }
  }
  std::vector<int64_t> offsets;
  for (const Instruction& inst : code) {
    if (inst.opcode != Opcode::kLoad || inst.rs1 != 0 || inst.imm < 0) continue;
    const bool in_scan_buf = std::any_of(
        scan_bufs.begin(), scan_bufs.end(), [&inst](const auto& buf) {
          return inst.imm + 8 > buf.first && inst.imm < buf.second;
        });
    if (!in_scan_buf) offsets.push_back(inst.imm);
  }
  std::sort(offsets.begin(), offsets.end());
  offsets.erase(std::unique(offsets.begin(), offsets.end()), offsets.end());
  return offsets;
}
}  // namespace

ProgramBuilder& ProgramBuilder::Add(Reg rd, Reg rs1, Reg rs2) {
  return Emit(Alu(Opcode::kAdd, rd, rs1, rs2));
}
ProgramBuilder& ProgramBuilder::AddI(Reg rd, Reg rs1, int64_t imm) {
  return Emit(AluImm(Opcode::kAdd, rd, rs1, imm));
}
ProgramBuilder& ProgramBuilder::Sub(Reg rd, Reg rs1, Reg rs2) {
  return Emit(Alu(Opcode::kSub, rd, rs1, rs2));
}
ProgramBuilder& ProgramBuilder::SubI(Reg rd, Reg rs1, int64_t imm) {
  return Emit(AluImm(Opcode::kSub, rd, rs1, imm));
}
ProgramBuilder& ProgramBuilder::Mul(Reg rd, Reg rs1, Reg rs2) {
  return Emit(Alu(Opcode::kMul, rd, rs1, rs2));
}
ProgramBuilder& ProgramBuilder::MulI(Reg rd, Reg rs1, int64_t imm) {
  return Emit(AluImm(Opcode::kMul, rd, rs1, imm));
}
ProgramBuilder& ProgramBuilder::Div(Reg rd, Reg rs1, Reg rs2) {
  return Emit(Alu(Opcode::kDiv, rd, rs1, rs2));
}
ProgramBuilder& ProgramBuilder::DivI(Reg rd, Reg rs1, int64_t imm) {
  return Emit(AluImm(Opcode::kDiv, rd, rs1, imm));
}

ProgramBuilder& ProgramBuilder::Mov(Reg rd, Reg rs) {
  Instruction i;
  i.opcode = Opcode::kMov;
  i.rd = rd;
  i.rs1 = rs;
  return Emit(i);
}
ProgramBuilder& ProgramBuilder::MovI(Reg rd, int64_t imm) {
  Instruction i;
  i.opcode = Opcode::kMov;
  i.rd = rd;
  i.use_imm = true;
  i.imm = imm;
  return Emit(i);
}

ProgramBuilder& ProgramBuilder::Cmp(Reg rs1, Reg rs2) {
  Instruction i;
  i.opcode = Opcode::kCmp;
  i.rs1 = rs1;
  i.rs2 = rs2;
  return Emit(i);
}
ProgramBuilder& ProgramBuilder::CmpI(Reg rs1, int64_t imm) {
  Instruction i;
  i.opcode = Opcode::kCmp;
  i.rs1 = rs1;
  i.use_imm = true;
  i.imm = imm;
  return Emit(i);
}

ProgramBuilder& ProgramBuilder::Load(Reg rd, Reg base, int64_t offset) {
  Instruction i;
  i.opcode = Opcode::kLoad;
  i.rd = rd;
  i.rs1 = base;
  i.imm = offset;
  return Emit(i);
}
ProgramBuilder& ProgramBuilder::Store(Reg rs, Reg base, int64_t offset) {
  Instruction i;
  i.opcode = Opcode::kStore;
  i.rs1 = rs;
  i.rs2 = base;
  i.imm = offset;
  return Emit(i);
}

ProgramBuilder& ProgramBuilder::Jmp(const std::string& l) {
  return EmitBranch(Opcode::kJmp, l);
}
ProgramBuilder& ProgramBuilder::Be(const std::string& l) {
  return EmitBranch(Opcode::kBe, l);
}
ProgramBuilder& ProgramBuilder::Bne(const std::string& l) {
  return EmitBranch(Opcode::kBne, l);
}
ProgramBuilder& ProgramBuilder::Ble(const std::string& l) {
  return EmitBranch(Opcode::kBle, l);
}
ProgramBuilder& ProgramBuilder::Blt(const std::string& l) {
  return EmitBranch(Opcode::kBlt, l);
}
ProgramBuilder& ProgramBuilder::Bgt(const std::string& l) {
  return EmitBranch(Opcode::kBgt, l);
}
ProgramBuilder& ProgramBuilder::Bge(const std::string& l) {
  return EmitBranch(Opcode::kBge, l);
}

ProgramBuilder& ProgramBuilder::Ret(Reg rd, Reg cp) {
  Instruction i;
  i.opcode = Opcode::kRet;
  i.rd = rd;
  i.rs1 = cp;
  return Emit(i);
}

ProgramBuilder& ProgramBuilder::Yield() {
  Instruction i;
  i.opcode = Opcode::kYield;
  return Emit(i);
}
ProgramBuilder& ProgramBuilder::CommitTxn() {
  Instruction i;
  i.opcode = Opcode::kCommit;
  return Emit(i);
}
ProgramBuilder& ProgramBuilder::AbortTxn() {
  Instruction i;
  i.opcode = Opcode::kAbort;
  return Emit(i);
}
ProgramBuilder& ProgramBuilder::Nop() {
  Instruction i;
  i.opcode = Opcode::kNop;
  return Emit(i);
}

ProgramBuilder& ProgramBuilder::EmitDb(Opcode op, const DbArgs& args) {
  Instruction i;
  i.opcode = op;
  i.table_id = args.table_id;
  i.cp = args.cp;
  i.key_offset = args.key_offset;
  i.key_len = args.key_len;
  i.part_reg = args.part_reg;
  i.partition = args.partition;
  i.aux_offset = args.aux_offset;
  i.scan_count = args.scan_count;
  i.scan_reg = args.scan_reg;
  if (in_batch_) {
    i.batch_flags = kBatchFlagMember;
    batch_last_db_ = int64_t(code_.size());
  }
  return Emit(i);
}

ProgramBuilder& ProgramBuilder::BeginBatch() {
  in_batch_ = true;
  batch_last_db_ = -1;
  return *this;
}

ProgramBuilder& ProgramBuilder::EndBatch() {
  if (in_batch_ && batch_last_db_ >= 0) {
    code_[uint64_t(batch_last_db_)].batch_flags |= kBatchFlagEnd;
  }
  in_batch_ = false;
  batch_last_db_ = -1;
  return *this;
}

ProgramBuilder& ProgramBuilder::Insert(const DbArgs& a) {
  return EmitDb(Opcode::kInsert, a);
}
ProgramBuilder& ProgramBuilder::Search(const DbArgs& a) {
  return EmitDb(Opcode::kSearch, a);
}
ProgramBuilder& ProgramBuilder::Scan(const DbArgs& a) {
  return EmitDb(Opcode::kScan, a);
}
ProgramBuilder& ProgramBuilder::Update(const DbArgs& a) {
  return EmitDb(Opcode::kUpdate, a);
}
ProgramBuilder& ProgramBuilder::Remove(const DbArgs& a) {
  return EmitDb(Opcode::kRemove, a);
}

StatusOr<Program> ProgramBuilder::Build() {
  if (!has_logic_ || !has_commit_ || !has_abort_) {
    return Status::InvalidArgument(
        "program must define .logic, .commit and .abort sections");
  }
  for (const auto& [pc, label] : fixups_) {
    auto it = labels_.find(label);
    if (it == labels_.end()) {
      return Status::NotFound("undefined label: " + label);
    }
    code_[pc].imm = int64_t(it->second);
  }
  Program p;
  p.code_ = code_;
  p.logic_entry_ = logic_entry_;
  p.commit_entry_ = commit_entry_;
  p.abort_entry_ = abort_entry_;
  uint32_t max_gp = 0;
  uint32_t max_cp = 0;
  for (const Instruction& inst : code_) {
    auto track = [&max_gp](Reg r) {
      if (r != kNoReg) max_gp = std::max(max_gp, uint32_t(r) + 1);
    };
    track(inst.rd);
    track(inst.rs2);
    track(inst.part_reg);
    track(inst.scan_reg);
    if (inst.opcode == Opcode::kRet) {
      // rs1 of RET is a CP register.
      max_cp = std::max(max_cp, uint32_t(inst.rs1) + 1);
    } else {
      track(inst.rs1);
    }
    if (IsDbOpcode(inst.opcode)) {
      max_cp = std::max(max_cp, uint32_t(inst.cp) + 1);
    }
  }
  p.gp_regs_used_ = max_gp;
  p.cp_regs_used_ = max_cp;
  p.param_offsets_ = ParamOffsets(code_);
  BIONICDB_RETURN_IF_ERROR(p.Validate());
  return p;
}

}  // namespace bionicdb::isa
