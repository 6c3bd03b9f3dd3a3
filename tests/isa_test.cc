#include <gtest/gtest.h>

#include "isa/assembler.h"
#include "isa/instruction.h"
#include "isa/program.h"

namespace bionicdb::isa {
namespace {

TEST(CpValue, EncodeDecode) {
  uint64_t v = EncodeCpValue(CpStatus::kRejected, 0x123456789abcULL);
  EXPECT_EQ(CpValueStatus(v), CpStatus::kRejected);
  EXPECT_EQ(CpValuePayload(v), 0x123456789abcULL);
  EXPECT_EQ(CpValueStatus(EncodeCpValue(CpStatus::kOk, 0)), CpStatus::kOk);
}

TEST(ProgramBuilder, BuildsValidProgram) {
  ProgramBuilder b;
  b.Logic()
      .MovI(1, 5)
      .Search({.table_id = 2, .cp = 0, .key_offset = 8})
      .Yield();
  b.Commit().Ret(2, 0).CommitTxn();
  b.Abort().AbortTxn();
  auto p = b.Build();
  ASSERT_TRUE(p.ok()) << p.status();
  EXPECT_EQ(p.value().size(), 6u);
  EXPECT_EQ(p.value().logic_entry(), 0u);
  EXPECT_EQ(p.value().commit_entry(), 3u);
  EXPECT_EQ(p.value().abort_entry(), 5u);
  EXPECT_EQ(p.value().cp_regs_used(), 1u);
  EXPECT_GE(p.value().gp_regs_used(), 3u);
}

TEST(ProgramBuilder, LabelResolution) {
  ProgramBuilder b;
  b.Logic();
  b.MovI(1, 0);
  b.Label("loop");
  b.AddI(1, 1, 1);
  b.CmpI(1, 10);
  b.Blt("loop");
  b.Yield();
  b.Commit().CommitTxn();
  b.Abort().AbortTxn();
  auto p = b.Build();
  ASSERT_TRUE(p.ok());
  // BLT must point back at the ADD.
  EXPECT_EQ(p.value().at(3).imm, 1);
}

TEST(ProgramBuilder, UndefinedLabelFails) {
  ProgramBuilder b;
  b.Logic().Jmp("nowhere").Yield();
  b.Commit().CommitTxn();
  b.Abort().AbortTxn();
  auto p = b.Build();
  EXPECT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), StatusCode::kNotFound);
}

TEST(ProgramBuilder, MissingSectionsFail) {
  ProgramBuilder b;
  b.Logic().Yield();
  auto p = b.Build();
  EXPECT_FALSE(p.ok());
}

TEST(ProgramValidate, DbInstructionInHandlerRejected) {
  ProgramBuilder b;
  b.Logic().Yield();
  b.Commit().Search({.table_id = 0, .cp = 0}).CommitTxn();
  b.Abort().AbortTxn();
  auto p = b.Build();
  EXPECT_FALSE(p.ok());
}

TEST(ProgramValidate, MissingYieldRejected) {
  ProgramBuilder b;
  b.Logic().Nop();
  b.Commit().CommitTxn();
  b.Abort().AbortTxn();
  auto p = b.Build();
  EXPECT_FALSE(p.ok());
}

TEST(Disassembler, RendersSectionsAndOperands) {
  ProgramBuilder b;
  b.Logic()
      .Search({.table_id = 1, .cp = 3, .key_offset = 16})
      .Yield();
  b.Commit().Ret(1, 3).CommitTxn();
  b.Abort().AbortTxn();
  auto p = b.Build();
  ASSERT_TRUE(p.ok());
  std::string text = p.value().Disassemble();
  EXPECT_NE(text.find(".logic"), std::string::npos);
  EXPECT_NE(text.find(".commit"), std::string::npos);
  EXPECT_NE(text.find(".abort"), std::string::npos);
  EXPECT_NE(text.find("SEARCH t1, key@16, cp3"), std::string::npos);
}

TEST(Assembler, FullProgramRoundTrip) {
  const char* source = R"(
    ; demo stored procedure
    .logic
      MOV   r1, #5
    loop:
      SUB   r1, r1, #1
      CMP   r1, #0
      BGT   loop
      LOAD  r2, [r0 + 16]
      STORE r2, [r0 + 24]
      SEARCH t0, key=0, cp=1
      UPDATE t1, key=8, cp=2, part=r3
      INSERT t2, key=8, payload=32, cp=3, part=1
      SCAN  t3, key=0, out=64, count=50, cp=4
      YIELD
    .commit
      RET r4, cp1
      RET r4, cp2
      COMMIT
    .abort
      ABORT
  )";
  auto p = Assemble(source);
  ASSERT_TRUE(p.ok()) << p.status();
  const Program& prog = p.value();
  EXPECT_EQ(prog.cp_regs_used(), 5u);
  // Instruction classes land where expected.
  EXPECT_EQ(prog.at(0).opcode, Opcode::kMov);
  EXPECT_EQ(prog.at(3).opcode, Opcode::kBgt);
  EXPECT_EQ(prog.at(3).imm, 1);  // loop label
  const Instruction& scan = prog.at(9);
  EXPECT_EQ(scan.opcode, Opcode::kScan);
  EXPECT_EQ(scan.scan_count, 50u);
  EXPECT_EQ(scan.aux_offset, 64);
  const Instruction& ins = prog.at(8);
  EXPECT_EQ(ins.opcode, Opcode::kInsert);
  EXPECT_EQ(ins.partition, 1);
  const Instruction& upd = prog.at(7);
  EXPECT_EQ(upd.part_reg, Reg(3));
}

TEST(Assembler, ReportsLineNumbersOnError) {
  auto p = Assemble(".logic\n  BOGUS r1\n  YIELD\n.commit\n  COMMIT\n.abort\n  ABORT\n");
  ASSERT_FALSE(p.ok());
  EXPECT_NE(p.status().message().find("line 2"), std::string::npos);
}

TEST(Assembler, RejectsInstructionBeforeSection) {
  auto p = Assemble("MOV r1, #1\n.logic\nYIELD\n.commit\nCOMMIT\n.abort\nABORT\n");
  EXPECT_FALSE(p.ok());
}

TEST(Assembler, NegativeOffsetsAndImmediates) {
  auto p = Assemble(R"(
    .logic
      MOV r1, #-5
      LOAD r2, [r0 - 8]
      YIELD
    .commit
      COMMIT
    .abort
      ABORT
  )");
  ASSERT_TRUE(p.ok()) << p.status();
  EXPECT_EQ(p.value().at(0).imm, -5);
  EXPECT_EQ(p.value().at(1).imm, -8);
}

TEST(ProgramParamOffsets, SortedUniqueR0LoadsOutsideScanBuffers) {
  ProgramBuilder b;
  b.Logic()
      .Load(1, 0, 24)
      .Load(2, 0, 8)
      .Load(3, 0, 24)   // duplicate word
      .Load(4, 0, -8)   // block header
      .Load(5, 1, 16);  // not r0-relative
  b.Scan({.table_id = 0, .cp = 0, .aux_offset = 32, .scan_count = 2});
  b.Load(6, 0, 40);     // inside the scan's [32, 48) buffer
  b.Load(7, 0, 48);     // just past it
  b.Yield().Commit().CommitTxn().Abort().AbortTxn();
  auto p = b.Build();
  ASSERT_TRUE(p.ok()) << p.status();
  EXPECT_EQ(p.value().param_offsets(), (std::vector<int64_t>{8, 24, 48}));
}

TEST(ProgramParamOffsets, RegisterScanLengthExcludesRestOfBlock) {
  ProgramBuilder b;
  b.Logic().Load(2, 0, 8);
  b.Scan({.table_id = 0, .cp = 0, .aux_offset = 16, .scan_count = 4,
          .scan_reg = 2});
  b.Load(3, 0, 4096);  // any offset past the buffer start may be written
  b.Yield().Commit().CommitTxn().Abort().AbortTxn();
  auto p = b.Build();
  ASSERT_TRUE(p.ok()) << p.status();
  EXPECT_EQ(p.value().param_offsets(), (std::vector<int64_t>{8}));
}

}  // namespace
}  // namespace bionicdb::isa
