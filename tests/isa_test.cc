#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <string>

#include "apps/bugs.h"
#include "apps/workloads.h"
#include "isa/disasm.h"
#include "isa/instruction.h"
#include "isa/program.h"
#include "isa/rollback_table.h"

namespace kivati {
namespace {

TEST(InstructionTest, LengthsAreVariable) {
  Instruction nop{.op = Opcode::kNop};
  Instruction mov{.op = Opcode::kMov, .rd = 1, .rs1 = 2};
  Instruction li_small{.op = Opcode::kLoadImm, .rd = 1, .imm = 42};
  Instruction li_big{.op = Opcode::kLoadImm, .rd = 1, .imm = 1LL << 40};
  EXPECT_EQ(EncodedLength(nop), 1u);
  EXPECT_EQ(EncodedLength(mov), 3u);
  EXPECT_EQ(EncodedLength(li_small), 5u);
  EXPECT_EQ(EncodedLength(li_big), 10u);
}

TEST(InstructionTest, MemoryOperandOffsetAffectsLength) {
  Instruction near{.op = Opcode::kLoad, .rd = 1, .mem = MemOperand::Indirect(2, 16), .size = 8};
  Instruction far{.op = Opcode::kLoad, .rd = 1, .mem = MemOperand::Indirect(2, 4096), .size = 8};
  EXPECT_LT(EncodedLength(near), EncodedLength(far));
}

TEST(InstructionTest, MemoryClassification) {
  EXPECT_TRUE(ReadsMemory(Opcode::kLoad));
  EXPECT_FALSE(WritesMemory(Opcode::kLoad));
  EXPECT_TRUE(WritesMemory(Opcode::kStore));
  EXPECT_TRUE(ReadsMemory(Opcode::kMovM));
  EXPECT_TRUE(WritesMemory(Opcode::kMovM));
  EXPECT_TRUE(ReadsMemory(Opcode::kXchg));
  EXPECT_TRUE(WritesMemory(Opcode::kXchg));
  EXPECT_TRUE(WritesMemory(Opcode::kCall));     // pushes the return address
  EXPECT_TRUE(ReadsMemory(Opcode::kRet));       // pops it
  EXPECT_FALSE(AccessesMemory(Opcode::kAdd));
  EXPECT_FALSE(AccessesMemory(Opcode::kABegin));
}

TEST(InstructionTest, StackDeltas) {
  EXPECT_EQ(StackDelta(Opcode::kPush), -8);
  EXPECT_EQ(StackDelta(Opcode::kPushM), -8);
  EXPECT_EQ(StackDelta(Opcode::kCall), -8);
  EXPECT_EQ(StackDelta(Opcode::kCallInd), -8);
  EXPECT_EQ(StackDelta(Opcode::kPop), 8);
  EXPECT_EQ(StackDelta(Opcode::kRet), 8);
  EXPECT_EQ(StackDelta(Opcode::kStore), 0);
}

TEST(ProgramBuilderTest, AssignsContiguousPcs) {
  ProgramBuilder b;
  b.BeginFunction("f");
  b.Nop();                 // 1 byte
  b.LoadImm(1, 5);         // 5 bytes
  b.Mov(2, 1);             // 3 bytes
  b.Ret();                 // 1 byte
  b.EndFunction();
  const Program p = b.Build();
  ASSERT_EQ(p.size(), 4u);
  EXPECT_EQ(p.PcOf(0), 0u);
  EXPECT_EQ(p.PcOf(1), 1u);
  EXPECT_EQ(p.PcOf(2), 6u);
  EXPECT_EQ(p.PcOf(3), 9u);
  EXPECT_EQ(p.text_end(), 10u);
  EXPECT_EQ(p.IndexOfPc(6).value(), 2u);
  EXPECT_FALSE(p.IndexOfPc(7).has_value());
}

TEST(ProgramBuilderTest, PatchesBranchTargets) {
  ProgramBuilder b;
  b.BeginFunction("f");
  const auto target = b.NewLabel();
  b.Jmp(target);
  b.Nop();
  b.Bind(target);
  b.Ret();
  b.EndFunction();
  const Program p = b.Build();
  EXPECT_EQ(static_cast<ProgramCounter>(p.At(0).target), p.PcOf(2));
}

TEST(ProgramBuilderTest, ForwardFunctionReference) {
  ProgramBuilder b;
  b.BeginFunction("caller");
  b.Call("callee");
  b.Ret();
  b.EndFunction();
  b.BeginFunction("callee");
  b.Ret();
  b.EndFunction();
  const Program p = b.Build();
  const FunctionInfo* callee = p.FindFunction("callee");
  ASSERT_NE(callee, nullptr);
  EXPECT_EQ(static_cast<ProgramCounter>(p.At(0).target), callee->entry);
}

TEST(ProgramBuilderTest, UnboundLabelThrows) {
  ProgramBuilder b;
  b.BeginFunction("f");
  b.Call("missing");
  b.Ret();
  b.EndFunction();
  EXPECT_THROW(b.Build(), std::runtime_error);
}

TEST(ProgramBuilderTest, LoadFunctionAddressPatchesImm) {
  ProgramBuilder b;
  b.BeginFunction("main");
  b.LoadFunctionAddress(0, "worker");
  b.Ret();
  b.EndFunction();
  b.BeginFunction("worker");
  b.Ret();
  b.EndFunction();
  const Program p = b.Build();
  EXPECT_EQ(static_cast<ProgramCounter>(p.At(0).imm), p.FindFunction("worker")->entry);
}

TEST(ProgramTest, FunctionAtCoversBody) {
  ProgramBuilder b;
  b.BeginFunction("a");
  b.Nop();
  b.Ret();
  b.EndFunction();
  b.BeginFunction("b");
  b.Nop();
  b.Ret();
  b.EndFunction();
  const Program p = b.Build();
  EXPECT_EQ(p.FunctionAt(p.FindFunction("a")->entry)->name, "a");
  EXPECT_EQ(p.FunctionAt(p.FindFunction("b")->entry)->name, "b");
}

// The decode tables built at Build() time must agree with the slow path they
// replace: IndexOfPc with a linear PC scan, LengthAt with EncodedLength.
TEST(ProgramTest, DecodeTablesMatchSlowPath) {
  ProgramBuilder b;
  b.BeginFunction("f");
  b.Nop();
  b.LoadImm(1, 5);
  b.LoadImm(2, 1LL << 40);
  b.Load(3, MemOperand::Indirect(1, 4096), 4);
  b.Store(MemOperand::Absolute(0x10000), 2);
  b.Ret();
  b.EndFunction();
  const Program p = b.Build();

  std::size_t next = 0;  // walk every text byte, not just instruction starts
  for (ProgramCounter pc = 0; pc < p.text_end(); ++pc) {
    const auto index = p.IndexOfPc(pc);
    if (next < p.size() && pc == p.PcOf(next)) {
      ASSERT_TRUE(index.has_value()) << "pc=" << pc;
      EXPECT_EQ(*index, next);
      EXPECT_EQ(p.LengthAt(next), EncodedLength(p.At(next)));
      ++next;
    } else {
      EXPECT_FALSE(index.has_value()) << "mid-instruction pc=" << pc;
    }
  }
  EXPECT_EQ(next, p.size());
  EXPECT_FALSE(p.IndexOfPc(p.text_end()).has_value());
  EXPECT_FALSE(p.IndexOfPc(p.text_end() + 1000).has_value());
  // The sentinel return address threads jump to on exit is far out of text.
  EXPECT_FALSE(p.IndexOfPc(0xDEAD0000).has_value());
}

TEST(ProgramTest, FunctionLookupEdgeCases) {
  ProgramBuilder b;
  b.BeginFunction("a");
  b.Nop();
  b.LoadImm(1, 9);
  b.Ret();
  b.EndFunction();
  b.BeginFunction("b");
  b.Ret();
  b.EndFunction();
  const Program p = b.Build();

  EXPECT_EQ(p.FindFunction("missing"), nullptr);
  // Every PC inside a body maps back to its function; one past the last
  // function's body maps to nothing.
  for (ProgramCounter pc = 0; pc < p.text_end(); ++pc) {
    const FunctionInfo* f = p.FunctionAt(pc);
    ASSERT_NE(f, nullptr) << "pc=" << pc;
    EXPECT_EQ(f->name, pc < p.FindFunction("b")->entry ? "a" : "b");
  }
  EXPECT_EQ(p.FunctionAt(p.text_end()), nullptr);
  EXPECT_EQ(p.FunctionAt(p.text_end() + 64), nullptr);
}

TEST(RollbackTableTest, MapsNextPcToAccessingInstruction) {
  ProgramBuilder b;
  b.BeginFunction("f");
  b.LoadImm(1, 7);                                          // not a memory access
  b.Store(MemOperand::Absolute(0x10000), 1);                // memory access
  b.Load(2, MemOperand::Absolute(0x10000));                 // memory access
  b.Ret();
  b.EndFunction();
  const Program p = b.Build();
  const RollbackTable table(p);

  const ProgramCounter store_pc = p.PcOf(1);
  const ProgramCounter load_pc = p.PcOf(2);
  EXPECT_EQ(table.PrevAccessingPc(load_pc).value(), store_pc);           // next of store
  EXPECT_EQ(table.PrevAccessingPc(p.PcOf(3)).value(), load_pc);          // next of load
  EXPECT_FALSE(table.PrevAccessingPc(store_pc).has_value());             // next of loadimm
}

TEST(RollbackTableTest, FunctionEntriesRecorded) {
  ProgramBuilder b;
  b.BeginFunction("main");
  b.Ret();
  b.EndFunction();
  b.BeginFunction("helper");
  b.Ret();
  b.EndFunction();
  const Program p = b.Build();
  const RollbackTable table(p);
  EXPECT_TRUE(table.IsFunctionEntry(p.FindFunction("main")->entry));
  EXPECT_TRUE(table.IsFunctionEntry(p.FindFunction("helper")->entry));
  EXPECT_FALSE(table.IsFunctionEntry(p.text_end()));
}

// The lookups derived by brute force, as the pre-processing pass states
// them: each memory-accessing instruction's end PC maps back to its start,
// and every function's entry PC is an entry. The table must agree at every
// PC, mid-instruction bytes and the bytes past the text included.
void ExpectMatchesBruteForce(const Program& p, const std::string& name) {
  std::map<ProgramCounter, ProgramCounter> next_to_prev;
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (AccessesMemory(p.At(i).op)) {
      next_to_prev.emplace(p.PcOf(i) + EncodedLength(p.At(i)), p.PcOf(i));
    }
  }
  std::set<ProgramCounter> entries;
  for (const FunctionInfo& f : p.functions()) {
    entries.insert(f.entry);
  }
  const RollbackTable table(p);
  EXPECT_EQ(table.entries(), next_to_prev.size()) << name;
  for (ProgramCounter pc = 0; pc < p.text_end() + 16; ++pc) {
    const auto it = next_to_prev.find(pc);
    const std::optional<ProgramCounter> prev =
        it == next_to_prev.end() ? std::nullopt : std::optional<ProgramCounter>(it->second);
    ASSERT_EQ(table.PrevAccessingPc(pc), prev) << name << " pc=" << pc;
    ASSERT_EQ(table.IsFunctionEntry(pc), entries.contains(pc)) << name << " pc=" << pc;
  }
}

TEST(RollbackTableTest, MatchesBruteForceOnEveryAppAndCorpusBug) {
  for (const apps::App& app : apps::AllPerformanceApps()) {
    ExpectMatchesBruteForce(app.workload.program, app.workload.name);
  }
  for (const auto* corpus : {&apps::BugCorpus(), &apps::MultiVarBugCorpus()}) {
    for (const apps::BugInfo& bug : *corpus) {
      const apps::App app = apps::MakeBugApp(bug);
      ExpectMatchesBruteForce(app.workload.program, app.workload.name);
    }
  }
}

TEST(RollbackTableTest, LastInstructionAccessingMemoryEndsAtTextEnd) {
  ProgramBuilder b;
  b.BeginFunction("f");
  b.LoadImm(1, 7);
  b.Store(MemOperand::Absolute(0x10000), 1);
  b.EndFunction();
  const Program p = b.Build();
  const RollbackTable table(p);
  EXPECT_EQ(table.PrevAccessingPc(p.text_end()), p.PcOf(1));
  EXPECT_FALSE(table.PrevAccessingPc(p.PcOf(1) + 1).has_value());  // mid-instruction
  ExpectMatchesBruteForce(p, "store last");
}

TEST(RollbackTableTest, EmptyFunctionsKeepTheirEntries) {
  ProgramBuilder b;
  b.BeginFunction("a");
  b.Load(1, MemOperand::Absolute(0x10000));
  b.Ret();
  b.EndFunction();
  b.BeginFunction("empty");
  b.EndFunction();
  b.BeginFunction("b");
  b.Store(MemOperand::Absolute(0x10008), 1);
  b.Ret();
  b.EndFunction();
  b.BeginFunction("tail");
  b.EndFunction();
  const Program p = b.Build();
  // An empty function starts where the next one does; one at the end of the
  // text starts at text_end.
  EXPECT_EQ(p.FindFunction("empty")->entry, p.FindFunction("b")->entry);
  EXPECT_EQ(p.FindFunction("tail")->entry, p.text_end());
  const RollbackTable table(p);
  EXPECT_TRUE(table.IsFunctionEntry(p.FindFunction("b")->entry));
  EXPECT_TRUE(table.IsFunctionEntry(p.text_end()));
  EXPECT_FALSE(table.IsFunctionEntry(p.PcOf(1)));
  ExpectMatchesBruteForce(p, "empty functions");
}

TEST(DisasmTest, RendersCoreInstructions) {
  EXPECT_EQ(Disassemble({.op = Opcode::kLoadImm, .rd = 3, .imm = 42}), "li r3, 42");
  EXPECT_EQ(Disassemble({.op = Opcode::kLoad, .rd = 2,
                         .mem = MemOperand::Indirect(1, 16), .size = 4}),
            "ld r2, [r1+16] (4B)");
  const std::string begin = Disassemble({.op = Opcode::kABegin,
                                         .mem = MemOperand::Absolute(0x10000),
                                         .size = 8,
                                         .ar_id = 5,
                                         .watch = WatchType::kWrite,
                                         .local_first = AccessType::kRead});
  EXPECT_NE(begin.find("begin_atomic"), std::string::npos);
  EXPECT_NE(begin.find("ar=5"), std::string::npos);
}

TEST(DisasmTest, ProgramListingHasFunctionHeaders) {
  ProgramBuilder b;
  b.BeginFunction("main");
  b.Nop();
  b.Ret();
  b.EndFunction();
  const std::string listing = DisassembleProgram(b.Build());
  EXPECT_NE(listing.find("main:"), std::string::npos);
  EXPECT_NE(listing.find("nop"), std::string::npos);
}

}  // namespace
}  // namespace kivati
