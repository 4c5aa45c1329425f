#include <gtest/gtest.h>

#include <tuple>

#include "mem/address_space.h"
#include "sched/machine.h"
#include "tests/test_util.h"

namespace kivati {
namespace {

using testing::EmitDelay;
using testing::SingleCoreConfig;

constexpr Addr kVarA = kDataBase;
constexpr Addr kVarB = kDataBase + 8;

TEST(MachineTest, ArithmeticAndStores) {
  ProgramBuilder b;
  b.BeginFunction("main");
  b.LoadImm(1, 6);
  b.LoadImm(2, 7);
  b.Alu(Opcode::kMul, 3, 1, 2);
  b.Store(MemOperand::Absolute(kVarA), 3);
  b.AddI(3, 3, -2);
  b.Store(MemOperand::Absolute(kVarB), 3);
  b.Halt();
  b.EndFunction();

  Machine m(b.Build(), SingleCoreConfig());
  m.SpawnThreadByName("main", 0);
  const RunResult result = m.Run();
  EXPECT_TRUE(result.all_done);
  EXPECT_EQ(m.memory().Read(kVarA, 8), 42u);
  EXPECT_EQ(m.memory().Read(kVarB, 8), 40u);
}

TEST(MachineTest, BranchesAndLoops) {
  // Sum 1..10 into kVarA.
  ProgramBuilder b;
  b.BeginFunction("main");
  b.LoadImm(1, 0);   // sum
  b.LoadImm(2, 10);  // i
  const auto loop = b.NewLabel();
  b.Bind(loop);
  b.Alu(Opcode::kAdd, 1, 1, 2);
  b.AddI(2, 2, -1);
  b.Bnz(2, loop);
  b.Store(MemOperand::Absolute(kVarA), 1);
  b.Halt();
  b.EndFunction();

  Machine m(b.Build(), SingleCoreConfig());
  m.SpawnThreadByName("main", 0);
  m.Run();
  EXPECT_EQ(m.memory().Read(kVarA, 8), 55u);
}

TEST(MachineTest, CallAndReturn) {
  ProgramBuilder b;
  b.BeginFunction("main");
  b.LoadImm(0, 20);
  b.Call("double_it");
  b.Store(MemOperand::Absolute(kVarA), 0);
  b.Halt();
  b.EndFunction();
  b.BeginFunction("double_it");
  b.Alu(Opcode::kAdd, 0, 0, 0);
  b.Ret();
  b.EndFunction();

  Machine m(b.Build(), SingleCoreConfig());
  m.SpawnThreadByName("main", 0);
  const RunResult result = m.Run();
  EXPECT_TRUE(result.all_done);
  EXPECT_EQ(m.memory().Read(kVarA, 8), 40u);
}

TEST(MachineTest, PushPopRoundTrip) {
  ProgramBuilder b;
  b.BeginFunction("main");
  b.LoadImm(1, 111);
  b.LoadImm(2, 222);
  b.Push(1);
  b.Push(2);
  b.Pop(3);  // 222
  b.Pop(4);  // 111
  b.Store(MemOperand::Absolute(kVarA), 3);
  b.Store(MemOperand::Absolute(kVarB), 4);
  b.Halt();
  b.EndFunction();

  Machine m(b.Build(), SingleCoreConfig());
  m.SpawnThreadByName("main", 0);
  m.Run();
  EXPECT_EQ(m.memory().Read(kVarA, 8), 222u);
  EXPECT_EQ(m.memory().Read(kVarB, 8), 111u);
}

TEST(MachineTest, MemoryToMemoryMove) {
  ProgramBuilder b;
  b.BeginFunction("main");
  b.LoadImm(1, 77);
  b.Store(MemOperand::Absolute(kVarA), 1);
  b.MovM(MemOperand::Absolute(kVarB), MemOperand::Absolute(kVarA));
  b.Halt();
  b.EndFunction();

  Machine m(b.Build(), SingleCoreConfig());
  m.SpawnThreadByName("main", 0);
  m.Run();
  EXPECT_EQ(m.memory().Read(kVarB, 8), 77u);
}

TEST(MachineTest, XchgIsAtomicExchange) {
  ProgramBuilder b;
  b.BeginFunction("main");
  b.LoadImm(1, 5);
  b.Store(MemOperand::Absolute(kVarA), 1);
  b.LoadImm(2, 9);
  b.Xchg(3, MemOperand::Absolute(kVarA), 2);
  b.Store(MemOperand::Absolute(kVarB), 3);  // old value: 5
  b.Halt();
  b.EndFunction();

  Machine m(b.Build(), SingleCoreConfig());
  m.SpawnThreadByName("main", 0);
  m.Run();
  EXPECT_EQ(m.memory().Read(kVarA, 8), 9u);
  EXPECT_EQ(m.memory().Read(kVarB, 8), 5u);
}

TEST(MachineTest, IndirectCallThroughMemory) {
  ProgramBuilder b;
  b.BeginFunction("main");
  b.LoadFunctionAddress(1, "target");
  b.Store(MemOperand::Absolute(kVarB), 1);
  b.CallInd(MemOperand::Absolute(kVarB));
  b.Halt();
  b.EndFunction();
  b.BeginFunction("target");
  b.LoadImm(2, 123);
  b.Store(MemOperand::Absolute(kVarA), 2);
  b.Ret();
  b.EndFunction();

  Machine m(b.Build(), SingleCoreConfig());
  m.SpawnThreadByName("main", 0);
  const RunResult result = m.Run();
  EXPECT_TRUE(result.all_done);
  EXPECT_EQ(m.memory().Read(kVarA, 8), 123u);
}

TEST(MachineTest, SpawnAndJoin) {
  ProgramBuilder b;
  b.BeginFunction("main");
  b.LoadFunctionAddress(0, "worker");
  b.LoadImm(1, 5);
  b.SyscallOp(Syscall::kSpawn);   // r0 = child tid
  b.Mov(5, 0);
  b.SyscallOp(Syscall::kJoin);    // r0 = tid already
  b.Load(1, MemOperand::Absolute(kVarA));
  b.AddI(1, 1, 1);
  b.Store(MemOperand::Absolute(kVarB), 1);  // child wrote 50 -> kVarB = 51
  b.Halt();
  b.EndFunction();
  b.BeginFunction("worker");
  b.LoadImm(2, 10);
  b.Alu(Opcode::kMul, 3, 0, 2);
  b.Store(MemOperand::Absolute(kVarA), 3);
  b.SyscallOp(Syscall::kExit);
  b.EndFunction();

  Machine m(b.Build(), SingleCoreConfig());
  m.SpawnThreadByName("main", 0);
  const RunResult result = m.Run();
  EXPECT_TRUE(result.all_done);
  EXPECT_EQ(m.memory().Read(kVarB, 8), 51u);
}

TEST(MachineTest, ReturnFromEntryFunctionExitsThread) {
  ProgramBuilder b;
  b.BeginFunction("main");
  b.Ret();  // returns to the exit sentinel
  b.EndFunction();
  Machine m(b.Build(), SingleCoreConfig());
  m.SpawnThreadByName("main", 0);
  const RunResult result = m.Run();
  EXPECT_TRUE(result.all_done);
  EXPECT_FALSE(result.deadlocked);
}

TEST(MachineTest, SleepAdvancesVirtualTime) {
  ProgramBuilder b;
  b.BeginFunction("main");
  b.LoadImm(0, 100000);
  b.SyscallOp(Syscall::kSleep);
  b.Halt();
  b.EndFunction();
  Machine m(b.Build(), SingleCoreConfig());
  m.SpawnThreadByName("main", 0);
  const RunResult result = m.Run();
  EXPECT_TRUE(result.all_done);
  EXPECT_GE(result.cycles, 100000u);
}

TEST(MachineTest, MarkEventsRecorded) {
  ProgramBuilder b;
  b.BeginFunction("main");
  b.LoadImm(0, 7);    // tag
  b.LoadImm(1, 99);   // value
  b.SyscallOp(Syscall::kMark);
  b.Halt();
  b.EndFunction();
  Machine m(b.Build(), SingleCoreConfig());
  m.SpawnThreadByName("main", 0);
  m.Run();
  ASSERT_EQ(m.trace().marks().size(), 1u);
  EXPECT_EQ(m.trace().marks()[0].tag, 7);
  EXPECT_EQ(m.trace().marks()[0].value, 99u);
}

TEST(MachineTest, NowReturnsCurrentTime) {
  ProgramBuilder b;
  b.BeginFunction("main");
  b.SyscallOp(Syscall::kNow);
  b.Mov(5, 0);
  b.LoadImm(0, 5000);
  b.SyscallOp(Syscall::kSleep);
  b.SyscallOp(Syscall::kNow);
  b.Alu(Opcode::kSub, 6, 0, 5);
  b.Store(MemOperand::Absolute(kVarA), 6);
  b.Halt();
  b.EndFunction();
  Machine m(b.Build(), SingleCoreConfig());
  m.SpawnThreadByName("main", 0);
  m.Run();
  EXPECT_GE(m.memory().Read(kVarA, 8), 5000u);
}

TEST(MachineTest, DeadlockDetected) {
  // A thread joining itself can never finish.
  ProgramBuilder b;
  b.BeginFunction("main");
  b.LoadImm(0, 0);  // own tid
  b.SyscallOp(Syscall::kJoin);
  b.Halt();
  b.EndFunction();
  Machine m(b.Build(), SingleCoreConfig());
  m.SpawnThreadByName("main", 0);
  const RunResult result = m.Run(1'000'000);
  EXPECT_TRUE(result.deadlocked);
  EXPECT_FALSE(result.all_done);
}

TEST(MachineTest, CycleLimitHonored) {
  ProgramBuilder b;
  b.BeginFunction("main");
  const auto forever = b.NewLabel();
  b.Bind(forever);
  b.Jmp(forever);
  b.EndFunction();
  Machine m(b.Build(), SingleCoreConfig());
  m.SpawnThreadByName("main", 0);
  const RunResult result = m.Run(50'000);
  EXPECT_TRUE(result.hit_limit);
  EXPECT_GE(result.cycles, 50'000u);
}

TEST(MachineTest, TwoThreadsBothMakeProgressOnOneCore) {
  ProgramBuilder b;
  b.BeginFunction("main");
  b.LoadFunctionAddress(0, "w1");
  b.LoadImm(1, 0);
  b.SyscallOp(Syscall::kSpawn);
  b.LoadFunctionAddress(0, "w2");
  b.SyscallOp(Syscall::kSpawn);
  b.Halt();
  b.EndFunction();
  b.BeginFunction("w1");
  EmitDelay(b, 3000);
  b.LoadImm(2, 1);
  b.Store(MemOperand::Absolute(kVarA), 2);
  b.Halt();
  b.EndFunction();
  b.BeginFunction("w2");
  EmitDelay(b, 3000);
  b.LoadImm(2, 1);
  b.Store(MemOperand::Absolute(kVarB), 2);
  b.Halt();
  b.EndFunction();

  Machine m(b.Build(), SingleCoreConfig(/*quantum=*/500));
  m.SpawnThreadByName("main", 0);
  const RunResult result = m.Run();
  EXPECT_TRUE(result.all_done);
  EXPECT_EQ(m.memory().Read(kVarA, 8), 1u);
  EXPECT_EQ(m.memory().Read(kVarB, 8), 1u);
}

TEST(MachineTest, DualCoreRunsInParallel) {
  // Two CPU-bound threads on two cores should finish in roughly half the
  // virtual time of the single-core run.
  auto build = [] {
    ProgramBuilder b;
    b.BeginFunction("worker");
    EmitDelay(b, 20000);
    b.Halt();
    b.EndFunction();
    return b.Build();
  };

  MachineConfig one = SingleCoreConfig();
  Machine m1(build(), one);
  m1.SpawnThreadByName("worker", 0);
  m1.SpawnThreadByName("worker", 1);
  const Cycles serial = m1.Run().cycles;

  MachineConfig two = testing::DualCoreConfig();
  Machine m2(build(), two);
  m2.SpawnThreadByName("worker", 0);
  m2.SpawnThreadByName("worker", 1);
  const Cycles parallel = m2.Run().cycles;

  EXPECT_LT(parallel, serial * 3 / 4);
}

TEST(MachineTest, DeterministicAcrossRuns) {
  auto run_once = [] {
    ProgramBuilder b;
    b.BeginFunction("main");
    b.LoadFunctionAddress(0, "w");
    b.LoadImm(1, 0);
    b.SyscallOp(Syscall::kSpawn);
    EmitDelay(b, 1000);
    b.Halt();
    b.EndFunction();
    b.BeginFunction("w");
    EmitDelay(b, 1000);
    b.Halt();
    b.EndFunction();
    MachineConfig config = testing::DualCoreConfig(/*seed=*/7);
    config.policy = SchedPolicy::kRandom;
    Machine m(b.Build(), config);
    m.SpawnThreadByName("main", 0);
    return m.Run().cycles;
  };
  EXPECT_EQ(run_once(), run_once());
}

// The block engine (block_translate, the default) must simulate exactly the
// run the per-instruction loop produces: same virtual clock, same
// instruction count, same memory. Random scheduling over spawns, sleeps,
// and every memory-operand opcode stresses the round executor's stop
// points and the scheduler caches (docs/performance.md).
TEST(MachineTest, BlockEngineMatchesPerInstructionLoop) {
  auto run_once = [](bool block_translate, std::uint64_t seed) {
    ProgramBuilder b;
    b.BeginFunction("main");
    b.LoadFunctionAddress(0, "w");
    b.LoadImm(1, 0);
    b.SyscallOp(Syscall::kSpawn);
    b.LoadFunctionAddress(0, "w");
    b.LoadImm(1, 1);
    b.SyscallOp(Syscall::kSpawn);
    b.LoadImm(0, 300);
    b.SyscallOp(Syscall::kSleep);
    EmitDelay(b, 500);
    b.Halt();
    b.EndFunction();
    b.BeginFunction("w");
    b.LoadImm(1, 3);
    b.Store(MemOperand::Absolute(kVarA), 1);
    b.MovM(MemOperand::Absolute(kVarB), MemOperand::Absolute(kVarA));
    b.Xchg(2, MemOperand::Absolute(kVarA), 1);
    b.PushM(MemOperand::Absolute(kVarB));
    b.Pop(3);
    EmitDelay(b, 700);
    b.LoadImm(0, 100);
    b.SyscallOp(Syscall::kSleep);
    b.Halt();
    b.EndFunction();

    MachineConfig config = testing::DualCoreConfig(seed);
    config.policy = SchedPolicy::kRandom;
    config.block_translate = block_translate;
    Machine m(b.Build(), config);
    m.SpawnThreadByName("main", 0);
    const RunResult result = m.Run();
    return std::tuple{result.cycles, result.instructions, result.all_done,
                      m.memory().Read(kVarA, 8), m.memory().Read(kVarB, 8)};
  };
  for (const std::uint64_t seed : {7u, 11u, 23u}) {
    EXPECT_EQ(run_once(true, seed), run_once(false, seed)) << "seed=" << seed;
  }
}

}  // namespace
}  // namespace kivati
