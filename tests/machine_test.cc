#include <gtest/gtest.h>

#include <functional>
#include <tuple>
#include <vector>

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

// --- Watchpoint exits of fused memory accesses ------------------------------
//
// The block engine runs a memory op fused only when MustLeave proves that no
// access of it can touch an armed watchpoint; otherwise the op leaves for
// ExecuteOne, which matches the slots and delivers the trap. Each case arms
// one slot on exactly the address one access of one op touches, with the
// watch type of that access alone, so only that op traps.

// Counts the traps the machine delivers; every other hook does nothing.
class TrapCounter final : public KivatiHooks {
 public:
  using Trap = std::tuple<ThreadId, CoreId, unsigned, Addr, unsigned, AccessType,
                          std::uint64_t, ProgramCounter>;
  void OnBeginAtomic(ThreadId, const Instruction&, Addr) override {}
  void OnEndAtomic(ThreadId, const Instruction&) override {}
  void OnClearAr(ThreadId, std::uint32_t) override {}
  bool OnWatchpointTrap(ThreadId thread, CoreId core, unsigned slot, const MemAccess& access,
                        ProgramCounter trap_pc) override {
    traps.emplace_back(thread, core, slot, access.addr, access.size, access.type,
                       access.old_value, trap_pc);
    return false;
  }
  void OnKernelEntry(CoreId) override {}
  void OnContextSwitch(CoreId, ThreadId, ThreadId) override {}
  void OnSuspensionTimeout(ThreadId) override {}
  void OnThreadExit(ThreadId) override {}

  std::vector<Trap> traps;
};

// The stack slot main's first push (or call) writes: the one below the
// thread-exit return address SpawnThread pushes.
const Addr kPushSlot = AddressSpace::StackTop(0) - 16;

struct FusedAccessCase {
  const char* name;
  // Emits the op under test (and what it needs) into main.
  std::function<void(ProgramBuilder&)> emit;
  Addr watch_addr;
  WatchType watch;
};

void EmitCallF(ProgramBuilder& b) { b.Call("f"); }
void EmitCallIndF(ProgramBuilder& b) {
  b.LoadFunctionAddress(1, "f");
  b.Store(MemOperand::Absolute(kVarA), 1);
  EmitDelay(b, 3);
  b.CallInd(MemOperand::Absolute(kVarA));
}

class FusedAccessTest : public ::testing::TestWithParam<FusedAccessCase> {};

TEST_P(FusedAccessTest, TrapsAsInThePerInstructionLoop) {
  const FusedAccessCase& c = GetParam();
  struct Outcome {
    std::vector<TrapCounter::Trap> traps;
    Cycles cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t fused = 0;
  };
  const auto run = [&c](bool block_translate) {
    ProgramBuilder b;
    b.BeginFunction("main");
    b.LoadImm(1, 5);
    b.LoadImm(2, 9);
    EmitDelay(b, 4);
    c.emit(b);
    EmitDelay(b, 4);
    b.Halt();
    b.EndFunction();
    b.BeginFunction("f");
    b.LoadImm(4, 1);
    b.Ret();
    b.EndFunction();

    MachineConfig config = SingleCoreConfig();
    config.block_translate = block_translate;
    Machine m(b.Build(), config);
    TrapCounter hooks;
    m.set_hooks(&hooks);
    m.core_debug_regs(0).Set(2, c.watch_addr, 8, c.watch);
    m.SpawnThreadByName("main", 0);
    const RunResult result = m.Run();
    EXPECT_TRUE(result.all_done);
    return Outcome{hooks.traps, result.cycles, result.instructions, m.fused_instructions()};
  };
  const Outcome block = run(true);
  const Outcome loop = run(false);
  ASSERT_EQ(loop.traps.size(), 1u) << "the case must arm exactly one trap";
  EXPECT_EQ(std::get<2>(loop.traps[0]), 2u);
  EXPECT_EQ(std::get<3>(loop.traps[0]), c.watch_addr);
  EXPECT_EQ(block.traps, loop.traps);
  EXPECT_EQ(block.cycles, loop.cycles);
  EXPECT_EQ(block.instructions, loop.instructions);
  EXPECT_GT(block.fused, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    EveryAccess, FusedAccessTest,
    ::testing::Values(
        FusedAccessCase{"Load",
                        [](ProgramBuilder& b) { b.Load(3, MemOperand::Absolute(kVarA)); },
                        kVarA, WatchType::kRead},
        FusedAccessCase{"Store",
                        [](ProgramBuilder& b) { b.Store(MemOperand::Absolute(kVarA), 1); },
                        kVarA, WatchType::kWrite},
        FusedAccessCase{"MovMSource",
                        [](ProgramBuilder& b) {
                          b.MovM(MemOperand::Absolute(kVarB), MemOperand::Absolute(kVarA));
                        },
                        kVarA, WatchType::kRead},
        FusedAccessCase{"MovMDestination",
                        [](ProgramBuilder& b) {
                          b.MovM(MemOperand::Absolute(kVarB), MemOperand::Absolute(kVarA));
                        },
                        kVarB, WatchType::kWrite},
        FusedAccessCase{"Xchg",
                        [](ProgramBuilder& b) { b.Xchg(3, MemOperand::Absolute(kVarA), 1); },
                        kVarA, WatchType::kReadWrite},
        FusedAccessCase{"Push", [](ProgramBuilder& b) { b.Push(1); }, kPushSlot,
                        WatchType::kWrite},
        FusedAccessCase{"PushMSource",
                        [](ProgramBuilder& b) { b.PushM(MemOperand::Absolute(kVarA)); }, kVarA,
                        WatchType::kRead},
        FusedAccessCase{"PushMSlot",
                        [](ProgramBuilder& b) { b.PushM(MemOperand::Absolute(kVarA)); },
                        kPushSlot, WatchType::kWrite},
        FusedAccessCase{"Pop",
                        [](ProgramBuilder& b) {
                          b.Push(1);  // a write: the read watch ignores it
                          EmitDelay(b, 3);
                          b.Pop(3);
                        },
                        kPushSlot, WatchType::kRead},
        FusedAccessCase{"CallSlot", EmitCallF, kPushSlot, WatchType::kWrite},
        FusedAccessCase{"CallIndTarget", EmitCallIndF, kVarA, WatchType::kRead},
        FusedAccessCase{"CallIndSlot", EmitCallIndF, kPushSlot, WatchType::kWrite},
        // The call's push is a write, which the read watch ignores.
        FusedAccessCase{"Ret", EmitCallF, kPushSlot, WatchType::kRead}),
    [](const ::testing::TestParamInfo<FusedAccessCase>& info) { return info.param.name; });

}  // namespace
}  // namespace kivati
