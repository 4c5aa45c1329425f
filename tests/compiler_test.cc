// Tests of the full pipeline: mini-C source -> annotated binary -> simulated
// execution, with and without Kivati protection.
#include <gtest/gtest.h>

#include "compile/compiler.h"
#include "isa/disasm.h"
#include "kernel/config.h"
#include "runtime/kivati_runtime.h"
#include "sched/machine.h"
#include "tests/test_util.h"

namespace kivati {
namespace {

using testing::SingleCoreConfig;

std::uint64_t ReadGlobal(Machine& m, const CompiledProgram& cp, const std::string& name) {
  return m.memory().Read(cp.GlobalAddr(name), 8);
}

// A machine running `cp`'s program, its globals initialized.
class CompiledMachine : public Machine {
 public:
  explicit CompiledMachine(const CompiledProgram& cp, MachineConfig config = SingleCoreConfig())
      : Machine(cp.program, config) {
    cp.InitMemory(memory());
  }
};

TEST(CompilerTest, ArithmeticAndControlFlow) {
  const CompiledProgram cp = CompileSource(R"(
    int result;
    int fib(int n) {
      if (n <= 1) { return n; }
      return fib(n - 1) + fib(n - 2);
    }
    void main() {
      result = fib(10);
    }
  )");
  CompiledMachine m(cp);
  m.SpawnThreadByName("main", 0);
  ASSERT_TRUE(m.Run(50'000'000).all_done);
  EXPECT_EQ(ReadGlobal(m, cp, "result"), 55u);
}

TEST(CompilerTest, GlobalInitializersApplied) {
  const CompiledProgram cp = CompileSource(R"(
    int a = 17;
    int b;
    void main() { b = a + 5; }
  )");
  CompiledMachine m(cp);
  m.SpawnThreadByName("main", 0);
  ASSERT_TRUE(m.Run().all_done);
  EXPECT_EQ(ReadGlobal(m, cp, "b"), 22u);
}

TEST(CompilerTest, ArraysAndLoops) {
  const CompiledProgram cp = CompileSource(R"(
    int table[8];
    int sum;
    void main() {
      for (int i = 0; i < 8; i = i + 1) {
        table[i] = i * i;
      }
      sum = 0;
      for (int i = 0; i < 8; i = i + 1) {
        sum = sum + table[i];
      }
    }
  )");
  CompiledMachine m(cp);
  m.SpawnThreadByName("main", 0);
  ASSERT_TRUE(m.Run().all_done);
  EXPECT_EQ(ReadGlobal(m, cp, "sum"), 140u);  // 0+1+4+...+49
}

TEST(CompilerTest, PointersAndAddressOf) {
  const CompiledProgram cp = CompileSource(R"(
    int g;
    int out;
    void bump(int *p) { *p = *p + 10; }
    void main() {
      int x;
      x = 5;
      bump(&x);
      g = 1;
      bump(&g);
      out = x;
    }
  )");
  CompiledMachine m(cp);
  m.SpawnThreadByName("main", 0);
  ASSERT_TRUE(m.Run().all_done);
  EXPECT_EQ(ReadGlobal(m, cp, "out"), 15u);
  EXPECT_EQ(ReadGlobal(m, cp, "g"), 11u);
}

TEST(CompilerTest, SpawnRunsConcurrently) {
  const CompiledProgram cp = CompileSource(R"(
    int done[4];
    int total;
    void worker(int id) {
      done[id] = id + 1;
    }
    void main() {
      for (int i = 0; i < 4; i = i + 1) {
        spawn worker(i);
      }
      int all;
      all = 0;
      while (all == 0) {
        all = 1;
        for (int i = 0; i < 4; i = i + 1) {
          if (done[i] == 0) { all = 0; }
        }
        yield();
      }
      total = done[0] + done[1] + done[2] + done[3];
    }
  )");
  CompiledMachine m(cp);
  m.SpawnThreadByName("main", 0);
  ASSERT_TRUE(m.Run(100'000'000).all_done);
  EXPECT_EQ(ReadGlobal(m, cp, "total"), 10u);
}

TEST(CompilerTest, LocksProvideMutualExclusion) {
  const CompiledProgram cp = CompileSource(R"(
    sync int mutex;
    int counter;
    int finished;
    void worker(int id) {
      for (int i = 0; i < 50; i = i + 1) {
        lock(mutex);
        counter = counter + 1;
        unlock(mutex);
      }
      lock(mutex);
      finished = finished + 1;
      unlock(mutex);
    }
    void main() {
      spawn worker(0);
      spawn worker(1);
    }
  )");
  // Vanilla machine (no Kivati): the locks alone must serialize.
  MachineConfig config = testing::DualCoreConfig(/*seed=*/3);
  config.policy = SchedPolicy::kRandom;
  config.quantum = 137;  // aggressive preemption
  CompiledMachine m(cp, config);
  m.SpawnThreadByName("main", 0);
  ASSERT_TRUE(m.Run(200'000'000).all_done);
  EXPECT_EQ(ReadGlobal(m, cp, "counter"), 100u);
}

TEST(CompilerTest, AnnotationsPresentOnlyWhenRequested) {
  const std::string source = R"(
    int g;
    void main() { g = g + 1; }
  )";
  CompileOptions annotated;
  CompileOptions vanilla;
  vanilla.annotate = false;
  const CompiledProgram with = CompileSource(source, annotated);
  const CompiledProgram without = CompileSource(source, vanilla);

  auto count_op = [](const Program& p, Opcode op) {
    std::size_t n = 0;
    for (std::size_t i = 0; i < p.size(); ++i) {
      n += p.At(i).op == op;
    }
    return n;
  };
  EXPECT_GE(count_op(with.program, Opcode::kABegin), 1u);
  EXPECT_GE(count_op(with.program, Opcode::kAEnd), 1u);
  EXPECT_GE(count_op(with.program, Opcode::kAClear), 1u);
  EXPECT_EQ(count_op(without.program, Opcode::kABegin), 0u);
  EXPECT_EQ(count_op(without.program, Opcode::kAEnd), 0u);
  EXPECT_EQ(count_op(without.program, Opcode::kAClear), 0u);
}

TEST(CompilerTest, AnnotatedAndVanillaComputeSameResult) {
  const std::string source = R"(
    int acc;
    int table[16];
    void main() {
      for (int i = 0; i < 16; i = i + 1) {
        table[i] = i;
        acc = acc + table[i];
      }
    }
  )";
  CompileOptions vanilla;
  vanilla.annotate = false;
  const CompiledProgram with = CompileSource(source);
  const CompiledProgram without = CompileSource(source, vanilla);

  CompiledMachine m1(with);
  m1.SpawnThreadByName("main", 0);
  ASSERT_TRUE(m1.Run().all_done);
  CompiledMachine m2(without);
  m2.SpawnThreadByName("main", 0);
  ASSERT_TRUE(m2.Run().all_done);
  EXPECT_EQ(ReadGlobal(m1, with, "acc"), ReadGlobal(m2, without, "acc"));
  EXPECT_EQ(ReadGlobal(m1, with, "acc"), 120u);
}

TEST(CompilerTest, ReplicaStoresEmittedForWriteFirstArs) {
  const CompiledProgram cp = CompileSource(R"(
    int g;
    int sink;
    void main() {
      g = 1;        // first access: write -> AR needs a shared-page replica
      sink = g;     // second access: read
    }
  )");
  bool replica = false;
  for (std::size_t i = 0; i < cp.program.size(); ++i) {
    const Instruction& instr = cp.program.At(i);
    if (instr.op == Opcode::kStore && instr.mem.base == kNoReg &&
        static_cast<Addr>(instr.mem.offset) >= kSharedPageBase &&
        static_cast<Addr>(instr.mem.offset) < kSharedPageBase + kSharedPageSize) {
      replica = true;
    }
  }
  EXPECT_TRUE(replica);
}

TEST(CompilerTest, SyncArsExported) {
  const CompiledProgram cp = CompileSource(R"(
    sync int mutex;
    int data;
    void main() {
      lock(mutex);
      data = data + 1;
      unlock(mutex);
    }
  )");
  EXPECT_FALSE(cp.sync_ars.empty());
  for (const ArId ar : cp.sync_ars) {
    EXPECT_EQ(cp.ar_infos[ar - 1].variable, "mutex");
  }
}

// --- Full-system integration: source-level atomicity violation ---------------

constexpr const char* kLostUpdateSource = R"(
  int shared_counter;
  void local_fn(int unused) {
    int t;
    t = shared_counter;
    for (int i = 0; i < 800; i = i + 1) { }
    shared_counter = t + 1;
  }
  void remote_fn(int unused) {
    for (int i = 0; i < 60; i = i + 1) { }
    shared_counter = 99;
  }
)";

TEST(IntegrationTest, SourceLevelViolationDetectedAndPrevented) {
  const CompiledProgram cp = CompileSource(kLostUpdateSource);
  CompiledMachine m(cp, SingleCoreConfig(/*quantum=*/2500));
  KivatiConfig config;
  KivatiRuntime runtime(m, config);
  m.SpawnThreadByName("local_fn", 0);
  m.SpawnThreadByName("remote_fn", 0);
  ASSERT_TRUE(m.Run(50'000'000).all_done);

  ASSERT_GE(m.trace().violations().size(), 1u);
  const ViolationRecord& v = m.trace().violations()[0];
  EXPECT_TRUE(v.prevented);
  EXPECT_EQ(v.addr, cp.GlobalAddr("shared_counter"));
  EXPECT_EQ(v.remote, AccessType::kWrite);
  // The annotator's debug info names the variable.
  ASSERT_NE(cp.ar_infos.size(), 0u);
  EXPECT_EQ(cp.ar_infos[v.ar_id - 1].variable, "shared_counter");
  // Remote write reordered after the AR.
  EXPECT_EQ(ReadGlobal(m, cp, "shared_counter"), 99u);
}

TEST(IntegrationTest, BothThreadsAnnotatedSerializesViaBeginSuspension) {
  const CompiledProgram cp = CompileSource(R"(
    int counter;
    void worker(int id) {
      int t;
      t = counter;
      for (int i = 0; i < 800; i = i + 1) { }
      counter = t + 1;
    }
  )");
  // Without Kivati this interleaving loses an update.
  {
    CompiledMachine m(cp, SingleCoreConfig(/*quantum=*/2500));
    m.SpawnThreadByName("worker", 0);
    m.SpawnThreadByName("worker", 1);
    ASSERT_TRUE(m.Run(50'000'000).all_done);
    EXPECT_EQ(ReadGlobal(m, cp, "counter"), 1u) << "expected the buggy interleaving";
  }
  // With Kivati the second thread parks at its begin_atomic and the update
  // survives.
  {
    CompiledMachine m(cp, SingleCoreConfig(/*quantum=*/2500));
    KivatiConfig config;
    KivatiRuntime runtime(m, config);
    m.SpawnThreadByName("worker", 0);
    m.SpawnThreadByName("worker", 1);
    ASSERT_TRUE(m.Run(50'000'000).all_done);
    EXPECT_EQ(ReadGlobal(m, cp, "counter"), 2u);
    EXPECT_GE(m.trace().stats().remote_suspensions, 1u);
  }
}

TEST(IntegrationTest, WhitelistedSyncVarsReduceKernelEntries) {
  // Keep the sync-var ARs annotated: the runtime whitelist under test is
  // only observable when the conflict analysis hasn't already pruned them.
  CompileOptions no_prune;
  no_prune.frontend.prune = false;
  const CompiledProgram cp = CompileSource(R"(
    sync int mutex;
    int data;
    void worker(int id) {
      for (int i = 0; i < 20; i = i + 1) {
        lock(mutex);
        data = data + 1;
        unlock(mutex);
      }
    }
  )",
                                            no_prune);
  auto run = [&](bool whitelist_sync) {
    CompiledMachine m(cp, SingleCoreConfig());
    KivatiConfig config;
    if (whitelist_sync) {
      config.whitelist = cp.sync_ars;
    }
    KivatiRuntime runtime(m, config);
    m.SpawnThreadByName("worker", 0);
    m.SpawnThreadByName("worker", 1);
    EXPECT_TRUE(m.Run(100'000'000).all_done);
    return m.trace().stats().kernel_entries_total();
  };
  const std::uint64_t base = run(false);
  const std::uint64_t syncvars = run(true);
  EXPECT_LT(syncvars, base);
}

}  // namespace
}  // namespace kivati
