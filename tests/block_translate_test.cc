// Basic-block translation engine (exec/block_translate.h, docs/performance.md).
//
// Three layers of guardrails:
//   1. Structural unit tests of the translation over every registered app
//      and corpus bug: the PC lookup agrees with the program's PC table,
//      static targets resolve to the op at their PC, barriers are exactly
//      the kernel-entering opcodes plus a last instruction that falls
//      through, and the on-demand block count keeps its values.
//   2. Byte-identity: every corpus bug — the 11 single-variable and the 4
//      multi-variable ones — simulates identically under the block engine
//      and the per-instruction loop, its oracle, in both usage modes: full
//      RunRecord JSON (modulo wall clock) plus the recorded ScheduleTrace.
//   3. End-to-end schedule tooling through the block engine: a guided-fuzz
//      rediscovery produces a report byte-identical to the per-instruction
//      loop's, and `kivati annotate`-visible line attribution stays exact
//      when the attributed program is executed under fusion (the PR 8
//      case).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/bugs.h"
#include "apps/common.h"
#include "apps/workloads.h"
#include "compile/compiler.h"
#include "exec/block_translate.h"
#include "exp/fuzz.h"
#include "exp/run_record.h"
#include "exp/run_spec.h"
#include "exp/runner.h"
#include "isa/program.h"
#include "sched/machine.h"

namespace kivati {
namespace {

using exec::BlockTranslation;
using exec::FusedKind;
using exec::TransOp;

constexpr std::uint32_t kNoOp = BlockTranslation::kNoOp;

// The opcodes the translation leaves to the generic loop: kernel entries,
// the three annotations, thread termination and the multi-word copy.
bool IsBarrierOpcode(Opcode opcode) {
  return opcode == Opcode::kSyscall || opcode == Opcode::kHalt ||
         opcode == Opcode::kRepMovs || opcode == Opcode::kABegin ||
         opcode == Opcode::kAEnd || opcode == Opcode::kAClear;
}

bool HasStaticTarget(FusedKind kind) {
  return kind == FusedKind::kJmp || kind == FusedKind::kBnz || kind == FusedKind::kBz ||
         kind == FusedKind::kCall;
}

// The five registered apps at default scale and the 15 corpus bugs.
const std::vector<apps::App>& AllAppsAndBugs() {
  static const std::vector<apps::App> all = [] {
    std::vector<apps::App> apps = apps::AllPerformanceApps();
    for (const auto* corpus : {&apps::BugCorpus(), &apps::MultiVarBugCorpus()}) {
      for (const apps::BugInfo& bug : *corpus) {
        apps.push_back(apps::MakeBugApp(bug));
      }
    }
    return apps;
  }();
  return all;
}

// The translation keeps no PC table of its own: its lookup must agree with
// the program's at every PC, mid-instruction bytes, the bytes past the text
// and the thread-exit return address included.
TEST(BlockTranslationTest, OpIndexOfPcMatchesTheProgramsPcTable) {
  for (const apps::App& app : AllAppsAndBugs()) {
    const Program& p = app.workload.program;
    const BlockTranslation trans(p);
    ASSERT_EQ(trans.num_ops(), p.size()) << app.workload.name;
    for (ProgramCounter pc = 0; pc < p.text_end() + 16; ++pc) {
      const std::optional<std::size_t> index = p.IndexOfPc(pc);
      ASSERT_EQ(trans.OpIndexOfPc(pc), index.has_value() ? *index : kNoOp)
          << app.workload.name << " pc=" << pc;
    }
    EXPECT_EQ(trans.OpIndexOfPc(kThreadExitPc), kNoOp) << app.workload.name;
  }
}

// The rounds chain a static branch or call through target_op without a
// lookup, so it must name the op at the target PC; no other op has one.
TEST(BlockTranslationTest, StaticTargetsResolveToTheOpAtTheirPc) {
  for (const apps::App& app : AllAppsAndBugs()) {
    const Program& p = app.workload.program;
    const BlockTranslation trans(p);
    std::size_t branches = 0;
    for (std::uint32_t i = 0; i < trans.num_ops(); ++i) {
      const TransOp& op = trans.op(i);
      if (!HasStaticTarget(op.kind)) {
        EXPECT_EQ(op.target_op, kNoOp) << app.workload.name << " op " << i;
        continue;
      }
      ++branches;
      ASSERT_EQ(op.a, p.At(i).target) << app.workload.name << " op " << i;
      const std::optional<std::size_t> target = p.IndexOfPc(static_cast<ProgramCounter>(op.a));
      ASSERT_TRUE(target.has_value()) << app.workload.name << " op " << i;
      EXPECT_EQ(op.target_op, *target) << app.workload.name << " op " << i;
    }
    EXPECT_GT(branches, 0u) << app.workload.name;
  }
}

// Kernel-entering instructions translate to barriers, and only they do
// (codegen ends every function with ret, so no compiled text ends in a
// fall-through). Every op's 32-bit next_pc is its instruction's end.
TEST(BlockTranslationTest, BarriersAreTheKernelEnteringOpcodes) {
  for (const apps::App& app : AllAppsAndBugs()) {
    const Program& p = app.workload.program;
    const BlockTranslation trans(p);
    for (std::uint32_t i = 0; i < trans.num_ops(); ++i) {
      const TransOp& op = trans.op(i);
      EXPECT_EQ(op.kind == FusedKind::kBarrier, IsBarrierOpcode(p.At(i).op))
          << app.workload.name << " op " << i;
      EXPECT_EQ(op.next_pc, p.PcOf(i) + p.LengthAt(i)) << app.workload.name << " op " << i;
    }
  }
}

// num_blocks() counts block leaders on demand. These are the counts of the
// block table the translation used to build and store; perfbench reports
// their sum as exec.blocks.
TEST(BlockTranslationTest, NumBlocksKeepsItsCounts) {
  const std::map<std::string, std::size_t> expected = {
      {"NSS", 111},          {"VLC", 173},           {"Webstone", 94},
      {"TPC-W", 117},        {"SPEC OMP", 101},      {"Apache 44402", 80},
      {"Apache 21287", 73},  {"Apache 25520", 74},   {"NSS 341323", 80},
      {"NSS 329072", 78},    {"NSS 225525", 78},     {"NSS 270689", 74},
      {"NSS 169296", 80},    {"NSS 201134", 73},     {"MySQL 19938", 80},
      {"MySQL 25306", 73},   {"Apache 45605", 76},   {"Mozilla 73291", 78},
      {"MySQL 38883", 75},   {"NSS 88331", 75},
  };
  ASSERT_EQ(AllAppsAndBugs().size(), expected.size());
  for (const apps::App& app : AllAppsAndBugs()) {
    const auto it = expected.find(app.workload.name);
    ASSERT_NE(it, expected.end()) << app.workload.name;
    EXPECT_EQ(BlockTranslation(app.workload.program).num_blocks(), it->second)
        << app.workload.name;
  }
}

// `main: loadimm r1,6; addi r1,r1,1` with no halt or ret: the last
// instruction falls through past the end of the text. Only hand-built
// programs end this way (codegen ends every function with ret).
Program FallThroughProgram() {
  ProgramBuilder b;
  b.BeginFunction("main");
  b.LoadImm(1, 6);
  b.AddI(1, 1, 1);
  b.EndFunction();
  return b.Build();
}

// A last instruction that may fall through is a barrier, a conditional
// branch included (it chains to nothing); one that always transfers is not.
TEST(BlockTranslationTest, FallThroughLastInstructionIsABarrier) {
  const Program program = FallThroughProgram();
  const BlockTranslation trans(program);
  ASSERT_EQ(trans.num_ops(), program.size());
  EXPECT_EQ(trans.op(0).kind, FusedKind::kLoadImm);
  EXPECT_EQ(trans.op(1).kind, FusedKind::kBarrier);
  EXPECT_EQ(trans.num_blocks(), 2u);  // the barrier stands alone

  for (const bool conditional : {true, false}) {
    ProgramBuilder b;
    b.BeginFunction("main");
    const ProgramBuilder::Label top = b.NewLabel();
    b.Bind(top);
    b.LoadImm(1, 0);
    if (conditional) {
      b.Bnz(1, top);
    } else {
      b.Jmp(top);
    }
    b.EndFunction();
    const Program loop = b.Build();
    const BlockTranslation t(loop);
    EXPECT_EQ(t.op(1).kind, conditional ? FusedKind::kBarrier : FusedKind::kJmp);
    EXPECT_EQ(t.op(1).target_op, conditional ? kNoOp : 0u);
  }
}

// Both engines run the fall-through program off the end of the text into
// the invalid-PC exit; without the barrier the rounds would step past the
// op array.
TEST(BlockEngineFallThroughTest, BothEnginesExitAtTheInvalidPc) {
  for (const unsigned cores : {1u, 2u}) {
    // Indexed by block_translate: [0] the per-instruction loop, [1] blocks.
    RunResult results[2];
    std::uint64_t status[2] = {0, 0};
    for (const bool block_translate : {true, false}) {
      MachineConfig config;
      config.num_cores = cores;
      config.block_translate = block_translate;
      Machine machine(FallThroughProgram(), config);
      const ThreadId tid = machine.SpawnThreadByName("main", 0);
      results[block_translate] = machine.Run(1'000'000);
      status[block_translate] = machine.thread(tid).exit_status;
    }
    const std::string where = "c" + std::to_string(cores);
    EXPECT_TRUE(results[1].all_done) << where;
    EXPECT_EQ(results[1].all_done, results[0].all_done) << where;
    EXPECT_EQ(results[1].deadlocked, results[0].deadlocked) << where;
    EXPECT_EQ(results[1].hit_limit, results[0].hit_limit) << where;
    EXPECT_EQ(results[1].cycles, results[0].cycles) << where;
    EXPECT_EQ(results[1].instructions, results[0].instructions) << where;
    EXPECT_EQ(status[1], ~std::uint64_t{0}) << where;
    EXPECT_EQ(status[1], status[0]) << where;
  }
}

// --- Byte-identity across the engine stack ---------------------------------

void ExpectEngineIdentity(exp::RunSpec spec) {
  spec.record_schedule = true;

  spec.machine.block_translate = true;
  const exp::RunRecord block = exp::Execute(spec);
  spec.machine.block_translate = false;
  const exp::RunRecord fast = exp::Execute(spec);

  ASSERT_TRUE(block.error.empty()) << block.label << ": " << block.error;
  ASSERT_TRUE(fast.error.empty()) << fast.label << ": " << fast.error;
  EXPECT_EQ(exp::ToJson(block, /*include_wall_clock=*/false),
            exp::ToJson(fast, /*include_wall_clock=*/false))
      << block.label;
  ASSERT_NE(block.schedule, nullptr);
  ASSERT_NE(fast.schedule, nullptr);
  EXPECT_EQ(block.schedule->decisions, fast.schedule->decisions) << block.label;
  EXPECT_EQ(block.schedule->checkpoints, fast.schedule->checkpoints) << block.label;
}

// The block engine against the per-instruction loop ("fast" in
// bench-interp), which is the reference every engine change is held to.
class CorpusIdentityTest : public ::testing::TestWithParam<std::string> {};

TEST_P(CorpusIdentityTest, BlockMatchesFastAndReference) {
  exp::RunSpec spec;
  spec.bug = GetParam();
  spec.mode = KivatiMode::kBugFinding;
  spec.pause_ms = 50.0;
  spec.machine.seed = 17;
  // Reduced budget: the default 300M-cycle budget is for bug-manifestation
  // sweeps; divergence shows within a few million cycles.
  spec.budget = 10'000'000;
  ExpectEngineIdentity(spec);
}

// Prevention mode, where trapped accesses are undone and remote threads
// suspended, at the default seed.
TEST_P(CorpusIdentityTest, PreventionBlockMatchesPerInstruction) {
  exp::RunSpec spec;
  spec.bug = GetParam();
  spec.mode = KivatiMode::kPrevention;
  spec.budget = 10'000'000;
  ExpectEngineIdentity(spec);
}

std::vector<std::string> AllCorpusBugNames() {
  std::vector<std::string> names = exp::CorpusBugNames();
  for (const std::string& name : exp::MultiVarBugNames()) {
    names.push_back(name);
  }
  return names;
}

INSTANTIATE_TEST_SUITE_P(AllBugs, CorpusIdentityTest,
                         ::testing::ValuesIn(AllCorpusBugNames()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

// A guided-fuzz campaign — strategy generation, coverage dedup, shrinking,
// replay verification — rediscovers a corpus bug through the block engine
// and produces a report byte-identical to the per-instruction loop's.
TEST(BlockEngineFuzzTest, RediscoveryReportIsEngineInvariant) {
  auto fuzz_with = [](bool block_translate) {
    exp::RunSpec spec;
    spec.bug = "NSS-329072";
    spec.mode = KivatiMode::kBugFinding;
    spec.pause_ms = 50.0;
    spec.machine.seed = 17;
    spec.machine.block_translate = block_translate;
    spec.budget = 10'000'000;
    exp::FuzzOptions options;
    options.max_schedules = 8;
    options.plateau = 8;
    options.seed = 7;
    options.shrink_max_runs = 12;
    return exp::Fuzz(spec, options);
  };

  const exp::FuzzReport block = fuzz_with(true);
  const exp::FuzzReport fast = fuzz_with(false);
  EXPECT_TRUE(block.errors.empty());
  ASSERT_FALSE(block.discoveries.empty()) << "block engine failed to rediscover";
  EXPECT_EQ(exp::FuzzReportJson(block, /*include_wall_clock=*/false),
            exp::FuzzReportJson(fast, /*include_wall_clock=*/false));
}

// --- Line attribution under fusion (PR 8 regression) -----------------------

// The PR 8 line-attribution case (analysis_test's MergedRegionCitesFirstAccessLine
// source, plus a driver loop) executed with block translation on: the AR
// debug info the runtime reports against must keep citing first-access
// lines, and the violation stream must be identical to the per-instruction
// loop's.
TEST(BlockEngineLineAttributionTest, Pr8CaseStaysExactUnderFusion) {
  const std::string source =
      "int g;\n"                  // 1
      "int h;\n"                  // 2
      "void branchy(int x) {\n"   // 3
      "  int t = g;\n"            // 4: first access of the merged AR
      "  if (x == 1) {\n"         // 5
      "    g = t + 1;\n"          // 6: end 1
      "  }\n"                     // 7
      "  g = t + 2;\n"            // 8: end 2
      "}\n"                       // 9
      "void writer(int x) {\n"    // 10
      "  int t = g;\n"            // 11: first access of the host AR
      "  h = x;\n"                // 12: first access of the synthesized AR
      "  g = t + x;\n"            // 13
      "}\n"                       // 14
      "void writer2(int x) {\n"   // 15
      "  int t = g;\n"            // 16
      "  h = x;\n"                // 17
      "  g = t + x;\n"            // 18
      "}\n"                       // 19
      "void driver(int n) {\n"    // 20
      "  for (int i = 0; i < 400; i = i + 1) {\n"
      "    writer(i);\n"
      "    writer2(i);\n"
      "    branchy(i);\n"
      "  }\n"
      "}\n";
  const auto app = std::make_shared<const apps::App>(
      apps::AssembleApp("pr8_lines", source, "driver", 2, {}, 50'000'000));

  // The compiled program the runtime attributes against pins the PR 8
  // invariant: every AR cites its first access, including the fusion host
  // (line 11/16) and the synthesized partner (line 12/17).
  const auto line_of = [&](const std::string& fn, const std::string& var) {
    for (const ArDebugInfo& info : app->compiled->ar_infos) {
      if (info.function == fn && info.variable == var) {
        return info.line;
      }
    }
    return -1;
  };
  EXPECT_EQ(line_of("branchy", "g"), 4);
  EXPECT_EQ(line_of("writer", "g"), 11);
  EXPECT_EQ(line_of("writer", "h"), 12);
  EXPECT_EQ(line_of("writer2", "g"), 16);
  EXPECT_EQ(line_of("writer2", "h"), 17);

  auto run_with = [&](bool block_translate) {
    exp::RunSpec spec;
    spec.prebuilt = app;
    spec.mode = KivatiMode::kBugFinding;
    spec.pause_ms = 50.0;
    spec.machine.seed = 17;
    spec.budget = 20'000'000;
    spec.machine.block_translate = block_translate;
    return exp::Execute(spec);
  };
  const exp::RunRecord block = run_with(true);
  const exp::RunRecord fast = run_with(false);
  ASSERT_TRUE(block.error.empty()) << block.error;

  // The racy drivers do violate, and every violation record — which carries
  // the first/second/remote PCs reports attribute to source lines — is
  // identical under fusion.
  EXPECT_FALSE(block.violation_records.empty());
  ASSERT_EQ(block.violation_records.size(), fast.violation_records.size());
  for (std::size_t i = 0; i < block.violation_records.size(); ++i) {
    EXPECT_EQ(ToString(block.violation_records[i]),
              ToString(fast.violation_records[i]))
        << "violation " << i;
    // Each violating AR resolves to debug info citing a first-access line.
    const ArId ar = block.violation_records[i].ar_id;
    ASSERT_GE(ar, 1u);
    ASSERT_LE(ar, app->compiled->ar_infos.size());
    const ArDebugInfo& info = app->compiled->ar_infos[ar - 1];
    EXPECT_TRUE(info.line == 4 || info.line == 11 || info.line == 12 ||
                info.line == 16 || info.line == 17)
        << "AR " << ar << " cites line " << info.line;
  }
  EXPECT_EQ(exp::ToJson(block, /*include_wall_clock=*/false),
            exp::ToJson(fast, /*include_wall_clock=*/false));
}

}  // namespace
}  // namespace kivati
