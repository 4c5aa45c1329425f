// Basic-block translation engine (exec/block_translate.h, docs/performance.md).
//
// Three layers of guardrails:
//   1. Structural unit tests of the translation: leader analysis (branch
//      targets and barrier instructions open blocks), barrier singletons,
//      static-target resolution, PC mapping, and the barrier that ends a
//      text whose last instruction falls through.
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

#include <memory>
#include <string>
#include <vector>

#include "apps/common.h"
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
using exec::TransBlock;
using exec::TransOp;

constexpr std::uint32_t kNoOp = BlockTranslation::kNoOp;

bool IsBarrierOpcode(Opcode opcode) {
  return opcode == Opcode::kSyscall || opcode == Opcode::kHalt ||
         opcode == Opcode::kRepMovs || opcode == Opcode::kABegin ||
         opcode == Opcode::kAEnd || opcode == Opcode::kAClear;
}

bool EndsBlock(FusedKind kind) {
  return kind == FusedKind::kBarrier || kind == FusedKind::kJmp ||
         kind == FusedKind::kBnz || kind == FusedKind::kBz ||
         kind == FusedKind::kCall || kind == FusedKind::kCallInd ||
         kind == FusedKind::kRet;
}

// A loop over a global plus a helper call: exercises branch leaders,
// call targets and annotation barriers in one small module.
CompiledProgram LoopProgram() {
  return CompileSource(
      "int g;\n"
      "int h;\n"
      "void tick() {\n"
      "  h = h + 1;\n"
      "}\n"
      "void bump(int n) {\n"
      "  for (int i = 0; i < n; i = i + 1) {\n"
      "    g = g + 1;\n"
      "  }\n"
      "  tick();\n"
      "}\n");
}

TEST(BlockTranslationTest, BlocksPartitionOpsAndBarriersAreSingletons) {
  const CompiledProgram cp = LoopProgram();
  const BlockTranslation trans(cp.program);
  ASSERT_EQ(trans.num_ops(), cp.program.size());
  ASSERT_GT(trans.num_blocks(), 1u);

  // Blocks tile [0, num_ops) in order, and every op's block back-pointer
  // names the block that contains it.
  std::uint32_t expected_first = 0;
  for (std::uint32_t id = 0; id < trans.num_blocks(); ++id) {
    const TransBlock& b = trans.block(id);
    EXPECT_EQ(b.first_op, expected_first);
    ASSERT_GT(b.end_op, b.first_op);
    for (std::uint32_t i = b.first_op; i < b.end_op; ++i) {
      EXPECT_EQ(trans.op(i).block, id);
    }
    expected_first = b.end_op;
  }
  EXPECT_EQ(expected_first, trans.num_ops());

  for (std::uint32_t i = 0; i < trans.num_ops(); ++i) {
    const TransOp& op = trans.op(i);
    // Kernel-entering instructions translate to barriers — and only they do.
    EXPECT_EQ(op.kind == FusedKind::kBarrier, IsBarrierOpcode(cp.program.At(i).op))
        << "op " << i;
    // Barriers are singleton blocks: the engine must bail before them, so
    // no fused block may flow through one.
    if (op.kind == FusedKind::kBarrier) {
      const TransBlock& b = trans.block(op.block);
      EXPECT_EQ(b.end_op - b.first_op, 1u) << "op " << i;
    }
    // Control flow only at block ends.
    if (EndsBlock(op.kind)) {
      EXPECT_EQ(i, trans.block(op.block).end_op - 1) << "op " << i;
    }
  }
}

TEST(BlockTranslationTest, StaticTargetsResolveToBlockLeaders) {
  const CompiledProgram cp = LoopProgram();
  const BlockTranslation trans(cp.program);

  std::size_t branches = 0;
  for (std::uint32_t i = 0; i < trans.num_ops(); ++i) {
    const TransOp& op = trans.op(i);
    if (op.kind != FusedKind::kJmp && op.kind != FusedKind::kBnz &&
        op.kind != FusedKind::kBz && op.kind != FusedKind::kCall) {
      continue;
    }
    ++branches;
    ASSERT_NE(op.target_op, kNoOp) << "static target unresolved at op " << i;
    // The resolved target is the leader of its block (leader analysis) and
    // agrees with the PC-indexed table.
    EXPECT_EQ(op.target_op, trans.block(trans.op(op.target_op).block).first_op);
    EXPECT_EQ(op.target_op,
              trans.OpIndexOfPc(static_cast<ProgramCounter>(op.a)));
  }
  EXPECT_GT(branches, 0u);

  // PC mapping is exact and rejects non-instruction PCs.
  for (std::size_t i = 0; i < cp.program.size(); ++i) {
    EXPECT_EQ(trans.OpIndexOfPc(cp.program.PcOf(i)), i);
  }
  EXPECT_EQ(trans.OpIndexOfPc(cp.program.text_end()), kNoOp);
  EXPECT_EQ(trans.OpIndexOfPc(cp.program.text_end() + 100), kNoOp);
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

TEST(BlockTranslationTest, FallThroughLastInstructionIsABarrier) {
  const Program program = FallThroughProgram();
  const BlockTranslation trans(program);
  ASSERT_EQ(trans.num_ops(), program.size());
  EXPECT_EQ(trans.op(0).kind, FusedKind::kLoadImm);
  EXPECT_EQ(trans.op(1).kind, FusedKind::kBarrier);
  EXPECT_EQ(trans.block(trans.op(1).block).first_op, 1u);
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
