// Coverage-guided schedule fuzzing (docs/fuzzing.md): strategies must be
// deterministic per seed and stay inside the runnable set, the fuzz report
// must be byte-identical across worker counts, and a seeded search on a
// corpus bug must rediscover it with a shrunk, replayable artifact.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "exp/fuzz.h"
#include "exp/repro.h"
#include "exp/run_spec.h"
#include "exp/runner.h"
#include "exp/shrink.h"
#include "sched/fuzz_strategy.h"
#include "trace/trace.h"

namespace kivati {
namespace {

exp::RunSpec BugSpec(const std::string& bug) {
  exp::RunSpec spec;
  spec.bug = bug;
  spec.mode = KivatiMode::kBugFinding;
  spec.pause_ms = 50.0;
  spec.machine.seed = 17;
  spec.budget = 5'000'000;
  return spec;
}

exp::FuzzOptions SmallBudget() {
  exp::FuzzOptions options;
  options.max_schedules = 8;
  options.plateau = 8;
  options.seed = 7;
  options.shrink_max_runs = 12;
  return options;
}

// Drives a strategy through a fixed synthetic decision sequence and returns
// the picks/pauses it produced.
std::vector<std::size_t> DriveStrategy(const GuidedSchedule& spec) {
  const std::unique_ptr<SchedStrategy> strategy = MakeStrategy(spec);
  const ThreadId runnable[4] = {0, 1, 2, 3};
  std::vector<std::size_t> out;
  for (std::uint64_t i = 0; i < 64; ++i) {
    const std::size_t choices = 2 + i % 3;  // 2..4-way picks
    const std::size_t pick = strategy->Pick(runnable, choices, i * 10);
    EXPECT_LT(pick, choices) << "pick out of range at decision " << i;
    out.push_back(pick);
    out.push_back(strategy->Pause(runnable[pick], i * 10 + 5) ? 1 : 0);
  }
  return out;
}

TEST(FuzzStrategyTest, PicksStayInRangeAndAreSeedDeterministic) {
  for (const FuzzStrategyKind kind : {FuzzStrategyKind::kPct, FuzzStrategyKind::kPreempt}) {
    SCOPED_TRACE(ToString(kind));
    GuidedSchedule spec;
    spec.kind = kind;
    spec.seed = 1234;
    const std::vector<std::size_t> first = DriveStrategy(spec);
    EXPECT_EQ(first, DriveStrategy(spec)) << "same seed must replay identically";
    spec.seed = 1235;
    EXPECT_NE(first, DriveStrategy(spec)) << "different seed should explore differently";
  }
}

TEST(FuzzStrategyTest, KindParsingRoundTrips) {
  FuzzStrategyKind kind = FuzzStrategyKind::kPreempt;
  EXPECT_TRUE(ParseStrategyKind("pct", &kind));
  EXPECT_EQ(kind, FuzzStrategyKind::kPct);
  EXPECT_TRUE(ParseStrategyKind("preempt", &kind));
  EXPECT_EQ(kind, FuzzStrategyKind::kPreempt);
  EXPECT_FALSE(ParseStrategyKind("chaos", &kind));
}

// A guided run records every decision the strategy made, so the recorded
// trace replays strictly to the byte-identical outcome.
TEST(FuzzGuidedRunTest, GuidedTraceReplaysStrictly) {
  exp::RunSpec guided_spec = BugSpec("NSS-329072");
  auto guided = std::make_shared<GuidedSchedule>();
  guided->kind = FuzzStrategyKind::kPct;
  guided->seed = 99;
  guided_spec.guided_schedule = guided;
  const exp::RunRecord guided_record = exp::Execute(guided_spec);
  ASSERT_TRUE(guided_record.error.empty()) << guided_record.error;
  ASSERT_NE(guided_record.schedule, nullptr);
  EXPECT_FALSE(guided_record.schedule->decisions.empty());

  exp::RunSpec replay_spec = BugSpec("NSS-329072");
  replay_spec.replay_schedule = guided_record.schedule;
  const exp::RunRecord replayed = exp::Execute(replay_spec);
  ASSERT_TRUE(replayed.error.empty()) << replayed.error;
  EXPECT_EQ(exp::ToJson(guided_record, /*include_wall_clock=*/false),
            exp::ToJson(replayed, /*include_wall_clock=*/false));
}

// The block engine must be schedule-transparent under guided fuzzing:
// guided runs execute fused — the strategy is consulted only at scheduling
// decisions, which the fused loop hands back for — and the guided run's
// record and recorded ScheduleTrace are byte-identical whether block
// translation is on (the default) or off.
TEST(FuzzGuidedRunTest, GuidedTraceIsEngineInvariant) {
  auto run_guided = [](bool block_translate) {
    exp::RunSpec spec = BugSpec("NSS-329072");
    spec.machine.block_translate = block_translate;
    auto guided = std::make_shared<GuidedSchedule>();
    guided->kind = FuzzStrategyKind::kPct;
    guided->seed = 99;
    spec.guided_schedule = guided;
    return exp::Execute(spec);
  };

  const exp::RunRecord block = run_guided(true);
  const exp::RunRecord fast = run_guided(false);
  ASSERT_TRUE(block.error.empty()) << block.error;
  ASSERT_TRUE(fast.error.empty()) << fast.error;
  EXPECT_EQ(exp::ToJson(block, /*include_wall_clock=*/false),
            exp::ToJson(fast, /*include_wall_clock=*/false));
  ASSERT_NE(block.schedule, nullptr);
  ASSERT_NE(fast.schedule, nullptr);
  EXPECT_EQ(block.schedule->decisions, fast.schedule->decisions);
  EXPECT_EQ(block.schedule->checkpoints, fast.schedule->checkpoints);
}

TEST(FuzzTest, RejectsInvalidOptions) {
  const exp::RunSpec spec = BugSpec("NSS-329072");
  exp::FuzzOptions options = SmallBudget();
  options.max_schedules = 0;
  EXPECT_THROW(exp::Fuzz(spec, options), std::runtime_error);
  options = SmallBudget();
  options.plateau = 0;
  EXPECT_THROW(exp::Fuzz(spec, options), std::runtime_error);
  options = SmallBudget();
  options.strategy = "chaos";
  EXPECT_THROW(exp::Fuzz(spec, options), std::runtime_error);
}

// The whole search is a deterministic function of (spec, options): the
// report must serialize byte-identically across worker-pool sizes.
TEST(FuzzTest, ReportIsByteIdenticalAcrossWorkerCounts) {
  const exp::RunSpec spec = BugSpec("NSS-329072");
  exp::FuzzOptions options = SmallBudget();
  options.workers = 1;
  const exp::FuzzReport serial = exp::Fuzz(spec, options);
  options.workers = 4;
  const exp::FuzzReport pooled = exp::Fuzz(spec, options);
  EXPECT_EQ(exp::FuzzReportJson(serial, /*include_wall_clock=*/false),
            exp::FuzzReportJson(pooled, /*include_wall_clock=*/false));
  EXPECT_EQ(serial.schedules_run, pooled.schedules_run);
  EXPECT_EQ(serial.coverage_points, pooled.coverage_points);
  ASSERT_EQ(serial.discoveries.size(), pooled.discoveries.size());
  for (std::size_t i = 0; i < serial.discoveries.size(); ++i) {
    EXPECT_EQ(serial.discoveries[i].schedule_index, pooled.discoveries[i].schedule_index);
    EXPECT_EQ(serial.discoveries[i].shrunk_decisions, pooled.discoveries[i].shrunk_decisions);
  }
}

// Regression for the ViolationPattern hoist: trace/trace.h now holds the
// single definition, and every consumer — the fuzzer's dedup/coverage key,
// the repro artifact writer, and replay-side target matching — must derive
// the identical string for the same violation. A divergence here silently
// breaks artifact re-matching after a replay.
TEST(FuzzTest, DedupKeyAndReproArtifactAgreeOnViolationPattern) {
  ViolationRecord v;
  v.ar_id = 7;
  v.addr = 4096;
  v.size = 8;
  v.first = AccessType::kRead;
  v.remote = AccessType::kWrite;
  v.second = AccessType::kWrite;
  EXPECT_EQ(ViolationPattern(v), "R-W-W");

  exp::RunSpec spec = BugSpec("NSS-329072");
  const exp::ReproArtifact artifact = exp::MakeReproArtifact(spec, ScheduleTrace{}, {v});
  ASSERT_TRUE(artifact.has_target);
  EXPECT_EQ(artifact.target.pattern, ViolationPattern(v));
  EXPECT_TRUE(exp::MatchesTarget(artifact.target, v));

  // Round-trip through JSON, exactly what `kivati fuzz --artifacts` saves
  // and `kivati replay` loads back.
  const exp::ReproArtifact loaded = exp::ReproFromJson(exp::ToJson(artifact));
  ASSERT_TRUE(loaded.has_target);
  EXPECT_EQ(loaded.target.pattern, artifact.target.pattern);
  EXPECT_TRUE(exp::MatchesTarget(loaded.target, v));

  // A different interleaving shape must not match: the pattern is the part
  // of the dedup key that distinguishes Figure-2 classes on the same AR.
  ViolationRecord other = v;
  other.second = AccessType::kRead;
  EXPECT_EQ(ViolationPattern(other), "R-W-R");
  EXPECT_FALSE(exp::MatchesTarget(loaded.target, other));
}

// Seeded rediscovery: within a small budget the fuzzer must find the corpus
// bug, shrink the witness, verify it replays, and write a loadable artifact
// whose minimized trace independently re-triggers the target.
TEST(FuzzTest, RediscoversCorpusBugWithReplayableArtifact) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "kivati_fuzz_test_artifacts").string();
  std::filesystem::remove_all(dir);

  const exp::RunSpec spec = BugSpec("NSS-329072");
  exp::FuzzOptions options = SmallBudget();
  options.artifact_dir = dir;
  const exp::FuzzReport report = exp::Fuzz(spec, options);
  EXPECT_TRUE(report.errors.empty());
  EXPECT_GT(report.schedules_run, 0u);
  EXPECT_GT(report.coverage_points, 0u);
  ASSERT_FALSE(report.discoveries.empty()) << "fuzzer failed to rediscover NSS-329072";

  const exp::FuzzDiscovery& d = report.discoveries.front();
  EXPECT_TRUE(d.replay_ok) << "minimized trace lost the violation";
  EXPECT_LE(d.shrunk_decisions, d.trace_decisions);
  ASSERT_FALSE(d.artifact_path.empty());
  ASSERT_TRUE(std::filesystem::exists(d.artifact_path)) << d.artifact_path;

  const exp::ReproArtifact artifact = exp::LoadRepro(d.artifact_path);
  ASSERT_TRUE(artifact.has_target);
  EXPECT_EQ(artifact.target.ar, d.target.ar);
  EXPECT_TRUE(artifact.trace.shrunk);
  EXPECT_EQ(artifact.trace.decisions.size(), d.shrunk_decisions);

  // Replay the artifact from scratch, exactly as `kivati replay` would.
  exp::RunSpec replay_spec = artifact.spec;
  replay_spec.replay_schedule = std::make_shared<const ScheduleTrace>(artifact.trace);
  const exp::RunRecord replayed = exp::Execute(replay_spec);
  ASSERT_TRUE(replayed.error.empty()) << replayed.error;
  bool found = false;
  for (const ViolationRecord& v : replayed.violation_records) {
    found = found || exp::MatchesTarget(artifact.target, v);
  }
  EXPECT_TRUE(found) << "saved artifact does not re-trigger its target";

  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace kivati
