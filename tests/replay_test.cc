// Schedule record/replay (docs/replay.md): replaying a recorded trace must
// reproduce the run byte-for-byte, divergence must be detected instead of
// drifting, artifacts must round-trip through JSON, and the shrinker must
// find a strictly smaller schedule that still triggers the recorded bug.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exp/repro.h"
#include "trace/event_log.h"
#include "trace/sink.h"
#include "exp/run_record.h"
#include "exp/run_spec.h"
#include "exp/runner.h"
#include "exp/shrink.h"
#include "trace/report.h"

namespace kivati {
namespace {

// A corpus-bug spec matching the soundness suite's detection configuration,
// with a reduced budget to keep the 11-bug sweep fast.
exp::RunSpec BugSpec(const std::string& bug, Cycles budget = 10'000'000) {
  exp::RunSpec spec;
  spec.bug = bug;
  spec.mode = KivatiMode::kBugFinding;
  spec.pause_ms = 50.0;
  spec.machine.seed = 17;
  spec.budget = budget;
  return spec;
}

std::vector<std::string> ViolationStrings(const Engine& engine) {
  std::vector<std::string> out;
  for (const ViolationRecord& v : engine.trace().violations()) {
    out.push_back(ToString(v) + " when=" + std::to_string(v.when) +
                  (v.prevented ? " prevented" : " detected"));
  }
  return out;
}

struct Recorded {
  exp::BuiltRun run;
  RunResult result;
  std::shared_ptr<const ScheduleTrace> trace;
};

Recorded RecordRun(const exp::RunSpec& base) {
  exp::RunSpec spec = base;
  spec.record_schedule = true;
  Recorded rec;
  rec.run = exp::BuildEngine(spec);
  rec.result = rec.run.engine->Run(spec.budget);
  rec.trace = std::make_shared<const ScheduleTrace>(*rec.run.engine->recorded_schedule());
  return rec;
}

class CorpusReplayTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CorpusReplayTest, ReplayIsByteIdentical) {
  const apps::BugInfo& bug = apps::BugCorpus()[GetParam()];
  const std::string name = bug.app + "-" + bug.id;
  SCOPED_TRACE(name);
  const exp::RunSpec base = BugSpec(name);

  Recorded rec = RecordRun(base);

  exp::RunSpec replay_spec = base;
  replay_spec.replay_schedule = rec.trace;
  exp::BuiltRun replay = exp::BuildEngine(replay_spec);
  const RunResult replay_result = replay.engine->Run(replay_spec.budget);
  ASSERT_NO_THROW(replay.engine->schedule_controller()->VerifyFullyConsumed());

  // The whole machine-readable record — outcome, RuntimeStats, histograms —
  // must serialize byte-identically (modulo wall clock).
  const exp::RunRecord recorded =
      exp::MakeRecord(base, *rec.run.app, *rec.run.engine, rec.result);
  const exp::RunRecord replayed =
      exp::MakeRecord(base, *replay.app, *replay.engine, replay_result);
  EXPECT_EQ(exp::ToJson(recorded, /*include_wall_clock=*/false),
            exp::ToJson(replayed, /*include_wall_clock=*/false));
  // And the full violation list, field by field.
  EXPECT_EQ(ViolationStrings(*rec.run.engine), ViolationStrings(*replay.engine));
}

INSTANTIATE_TEST_SUITE_P(AllCorpusBugs, CorpusReplayTest,
                         ::testing::Range<std::size_t>(0, apps::BugCorpus().size()));

// Block-translated execution must not change schedule semantics. Recording
// through the block engine (block_translate defaults on) must produce a
// ScheduleTrace byte-identical to the per-instruction loop's, and strict
// replay — which runs fused too, since the controller is consulted only at
// decisions the fused loop hands back for — must reproduce the run exactly.
TEST(BlockEngineScheduleTest, RecordedTraceMatchesFastLoopAndReplaysStrictly) {
  const exp::RunSpec base = BugSpec("NSS-329072", 5'000'000);

  Recorded block = RecordRun(base);  // block_translate on (the default)

  exp::RunSpec fast_spec = base;
  fast_spec.machine.block_translate = false;
  Recorded fast = RecordRun(fast_spec);

  EXPECT_EQ(block.trace->decisions, fast.trace->decisions);
  EXPECT_EQ(block.trace->checkpoints, fast.trace->checkpoints);

  exp::RunSpec replay_spec = base;  // block_translate stays on for the replay
  replay_spec.replay_schedule = block.trace;
  exp::BuiltRun replay = exp::BuildEngine(replay_spec);
  const RunResult replay_result = replay.engine->Run(replay_spec.budget);
  ASSERT_NO_THROW(replay.engine->schedule_controller()->VerifyFullyConsumed());

  const exp::RunRecord recorded =
      exp::MakeRecord(base, *block.run.app, *block.run.engine, block.result);
  const exp::RunRecord replayed =
      exp::MakeRecord(base, *replay.app, *replay.engine, replay_result);
  EXPECT_EQ(exp::ToJson(recorded, /*include_wall_clock=*/false),
            exp::ToJson(replayed, /*include_wall_clock=*/false));
}

// An access-level TraceSink subscribing *mid-run* is picked up at the block
// engine's next entry: every committed shared read/write after the
// subscription point is observed, the run's outcome is unchanged relative
// to the per-instruction loop doing the same dance, and the engine keeps
// fusing the ops that touch no shared data.
TEST(BlockEngineScheduleTest, MidRunAccessSinkSubscriptionStaysFused) {
  struct AccessSink : TraceSink {
    std::vector<std::string> events;
    std::uint32_t wants_mask() const override { return kAccessEventKinds; }
    void OnEvent(const TraceEvent& e) override {
      events.push_back(std::to_string(e.when) + "/" + ToString(e.kind) + "/t" +
                       std::to_string(e.thread) + "/a" + std::to_string(e.addr) +
                       "/v" + std::to_string(e.value));
    }
  };

  struct Observed {
    std::string json;
    std::vector<std::string> events;
    std::uint64_t fused_at_attach = 0;
    std::uint64_t fused_at_end = 0;
  };
  const exp::RunSpec base = BugSpec("NSS-329072", 5'000'000);
  auto run_with = [&base](bool block_translate) {
    exp::RunSpec spec = base;
    spec.machine.block_translate = block_translate;
    exp::BuiltRun built = exp::BuildEngine(spec);
    AccessSink sink;
    Observed observed;
    built.engine->Run(*spec.budget / 2);
    observed.fused_at_attach = built.engine->machine().fused_instructions();
    built.engine->trace().hub().Attach(&sink);
    const RunResult result = built.engine->Run(spec.budget);
    observed.fused_at_end = built.engine->machine().fused_instructions();
    const exp::RunRecord record =
        exp::MakeRecord(base, *built.app, *built.engine, result);
    observed.json = exp::ToJson(record, /*include_wall_clock=*/false);
    observed.events = std::move(sink.events);
    return observed;
  };

  const Observed block = run_with(true);
  const Observed fast = run_with(false);
  EXPECT_FALSE(block.events.empty()) << "no shared accesses observed post-attach";
  EXPECT_EQ(block.json, fast.json);
  EXPECT_EQ(block.events, fast.events);
  EXPECT_GT(block.fused_at_attach, 0u);
  EXPECT_GT(block.fused_at_end, block.fused_at_attach) << "the sink stopped fusion";
  EXPECT_EQ(fast.fused_at_end, 0u);
}

TEST(ReplayDivergenceTest, TamperedPickIsDetected) {
  const exp::RunSpec base = BugSpec("NSS-329072", 5'000'000);
  Recorded rec = RecordRun(base);

  auto tampered = std::make_shared<ScheduleTrace>(*rec.trace);
  bool flipped = false;
  for (SchedDecision& d : tampered->decisions) {
    if (d.kind == SchedDecisionKind::kPick && d.choices >= 2) {
      d.value = (d.value + 1) % d.choices;
      flipped = true;
      break;
    }
  }
  ASSERT_TRUE(flipped) << "recorded trace has no multi-way pick to tamper with";

  exp::RunSpec spec = base;
  spec.replay_schedule = tampered;
  exp::BuiltRun replay = exp::BuildEngine(spec);
  EXPECT_THROW(replay.engine->Run(spec.budget), ScheduleDivergenceError);
}

TEST(ReplayDivergenceTest, TruncatedTraceIsDetected) {
  const exp::RunSpec base = BugSpec("NSS-329072", 5'000'000);
  Recorded rec = RecordRun(base);
  ASSERT_GT(rec.trace->decisions.size(), 4u);

  auto truncated = std::make_shared<ScheduleTrace>(*rec.trace);
  truncated->decisions.resize(truncated->decisions.size() / 2);

  exp::RunSpec spec = base;
  spec.replay_schedule = truncated;
  exp::BuiltRun replay = exp::BuildEngine(spec);
  EXPECT_THROW(replay.engine->Run(spec.budget), ScheduleDivergenceError);
}

TEST(ReplayDivergenceTest, ShortReplayFailsFullConsumptionCheck) {
  const exp::RunSpec base = BugSpec("NSS-329072", 5'000'000);
  Recorded rec = RecordRun(base);

  exp::RunSpec spec = base;
  spec.replay_schedule = rec.trace;
  spec.budget = *base.budget / 2;  // stop well before the recording ends
  exp::BuiltRun replay = exp::BuildEngine(spec);
  replay.engine->Run(spec.budget);
  EXPECT_THROW(replay.engine->schedule_controller()->VerifyFullyConsumed(),
               ScheduleDivergenceError);
}

TEST(ReproArtifactTest, JsonRoundTrip) {
  exp::RunSpec base = BugSpec("NSS-329072", 5'000'000);
  // Every frontend choice away from its default: replay rebuilds the binary
  // from these four.
  base.scale.frontend.annotator.interprocedural = true;
  base.scale.frontend.annotator.precise_aliasing = true;
  base.scale.frontend.prune = false;
  base.scale.frontend.correlate = false;
  Recorded rec = RecordRun(base);
  const exp::ReproArtifact artifact =
      exp::MakeReproArtifact(base, *rec.trace, rec.run.engine->trace().violations());
  ASSERT_TRUE(artifact.has_target);

  const exp::ReproArtifact loaded = exp::ReproFromJson(exp::ToJson(artifact));
  EXPECT_EQ(loaded.spec.bug, base.bug);
  EXPECT_EQ(loaded.spec.machine.seed, base.machine.seed);
  EXPECT_EQ(loaded.spec.machine.num_cores, base.machine.num_cores);
  EXPECT_EQ(loaded.spec.mode, base.mode);
  EXPECT_EQ(loaded.spec.pause_ms, base.pause_ms);
  EXPECT_TRUE(loaded.spec.scale.frontend == base.scale.frontend);
  ASSERT_TRUE(loaded.spec.budget.has_value());
  EXPECT_EQ(*loaded.spec.budget, *base.budget);
  EXPECT_TRUE(loaded.has_target);
  EXPECT_EQ(loaded.target.ar, artifact.target.ar);
  EXPECT_EQ(loaded.target.pattern, artifact.target.pattern);
  EXPECT_EQ(loaded.target.addr, artifact.target.addr);
  EXPECT_EQ(loaded.violations, artifact.violations);
  EXPECT_EQ(loaded.trace.seed, rec.trace->seed);
  EXPECT_EQ(loaded.trace.shrunk, rec.trace->shrunk);
  EXPECT_EQ(loaded.trace.decisions, rec.trace->decisions);
  EXPECT_EQ(loaded.trace.checkpoints, rec.trace->checkpoints);
}

// A well-formed artifact whose spec field `field` reads `value` instead.
std::string ArtifactWith(const std::string& field, const std::string& value) {
  std::string json =
      exp::ToJson(exp::MakeReproArtifact(BugSpec("NSS-329072"), ScheduleTrace{}, {}));
  const std::string key = "\"" + field + "\":";
  const std::size_t at = json.find(key) + key.size();
  json.replace(at, json.find_first_of(",}", at) - at, value);
  return json;
}

TEST(ReproArtifactTest, ArtifactWithoutCorrelateKeyReadsAsCorrelating) {
  exp::RunSpec spec = BugSpec("NSS-329072");
  spec.scale.frontend.correlate = false;
  std::string json = exp::ToJson(exp::MakeReproArtifact(spec, ScheduleTrace{}, {}));
  EXPECT_FALSE(exp::ReproFromJson(json).spec.scale.frontend.correlate);
  const std::string key = "\"correlate\":false,";
  ASSERT_NE(json.find(key), std::string::npos);
  json.erase(json.find(key), key.size());
  EXPECT_TRUE(exp::ReproFromJson(json).spec.scale.frontend.correlate);
}

TEST(ReproArtifactTest, RejectsMalformedJson) {
  EXPECT_THROW(exp::ReproFromJson("{"), std::runtime_error);
  EXPECT_THROW(exp::ReproFromJson("{\"kind\":\"other\"}"), std::runtime_error);
  EXPECT_THROW(exp::ReproFromJson("[1,2,3]"), std::runtime_error);
  // Nesting deep enough to overflow a recursive parser's stack.
  EXPECT_THROW(exp::ReproFromJson(std::string(200'000, '[')), std::runtime_error);

  // Machine and scale fields outside the bounds the CLI enforces.
  EXPECT_NO_THROW(exp::ReproFromJson(ArtifactWith("cores", "2")));
  EXPECT_THROW(exp::ReproFromJson(ArtifactWith("cores", "0")), std::runtime_error);
  EXPECT_THROW(exp::ReproFromJson(ArtifactWith("cores", "100000")), std::runtime_error);
  EXPECT_THROW(exp::ReproFromJson(ArtifactWith("watchpoints", "0")), std::runtime_error);
  EXPECT_THROW(exp::ReproFromJson(ArtifactWith("watchpoints", "100")), std::runtime_error);
  EXPECT_THROW(exp::ReproFromJson(ArtifactWith("workers", "0")), std::runtime_error);
  EXPECT_THROW(exp::ReproFromJson(ArtifactWith("iterations", "100000001")),
               std::runtime_error);
  EXPECT_THROW(exp::ReproFromJson(ArtifactWith("quantum", "0")), std::runtime_error);
  try {
    exp::ReproFromJson(ArtifactWith("correlate", "7"));
    ADD_FAILURE() << "a numeric 'correlate' was accepted";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("'correlate' must be a boolean"), std::string::npos)
        << error.what();
  }
  // Pause lengths the CLI's --pause-ms refuses (kMaxPauseMs).
  EXPECT_NO_THROW(exp::ReproFromJson(ArtifactWith("pause_ms", "0")));
  EXPECT_THROW(exp::ReproFromJson(ArtifactWith("pause_ms", "-1")), std::runtime_error);
  EXPECT_THROW(exp::ReproFromJson(ArtifactWith("pause_ms", "1e300")), std::runtime_error);

  // The trace's lists must be arrays, not values read as empty lists.
  EXPECT_NO_THROW(exp::ReproFromJson(ArtifactWith("decisions", "[]")));
  EXPECT_THROW(exp::ReproFromJson(ArtifactWith("decisions", "7")), std::runtime_error);
  EXPECT_THROW(exp::ReproFromJson(ArtifactWith("checkpoints", "{}")), std::runtime_error);
  // A raw control character inside a string is not JSON.
  EXPECT_THROW(exp::ReproFromJson(ArtifactWith("label", "\"a\tb\"")), std::runtime_error);
  EXPECT_NO_THROW(exp::ReproFromJson(ArtifactWith("label", "\"a\\tb\"")));
}

TEST(ShrinkTest, ShrinksNssBugToReproducingSubset) {
  const exp::RunSpec base = BugSpec("NSS-329072", 5'000'000);
  Recorded rec = RecordRun(base);
  const exp::ReproArtifact artifact =
      exp::MakeReproArtifact(base, *rec.trace, rec.run.engine->trace().violations());
  ASSERT_TRUE(artifact.has_target) << "recording produced no violation to shrink against";

  exp::ShrinkOptions options;
  options.max_runs = 60;
  const exp::ShrinkResult result = exp::ShrinkSchedule(artifact, options);
  ASSERT_TRUE(result.reproduced);
  EXPECT_LT(result.trace.decisions.size(), artifact.trace.decisions.size());
  EXPECT_TRUE(result.trace.shrunk);

  // Independently verify the minimized schedule still triggers the target
  // violation under loose replay.
  exp::RunSpec spec = base;
  spec.replay_schedule = std::make_shared<const ScheduleTrace>(result.trace);
  exp::BuiltRun replay = exp::BuildEngine(spec);
  replay.engine->Run(spec.budget);
  bool found = false;
  for (const ViolationRecord& v : replay.engine->trace().violations()) {
    found = found || exp::MatchesTarget(artifact.target, v);
  }
  EXPECT_TRUE(found) << "shrunk trace lost the target violation";
}

// Loose replay must treat an empty runnable set as the no-decision fallback
// and leave the choice stream untouched: Machine::PopRunnable never consults
// the controller for <2 runnable threads, so a decision consumed there would
// silently shift every later pick by one.
TEST(ShrinkTest, LooseReplaySkipsEmptyRunnableSetWithoutConsuming) {
  ScheduleTrace trace;
  trace.shrunk = true;
  trace.decisions = {
      {SchedDecisionKind::kPick, /*value=*/5, /*choices=*/3, /*subject=*/1, /*instr=*/10},
      {SchedDecisionKind::kPick, /*value=*/1, /*choices=*/2, /*subject=*/0, /*instr=*/20},
  };
  ScheduleController ctl(trace, ScheduleController::Mode::kReplayLoose);

  // Degenerate call with no runnable threads: fall back, consume nothing.
  EXPECT_EQ(ctl.ReplayPick(nullptr, 0, 5), 0u);
  EXPECT_EQ(ctl.decisions_consumed(), 0u);

  // The stream is intact, so the remaining decisions still line up:
  // 5 % 4 = 1, then 1 % 2 = 1, then exhausted -> deterministic 0.
  const ThreadId runnable[4] = {0, 1, 2, 3};
  EXPECT_EQ(ctl.ReplayPick(runnable, 4, 10), 1u);
  EXPECT_EQ(ctl.decisions_consumed(), 1u);
  EXPECT_EQ(ctl.ReplayPick(runnable, 0, 15), 0u);  // again mid-stream
  EXPECT_EQ(ctl.decisions_consumed(), 1u);
  EXPECT_EQ(ctl.ReplayPick(runnable, 2, 20), 1u);
  EXPECT_EQ(ctl.ReplayPick(runnable, 3, 30), 0u);  // exhausted fallback
  EXPECT_FALSE(ctl.ReplayPause(0, 40));            // exhausted fallback
}

// Budget accounting: a shrink that converges to 1-minimality on exactly its
// last allowed run must not be reported as budget-exhausted, and rerunning
// with that exact budget must reproduce the same minimized trace.
TEST(ShrinkTest, ConvergenceOnFinalRunIsNotBudgetExhausted) {
  const exp::RunSpec base = BugSpec("NSS-329072", 5'000'000);
  Recorded rec = RecordRun(base);
  const exp::ReproArtifact artifact =
      exp::MakeReproArtifact(base, *rec.trace, rec.run.engine->trace().violations());
  ASSERT_TRUE(artifact.has_target);

  exp::ShrinkOptions generous;
  generous.max_runs = 500;
  const exp::ShrinkResult full = exp::ShrinkSchedule(artifact, generous);
  ASSERT_TRUE(full.reproduced);
  ASSERT_FALSE(full.budget_exhausted);
  ASSERT_GT(full.runs, 0u);
  ASSERT_LT(full.runs, generous.max_runs) << "raise the generous budget";

  // Exactly the number of runs convergence needed: same result, and the
  // coincidence of budget==runs must not flip budget_exhausted.
  exp::ShrinkOptions exact;
  exact.max_runs = full.runs;
  const exp::ShrinkResult again = exp::ShrinkSchedule(artifact, exact);
  EXPECT_TRUE(again.reproduced);
  EXPECT_FALSE(again.budget_exhausted);
  EXPECT_EQ(again.runs, full.runs);
  EXPECT_EQ(again.trace.decisions, full.trace.decisions);
}

// A genuinely insufficient budget reports exhaustion and still returns a
// best-so-far trace that reproduces the target.
TEST(ShrinkTest, ExhaustedBudgetReturnsReproducingBestSoFar) {
  const exp::RunSpec base = BugSpec("NSS-329072", 5'000'000);
  Recorded rec = RecordRun(base);
  const exp::ReproArtifact artifact =
      exp::MakeReproArtifact(base, *rec.trace, rec.run.engine->trace().violations());
  ASSERT_TRUE(artifact.has_target);

  exp::ShrinkOptions tight;
  tight.max_runs = 5;
  const exp::ShrinkResult result = exp::ShrinkSchedule(artifact, tight);
  ASSERT_TRUE(result.reproduced);
  EXPECT_TRUE(result.budget_exhausted);
  EXPECT_EQ(result.runs, tight.max_runs);

  exp::RunSpec spec = base;
  spec.replay_schedule = std::make_shared<const ScheduleTrace>(result.trace);
  exp::BuiltRun replay = exp::BuildEngine(spec);
  replay.engine->Run(spec.budget);
  bool found = false;
  for (const ViolationRecord& v : replay.engine->trace().violations()) {
    found = found || exp::MatchesTarget(artifact.target, v);
  }
  EXPECT_TRUE(found) << "best-so-far trace lost the target violation";
}

// A violation witnessed under the same AR id and pattern classifies as the
// target; a different pattern or address does not.
TEST(ShrinkTest, TargetMatchingIsByArPatternAndAddress) {
  ViolationRecord v;
  v.ar_id = 3;
  v.addr = 4096;
  v.size = 8;
  v.first = AccessType::kRead;
  v.remote = AccessType::kWrite;
  v.second = AccessType::kRead;
  exp::ReproTarget target;
  target.ar = 3;
  target.pattern = ViolationPattern(v);
  target.addr = 4096;
  target.size = 8;
  EXPECT_TRUE(exp::MatchesTarget(target, v));
  ViolationRecord other = v;
  other.remote = AccessType::kRead;
  EXPECT_FALSE(exp::MatchesTarget(target, other));
  other = v;
  other.addr = 4104;
  EXPECT_FALSE(exp::MatchesTarget(target, other));
  other = v;
  other.ar_id = 4;
  EXPECT_FALSE(exp::MatchesTarget(target, other));
}

}  // namespace
}  // namespace kivati
