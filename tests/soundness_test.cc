// Soundness of static AR pruning (docs/analysis.md): dropping annotations
// the conflict analysis proves unviolable must never hide a real bug, and
// the verdict census must stay consistent across the whole app suite.
#include <gtest/gtest.h>

#include "apps/bugs.h"
#include "apps/workloads.h"
#include "core/engine.h"
#include "isa/disasm.h"

namespace kivati {
namespace {

MachineConfig EvalMachine(std::uint64_t seed = 1) {
  MachineConfig config;
  config.num_cores = 2;
  config.policy = SchedPolicy::kRandom;
  config.seed = seed;
  return config;
}

TEST(PruningSoundnessTest, BuggyArsSurviveInEveryCorpusApp) {
  for (const apps::BugInfo& bug : apps::BugCorpus()) {
    const apps::App pruned = apps::MakeBugApp(bug);
    const apps::App unpruned = apps::MakeBugApp(bug, {.prune = false});
    SCOPED_TRACE(bug.app + " " + bug.id);
    // AR ids are assigned before pruning, so both builds agree on them.
    EXPECT_EQ(pruned.compiled->num_ars, unpruned.compiled->num_ars);
    EXPECT_EQ(pruned.workload.buggy_ars, unpruned.workload.buggy_ars);
    EXPECT_EQ(unpruned.workload.ars_pruned, 0u);
    // The seeded bug's regions must classify watch-required and keep their
    // annotations.
    ASSERT_FALSE(pruned.workload.buggy_ars.empty());
    for (const ArId ar : pruned.workload.buggy_ars) {
      EXPECT_FALSE(pruned.compiled->conflict.pruned.contains(ar))
          << "buggy AR " << ar << " was pruned";
      EXPECT_EQ(pruned.compiled->conflict.ars[ar - 1].verdict, ArVerdict::kWatchRequired);
    }
    // Verdicts themselves don't depend on the prune knob.
    EXPECT_EQ(pruned.workload.ars_watch_required, unpruned.workload.ars_watch_required);
    EXPECT_EQ(pruned.workload.ars_lock_protected, unpruned.workload.ars_lock_protected);
    EXPECT_EQ(pruned.workload.ars_no_remote_writer, unpruned.workload.ars_no_remote_writer);
  }
}

TEST(PruningSoundnessTest, AppCensusIsConsistent) {
  apps::LoadScale scale;
  scale.iterations = 60;
  for (apps::App& app : apps::AllPerformanceApps(scale)) {
    SCOPED_TRACE(app.workload.name);
    EXPECT_EQ(app.workload.ars_annotated,
              app.workload.ars_no_remote_writer + app.workload.ars_lock_protected +
                  app.workload.ars_watch_required);
    EXPECT_EQ(app.workload.ars_pruned,
              app.workload.ars_no_remote_writer + app.workload.ars_lock_protected);
  }
  // The lock-heavy apps actually exercise the lock-protected verdict.
  const apps::App nss = apps::MakeNss(scale);
  EXPECT_GE(nss.workload.ars_lock_protected, 1u);
  EXPECT_GE(nss.workload.ars_pruned, 1u);
}

// Fast-triggering corpus bugs still manifest with pruning enabled — and the
// detection matches the unpruned build's. (Slow-trigger bugs are covered by
// apps_test's full-corpus detection run, which uses the pruned default.)
// Bug-finding run with escalating budgets: true as soon as a violation on a
// buggy AR is reported, false if none surfaced within `max_budget` cycles.
bool DetectsWithin(const apps::App& app, Cycles max_budget) {
  EngineOptions options;
  options.machine = EvalMachine(17);
  KivatiConfig config;
  config.mode = KivatiMode::kBugFinding;
  config.bugfinding_pause_ms = 50.0;
  config.bugfinding_pause_probability = 0.25;
  options.kivati = config;
  Engine engine(app.workload, options);
  for (Cycles limit = 10'000'000; limit <= max_budget; limit += 10'000'000) {
    engine.Run(limit);
    for (const ViolationRecord& v : engine.trace().violations()) {
      if (app.workload.buggy_ars.contains(v.ar_id)) {
        return true;
      }
    }
  }
  return false;
}

class FastBugDetectionTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  static bool Detects(const apps::App& app) { return DetectsWithin(app, 200'000'000); }
};

TEST_P(FastBugDetectionTest, DetectedWithAndWithoutPruning) {
  const apps::BugInfo& bug = apps::BugCorpus()[GetParam()];
  EXPECT_TRUE(Detects(apps::MakeBugApp(bug))) << "pruned build missed the bug";
  EXPECT_TRUE(Detects(apps::MakeBugApp(bug, {.prune = false}))) << "unpruned build missed the bug";
}

std::string FastBugName(const ::testing::TestParamInfo<std::size_t>& info) {
  const apps::BugInfo& bug = apps::BugCorpus()[info.param];
  return bug.app + "_" + bug.id;
}

// Indices into BugCorpus(): NSS 329072 (gate 63) and NSS 270689 (gate 127),
// the two fastest-manifesting seeds.
INSTANTIATE_TEST_SUITE_P(FastBugs, FastBugDetectionTest, ::testing::Values(4u, 6u), FastBugName);

// Correlated-variable inference (analysis/correlation.h) must be a strict
// extension: on the single-variable corpus — where nothing fuses — the pass
// is a no-op all the way down to the instruction stream, so verdicts, AR
// tables and detection behavior are untouched by the --no-correlate knob.
TEST(CorrelationSoundnessTest, SingleVariableCorpusIsUntouchedByCorrelation) {
  for (const apps::BugInfo& bug : apps::BugCorpus()) {
    SCOPED_TRACE(bug.app + " " + bug.id);
    const apps::App on = apps::MakeBugApp(bug);
    const apps::App off = apps::MakeBugApp(bug, {.correlate = false});

    EXPECT_FALSE(on.compiled->correlation.changed);
    EXPECT_EQ(on.compiled->correlation.fused_ars, 0u);
    EXPECT_EQ(on.compiled->correlation.synthesized_ars, 0u);

    EXPECT_EQ(on.compiled->num_ars, off.compiled->num_ars);
    EXPECT_EQ(on.workload.buggy_ars, off.workload.buggy_ars);
    EXPECT_EQ(on.workload.ars_watch_required, off.workload.ars_watch_required);
    EXPECT_EQ(on.workload.ars_lock_protected, off.workload.ars_lock_protected);
    EXPECT_EQ(on.workload.ars_no_remote_writer, off.workload.ars_no_remote_writer);
    ASSERT_EQ(on.compiled->ar_infos.size(), off.compiled->ar_infos.size());
    for (std::size_t i = 0; i < on.compiled->ar_infos.size(); ++i) {
      const ArDebugInfo& a = on.compiled->ar_infos[i];
      const ArDebugInfo& b = off.compiled->ar_infos[i];
      EXPECT_EQ(a.watch, b.watch);
      EXPECT_EQ(a.line, b.line);
      EXPECT_EQ(a.num_ends, b.num_ends);
      EXPECT_EQ(a.group, 0);
      EXPECT_FALSE(a.synthesized);
      (void)b;
    }
    // Identical instruction streams imply identical runs: the engines are
    // deterministic given the same program, workload and seed.
    EXPECT_EQ(DisassembleProgram(on.workload.program),
              DisassembleProgram(off.workload.program));
  }
}

// The four MUVI-style bugs exist only as multi-variable regions: the fusion
// pass arms a watch slot for the aux variable and widens the host's watch,
// while the single-variable build leaves the pair invisible.
TEST(CorrelationSoundnessTest, MultiVarCorpusFusesAndArmsTheAuxVariable) {
  for (const apps::BugInfo& bug : apps::MultiVarBugCorpus()) {
    SCOPED_TRACE(bug.app + " " + bug.id);
    ASSERT_TRUE(bug.multivar());
    const apps::App fused = apps::MakeBugApp(bug);
    const apps::App unfused = apps::MakeBugApp(bug, {.correlate = false});

    EXPECT_TRUE(fused.compiled->correlation.changed);
    EXPECT_GE(fused.compiled->correlation.sets.size(), 1u);

    // With correlation: the aux variable is armed as a group member — at
    // least one of its ARs belongs to a fused multi-variable region, and
    // they all count as buggy and survive pruning.
    const auto aux_ars = apps::ArsOnVariable(*fused.compiled, bug.aux_variable());
    ASSERT_FALSE(aux_ars.empty());
    bool grouped = false;
    for (const ArId ar : aux_ars) {
      EXPECT_TRUE(fused.workload.buggy_ars.contains(ar));
      EXPECT_FALSE(fused.compiled->conflict.pruned.contains(ar))
          << "buggy AR " << ar << " on the aux variable was pruned";
      grouped |= fused.compiled->ar_infos[ar - 1].group > 0;
    }
    EXPECT_TRUE(grouped);
    // Without correlation every AR stays single-variable: no groups, no
    // joint masks, no synthesized slots. Whatever ARs the aux variable gets
    // from its own access pairs watch only writes, which the remote reader
    // never performs — the differential detection test below proves it.
    EXPECT_FALSE(unfused.compiled->correlation.changed);
    for (const ArDebugInfo& info : unfused.compiled->ar_infos) {
      EXPECT_EQ(info.group, 0);
      EXPECT_EQ(info.joint_types, WatchType::kNone);
      EXPECT_FALSE(info.synthesized);
    }
  }
}

// Differential detection: the fused build convicts each multi-variable bug;
// the single-variable build cannot even in principle (the remote side only
// reads the variables that carry ARs, so no single-variable watch traps).
class MultiVarBugDetectionTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MultiVarBugDetectionTest, DetectedOnlyWithCorrelation) {
  const apps::BugInfo& bug = apps::MultiVarBugCorpus()[GetParam()];
  const apps::App fused = apps::MakeBugApp(bug);
  EXPECT_TRUE(DetectsWithin(fused, 200'000'000)) << "fused build missed the bug";
  const apps::App unfused = apps::MakeBugApp(bug, {.correlate = false});
  EXPECT_FALSE(DetectsWithin(unfused, 60'000'000))
      << "single-variable build convicted a bug its watch types cannot see";
}

std::string MultiVarBugName(const ::testing::TestParamInfo<std::size_t>& info) {
  const apps::BugInfo& bug = apps::MultiVarBugCorpus()[info.param];
  return bug.app + "_" + bug.id;
}

INSTANTIATE_TEST_SUITE_P(MultiVarBugs, MultiVarBugDetectionTest,
                         ::testing::Values(0u, 1u, 2u, 3u), MultiVarBugName);

}  // namespace
}  // namespace kivati
