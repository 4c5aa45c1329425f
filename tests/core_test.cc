// Tests of the public API layer: Engine assembly and the whitelist trainer.
#include <gtest/gtest.h>

#include "compile/compiler.h"
#include "core/engine.h"
#include "core/trainer.h"

namespace kivati {
namespace {

// A workload with one benign race (on `osd`) and one "real bug" (on
// `ledger`) distinguished through buggy_ars.
Workload MakeTrainingWorkload(std::unordered_set<ArId>* osd_ars_out = nullptr) {
  static const char* kSource = R"(
    int osd;
    int ledger;

    void benign_update(int v) {
      int t = osd;
      for (int k = 0; k < 200; k = k + 1) { t = t + 0; }
      osd = t + v;
    }

    void ledger_update(int v) {
      int t = ledger;
      for (int k = 0; k < 200; k = k + 1) { t = t + 0; }
      ledger = t + v;
    }

    void worker(int id) {
      for (int i = 0; i < 150; i = i + 1) {
        benign_update(1);
        ledger_update(1);
        int burn = i;
        for (int k = 0; k < 50; k = k + 1) { burn = burn * 3 + 1; }
      }
    }
    void interferer(int id) {
      for (int i = 0; i < 400; i = i + 1) {
        osd = 0;
        ledger = 0;
        int burn = i;
        for (int k = 0; k < 120; k = k + 1) { burn = burn * 5 + 1; }
      }
    }
  )";
  const CompiledProgram compiled = CompileSource(kSource);
  Workload workload;
  workload.name = "training-workload";
  workload.program = compiled.program;
  workload.threads = {{"worker", 0}, {"interferer", 1}};
  auto initializers = compiled.initializers;
  workload.init = [initializers](AddressSpace& memory) {
    for (const auto& [addr, value] : initializers) {
      memory.Write(addr, 8, value);
    }
  };
  for (const ArDebugInfo& info : compiled.ar_infos) {
    if (info.variable == "ledger") {
      workload.buggy_ars.insert(info.id);
    }
    if (info.variable == "osd" && osd_ars_out != nullptr) {
      osd_ars_out->insert(info.id);
    }
  }
  return workload;
}

TEST(EngineTest, VanillaRunCompletes) {
  const Workload workload = MakeTrainingWorkload();
  EngineOptions options;
  options.machine.num_cores = 2;
  Engine engine(workload, options);
  const RunResult result = engine.Run();
  EXPECT_TRUE(result.all_done);
  EXPECT_EQ(engine.runtime(), nullptr);
  EXPECT_TRUE(engine.trace().violations().empty());
}

TEST(EngineTest, ProtectedRunDetectsBothRaces) {
  const Workload workload = MakeTrainingWorkload();
  EngineOptions options;
  options.machine.num_cores = 2;
  options.kivati = KivatiConfig{};
  Engine engine(workload, options);
  ASSERT_TRUE(engine.Run().all_done);
  ASSERT_NE(engine.runtime(), nullptr);
  EXPECT_GE(engine.trace().UniqueViolatingArs(), 2u);
  // The benign ones are FPs; the ledger ones are not.
  EXPECT_GE(engine.trace().UniqueViolatingArsExcluding(workload.buggy_ars), 1u);
  EXPECT_LT(engine.trace().UniqueViolatingArsExcluding(workload.buggy_ars),
            engine.trace().UniqueViolatingArs());
}

TEST(EngineTest, RespectsExplicitCycleBudget) {
  const Workload workload = MakeTrainingWorkload();
  EngineOptions options;
  Engine engine(workload, options);
  const RunResult result = engine.Run(Cycles{1000});
  EXPECT_TRUE(result.hit_limit);
}

TEST(TrainerTest, FalsePositivesDecayAndBugsStayOut) {
  const Workload workload = MakeTrainingWorkload();
  TrainingOptions options;
  options.machine.num_cores = 2;
  options.machine.seed = 11;
  options.kivati = KivatiConfig{};
  options.iterations = 5;
  const TrainingResult result = Train(workload, options);

  ASSERT_EQ(result.false_positives.size(), 5u);
  // Iteration 1 finds the benign region(s); later iterations find nothing
  // new once they are whitelisted.
  EXPECT_GE(result.false_positives[0], 1u);
  EXPECT_EQ(result.false_positives[4], 0u);
  // The trainer must never whitelist the known-buggy regions.
  for (const ArId ar : workload.buggy_ars) {
    EXPECT_FALSE(result.whitelist.Contains(ar)) << "bug AR " << ar << " was whitelisted";
  }
}

TEST(TrainerTest, TrainedWhitelistSilencesBenignButKeepsBugs) {
  std::unordered_set<ArId> osd_ars;
  const Workload workload = MakeTrainingWorkload(&osd_ars);
  TrainingOptions training;
  training.machine.num_cores = 2;
  training.machine.seed = 11;
  training.kivati = KivatiConfig{};
  training.iterations = 5;
  const TrainingResult trained = Train(workload, training);

  EngineOptions options;
  options.machine.num_cores = 2;
  options.machine.seed = 123;  // fresh interleavings
  KivatiConfig config;
  config.whitelist = trained.whitelist.ids();
  options.kivati = config;
  Engine engine(workload, options);
  ASSERT_TRUE(engine.Run().all_done);
  for (const ViolationRecord& v : engine.trace().violations()) {
    EXPECT_FALSE(osd_ars.contains(v.ar_id)) << "whitelisted benign AR still reported";
  }
  // Real-bug violations are still detected and prevented.
  std::size_t bug_violations = 0;
  for (const ViolationRecord& v : engine.trace().violations()) {
    bug_violations += workload.buggy_ars.contains(v.ar_id) ? 1 : 0;
  }
  EXPECT_GE(bug_violations, 1u);
}

TEST(EngineTest, SyncVarWhitelistOption) {
  // Keep the sync-var ARs annotated: the whitelist option under test is
  // only observable when the conflict analysis hasn't already pruned them.
  CompileOptions no_prune;
  no_prune.frontend.prune = false;
  const CompiledProgram compiled = CompileSource(R"(
    sync int m;
    int data;
    void worker(int id) {
      for (int i = 0; i < 30; i = i + 1) {
        lock(m);
        data = data + 1;
        unlock(m);
      }
    }
  )",
                                                 no_prune);
  Workload workload;
  workload.name = "syncvar";
  workload.program = compiled.program;
  workload.threads = {{"worker", 0}, {"worker", 1}};
  workload.sync_var_ars = compiled.sync_ars;

  auto crossings = [&](bool whitelist_sync) {
    EngineOptions options;
    options.kivati = KivatiConfig{};
    options.whitelist_sync_vars = whitelist_sync;
    Engine engine(workload, options);
    EXPECT_TRUE(engine.Run().all_done);
    return engine.trace().stats().kernel_entries_total();
  };
  EXPECT_LT(crossings(true), crossings(false));
}

}  // namespace
}  // namespace kivati
