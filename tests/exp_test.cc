// Tests of the src/exp experiment subsystem: strict option parsing, RunSpec
// resolution, SpecGrid expansion, RunRecord JSON, and — the load-bearing
// property — that the parallel ExperimentRunner produces byte-identical
// results to a serial execution of the same spec list.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "apps/bugs.h"
#include "apps/common.h"
#include "exp/optparse.h"
#include "exp/run_record.h"
#include "exp/run_spec.h"
#include "exp/runner.h"
#include "exp/spec_grid.h"
#include "isa/disasm.h"

namespace kivati {
namespace exp {
namespace {

// --- optparse ---------------------------------------------------------------

TEST(OptparseTest, ParseU64Strict) {
  std::uint64_t value = 0;
  EXPECT_TRUE(ParseU64("42", &value));
  EXPECT_EQ(value, 42u);
  EXPECT_TRUE(ParseU64("0x10", &value));
  EXPECT_EQ(value, 16u);
  EXPECT_FALSE(ParseU64("", &value));
  EXPECT_FALSE(ParseU64("abc", &value));
  EXPECT_FALSE(ParseU64("12abc", &value));
  EXPECT_FALSE(ParseU64("-3", &value));
  EXPECT_FALSE(ParseU64(" 7", &value));
  EXPECT_FALSE(ParseU64("99999999999999999999999", &value));
}

TEST(OptparseTest, ParseI64AndF64Strict) {
  std::int64_t i = 0;
  EXPECT_TRUE(ParseI64("-3", &i));
  EXPECT_EQ(i, -3);
  EXPECT_FALSE(ParseI64("3.5", &i));
  double d = 0.0;
  EXPECT_TRUE(ParseF64("2.5", &d));
  EXPECT_DOUBLE_EQ(d, 2.5);
  EXPECT_FALSE(ParseF64("2.5x", &d));
  EXPECT_FALSE(ParseF64("", &d));
  // strtod accepts these; no option takes a non-finite value, and NaN would
  // slip past every range check.
  for (const char* text : {"nan", "NaN", "-nan", "inf", "-inf", "infinity", "1e999"}) {
    EXPECT_FALSE(ParseF64(text, &d)) << text;
  }
  EXPECT_DOUBLE_EQ(d, 2.5);
}

TEST(OptparseTest, ParseU64ListExpandsRanges) {
  std::vector<std::uint64_t> values;
  ASSERT_TRUE(ParseU64List("1,4..6,9", &values));
  EXPECT_EQ(values, (std::vector<std::uint64_t>{1, 4, 5, 6, 9}));
  EXPECT_FALSE(ParseU64List("1,,2", &values));
  EXPECT_FALSE(ParseU64List("5..2", &values));
  EXPECT_FALSE(ParseU64List("a..b", &values));
  EXPECT_FALSE(ParseU64List("", &values));
}

TEST(OptionTableTest, ParsesFlagsValuesAndEqualsSpelling) {
  bool flag = false;
  unsigned cores = 2;
  std::string path;
  OptionTable table;
  table.Flag("--flag", &flag, "a flag");
  table.Unsigned("--cores", &cores, "cores", 1, 64);
  table.String("--out", &path, "output");
  EXPECT_EQ(table.Parse({"--flag", "--cores=8", "--out", "x.json"}), "");
  EXPECT_TRUE(flag);
  EXPECT_EQ(cores, 8u);
  EXPECT_EQ(path, "x.json");
}

TEST(OptionTableTest, RejectsGarbageInsteadOfSilentZero) {
  unsigned cores = 2;
  int iterations = 8;
  OptionTable table;
  table.Unsigned("--cores", &cores, "cores", 1, 64);
  table.Int("--iterations", &iterations, "iterations", 1, 100);

  // The old strtoul/atoi paths accepted all of these.
  EXPECT_NE(table.Parse({"--cores", "abc"}), "");
  EXPECT_NE(table.Parse({"--cores", "0"}), "");
  EXPECT_NE(table.Parse({"--iterations", "-3"}), "");
  EXPECT_NE(table.Parse({"--bogus"}), "");
  EXPECT_NE(table.Parse({"--cores"}), "");
  // Failed parses must not clobber the targets.
  EXPECT_EQ(cores, 2u);
  EXPECT_EQ(iterations, 8);
}

// --- RunSpec / enums --------------------------------------------------------

TEST(RunSpecTest, PresetAndModeRoundTrip) {
  for (const auto preset : {OptimizationPreset::kBase, OptimizationPreset::kNullSyscall,
                            OptimizationPreset::kSyncVars, OptimizationPreset::kOptimized}) {
    OptimizationPreset parsed;
    ASSERT_TRUE(ParsePreset(ToString(preset), &parsed));
    EXPECT_EQ(parsed, preset);
  }
  for (const auto mode : {KivatiMode::kPrevention, KivatiMode::kBugFinding}) {
    KivatiMode parsed;
    ASSERT_TRUE(ParseMode(ToString(mode), &parsed));
    EXPECT_EQ(parsed, mode);
  }
  OptimizationPreset preset;
  EXPECT_FALSE(ParsePreset("turbo", &preset));
}

TEST(RunSpecTest, RequiresExactlyOneWorkloadSource) {
  RunSpec spec;
  EXPECT_THROW(ResolveApp(spec), std::runtime_error);
  spec.app = "nss";
  spec.source_path = "also.kv";
  EXPECT_THROW(ResolveApp(spec), std::runtime_error);
}

TEST(RunSpecTest, UnknownAppAndMissingFileThrow) {
  RunSpec spec;
  spec.app = "notanapp";
  EXPECT_THROW(ResolveApp(spec), std::runtime_error);
  RunSpec file_spec;
  file_spec.source_path = "/nonexistent/kivati/prog.kv";
  EXPECT_THROW(ResolveApp(file_spec), std::runtime_error);
}

TEST(RunSpecTest, SyncVarWhitelistFollowsPresetUnlessOverridden) {
  RunSpec spec;
  spec.preset = OptimizationPreset::kOptimized;
  EXPECT_TRUE(WhitelistsSyncVars(spec));
  spec.preset = OptimizationPreset::kBase;
  EXPECT_FALSE(WhitelistsSyncVars(spec));
  spec.whitelist_sync_vars = true;
  EXPECT_TRUE(WhitelistsSyncVars(spec));
}

TEST(RunSpecTest, ExecuteCapturesErrorsInsteadOfThrowing) {
  RunSpec spec;
  spec.app = "notanapp";
  const RunRecord record = Execute(spec);
  EXPECT_FALSE(record.error.empty());
  const std::string json = ToJson(record);
  EXPECT_NE(json.find("\"error\""), std::string::npos);
}

TEST(RunSpecTest, CorpusBugCompilesWithTheSpecsAnnotatorConfiguration) {
  RunSpec spec;
  spec.bug = "NSS-329072";
  spec.scale.frontend.annotator.interprocedural = true;
  spec.scale.frontend.annotator.precise_aliasing = true;
  const apps::BugInfo& bug = *FindCorpusBug(spec.bug);
  const std::shared_ptr<const apps::App> resolved = ResolveApp(spec);
  const apps::App built = apps::MakeBugApp(bug, spec.scale.frontend);
  EXPECT_EQ(resolved->compiled->num_ars, built.compiled->num_ars);
  EXPECT_EQ(DisassembleProgram(resolved->workload.program),
            DisassembleProgram(built.workload.program));
  // The extensions give this bug one more region, so the checks above see
  // whether ResolveApp applied them.
  EXPECT_GT(built.compiled->num_ars, apps::MakeBugApp(bug).compiled->num_ars);
}

// --- SpecGrid ---------------------------------------------------------------

TEST(SpecGridTest, ExpandsAllDimensions) {
  SpecGrid grid;
  grid.apps = {"nss", "vlc"};
  grid.seeds = {1, 2, 3};
  grid.presets = {OptimizationPreset::kBase, OptimizationPreset::kOptimized};
  grid.modes = {KivatiMode::kPrevention, KivatiMode::kBugFinding};
  grid.watchpoints = {4, 8};
  EXPECT_EQ(grid.size(), 2u * 3u * 2u * 2u * 2u);
  const std::vector<RunSpec> specs = grid.Expand();
  ASSERT_EQ(specs.size(), grid.size());
  EXPECT_EQ(specs.front().app, "nss");
  EXPECT_EQ(specs.front().machine.watchpoints_per_core, 4u);
  EXPECT_EQ(specs.back().app, "vlc");
  EXPECT_EQ(specs.back().machine.seed, 3u);
  EXPECT_EQ(specs.back().mode, KivatiMode::kBugFinding);
  // Labels are unique across the grid.
  std::set<std::string> labels;
  for (const RunSpec& spec : specs) {
    labels.insert(spec.label);
  }
  EXPECT_EQ(labels.size(), specs.size());
}

TEST(SpecGridTest, EmptyDimensionsKeepBaseValues) {
  SpecGrid grid;
  grid.base.app = "tpcw";
  grid.base.machine.seed = 77;
  grid.base.preset = OptimizationPreset::kSyncVars;
  const std::vector<RunSpec> specs = grid.Expand();
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0].app, "tpcw");
  EXPECT_EQ(specs[0].machine.seed, 77u);
  EXPECT_EQ(specs[0].preset, OptimizationPreset::kSyncVars);
}

TEST(SpecGridTest, VanillaBaselinePerCell) {
  SpecGrid grid;
  grid.apps = {"nss"};
  grid.seeds = {1, 2};
  grid.presets = {OptimizationPreset::kBase, OptimizationPreset::kOptimized};
  grid.include_vanilla = true;
  const std::vector<RunSpec> specs = grid.Expand();
  ASSERT_EQ(specs.size(), 2u * (2u + 1u));
  EXPECT_TRUE(specs[0].vanilla);
  EXPECT_FALSE(specs[1].vanilla);
  EXPECT_FALSE(specs[2].vanilla);
  EXPECT_TRUE(specs[3].vanilla);
}

// --- RunRecord JSON ---------------------------------------------------------

TEST(RunRecordTest, JsonIncludesSchemaFieldsAndOmitsWallClockOnRequest) {
  RunRecord record;
  record.label = "x/optimized/prevention/c2w4/s1";
  record.app = "x";
  record.cores = 2;
  record.watchpoints = 4;
  record.seed = 1;
  record.cycles = 123;
  record.wall_ms = 7.5;
  const std::string with = ToJson(record, /*include_wall_clock=*/true);
  EXPECT_NE(with.find("\"wall_ms\""), std::string::npos);
  EXPECT_NE(with.find("\"cycles\":123"), std::string::npos);
  EXPECT_NE(with.find("\"stats\""), std::string::npos);
  const std::string without = ToJson(record, /*include_wall_clock=*/false);
  EXPECT_EQ(without.find("\"wall_ms\""), std::string::npos);
}

TEST(RunRecordTest, JsonEscapesStrings) {
  RunRecord record;
  record.label = "a\"b\\c";
  const std::string json = ToJson(record);
  EXPECT_NE(json.find("a\\\"b\\\\c"), std::string::npos);
}

// --- Parallel determinism ---------------------------------------------------

// A small contended program: two racer threads on an unprotected counter
// plus a lock-protected path, enough to exercise detection and suspension.
std::shared_ptr<const apps::App> TinyApp() {
  static const char* kSource = R"(
    int counter;
    sync int m;
    void racer(int id) {
      for (int i = 0; i < 30; i = i + 1) {
        int t = counter;
        for (int k = 0; k < 80; k = k + 1) { t = t + 0; }
        counter = t + 1;
        lock(m);
        counter = counter + 1;
        unlock(m);
      }
    }
  )";
  return std::make_shared<const apps::App>(
      apps::AssembleApp("tiny", kSource, "racer", 2, {}, 50'000'000));
}

TEST(RunnerTest, ParallelExecutionMatchesSerialByteForByte) {
  SpecGrid grid;
  grid.base.prebuilt = TinyApp();
  grid.seeds = {1, 2, 3, 4, 5, 6};
  grid.presets = {OptimizationPreset::kBase, OptimizationPreset::kOptimized};
  grid.modes = {KivatiMode::kPrevention, KivatiMode::kBugFinding};
  grid.include_vanilla = true;
  const std::vector<RunSpec> specs = grid.Expand();
  ASSERT_EQ(specs.size(), 6u * (4u + 1u));

  RunnerOptions serial_options;
  serial_options.workers = 1;
  ExperimentRunner serial(serial_options);
  const std::vector<RunRecord> serial_records = serial.RunAll(specs);

  RunnerOptions parallel_options;
  parallel_options.workers = 4;
  ExperimentRunner parallel(parallel_options);
  const std::vector<RunRecord> parallel_records = parallel.RunAll(specs);

  // Byte-identical modulo wall-clock fields, which the serializer drops.
  EXPECT_EQ(SweepReportJson(serial_records, 1, 0.0, /*include_wall_clock=*/false),
            SweepReportJson(parallel_records, 4, 0.0, /*include_wall_clock=*/false));
  for (const RunRecord& record : serial_records) {
    EXPECT_TRUE(record.error.empty()) << record.label << ": " << record.error;
  }
}

// The runner builds each registered app once per distinct scale, so specs
// that differ only in one LoadScale field, the annotator configuration
// included, must each run the app their own scale builds.
TEST(RunnerTest, AppCacheKeysOnTheWholeScale) {
  RunSpec base;
  base.app = "vlc";
  base.scale.iterations = 30;
  base.budget = 2'000'000;
  std::vector<RunSpec> specs(7, base);
  specs[1].scale.frontend.correlate = false;
  specs[2].scale.frontend.prune = false;
  specs[3].scale.frontend.annotator.interprocedural = true;
  specs[4].scale.frontend.annotator.precise_aliasing = true;
  specs[5].scale.workers = 2;
  specs[6].scale.iterations = 40;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].label = "vlc " + std::to_string(i);
  }

  RunnerOptions options;
  options.workers = 2;
  const std::vector<RunRecord> together = ExperimentRunner(options).RunAll(specs);
  std::vector<RunRecord> alone;
  for (const RunSpec& spec : specs) {
    alone.push_back(Execute(spec));
  }
  EXPECT_EQ(SweepReportJson(together, 2, 0.0, /*include_wall_clock=*/false),
            SweepReportJson(alone, 2, 0.0, /*include_wall_clock=*/false));
}

TEST(RunnerTest, UnlabelledAppSpecsAreLabelledAsExecuteLabelsThem) {
  // SpecGrid and the CLI always set labels; a hand-built spec may not.
  RunSpec base;
  base.app = "vlc";
  base.scale.iterations = 30;
  base.budget = 2'000'000;
  std::vector<RunSpec> specs(2, base);
  specs[1].preset = OptimizationPreset::kBase;

  RunnerOptions options;
  options.workers = 2;
  const std::vector<RunRecord> together = ExperimentRunner(options).RunAll(specs);
  std::vector<RunRecord> alone;
  for (const RunSpec& spec : specs) {
    alone.push_back(Execute(spec));
  }
  ASSERT_EQ(together.size(), 2u);
  EXPECT_EQ(together[0].label.rfind("vlc/", 0), 0u) << together[0].label;
  EXPECT_EQ(SweepReportJson(together, 2, 0.0, /*include_wall_clock=*/false),
            SweepReportJson(alone, 2, 0.0, /*include_wall_clock=*/false));
}

TEST(RunnerTest, RecordsComeBackInSpecOrder) {
  SpecGrid grid;
  grid.base.prebuilt = TinyApp();
  grid.seeds = {9, 10, 11};
  const std::vector<RunSpec> specs = grid.Expand();
  RunnerOptions options;
  options.workers = 3;
  std::size_t progress_calls = 0;
  options.progress = [&progress_calls](const RunRecord&, std::size_t, std::size_t) {
    ++progress_calls;
  };
  ExperimentRunner runner(options);
  const std::vector<RunRecord> records = runner.RunAll(specs);
  ASSERT_EQ(records.size(), specs.size());
  EXPECT_EQ(progress_calls, specs.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].label, specs[i].label);
    EXPECT_EQ(records[i].seed, specs[i].machine.seed);
  }
}

}  // namespace
}  // namespace exp
}  // namespace kivati
