// Property-based tests: randomly generated mini-C programs are pushed
// through the full pipeline (parse -> annotate -> compile -> simulate under
// several Kivati configurations) and system-level invariants are checked:
//
//   P1  the protected machine always terminates (suspension timeouts bound
//       every delay Kivati introduces — "never introduces new
//       synchronization errors", §2.1);
//   P2  single-threaded executions are semantically transparent: final
//       global state matches the vanilla run exactly (the undo engine and
//       annotations must not perturb program semantics);
//   P3  every reported violation is non-serializable — one of Figure 2's
//       four single-variable interleavings, or the joint rule on a fused
//       multi-variable region (analysis/correlation.h: a remote write with
//       a member read in the region, or a remote read with a member write)
//       — carries valid debug info, and prevented <= detected;
//   P4  whitelisting every AR yields zero reports and zero annotation
//       crossings;
//   P5  runs are deterministic for a fixed seed.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "compile/compiler.h"
#include "core/engine.h"
#include "tests/program_generator.h"
#include "trace/histogram.h"

namespace kivati {
namespace {

struct RunOutcome {
  bool completed = false;
  std::vector<std::uint64_t> global_values;
  Cycles cycles = 0;
  RuntimeStats stats;
  std::vector<ViolationRecord> violations;
};

RunOutcome RunProgram(const CompiledProgram& compiled, int threads,
                      const std::optional<KivatiConfig>& kivati, std::uint64_t machine_seed) {
  Workload workload;
  workload.name = "fuzz";
  workload.program = compiled.program;
  for (int t = 0; t < threads; ++t) {
    workload.threads.emplace_back("worker", static_cast<std::uint64_t>(t));
  }
  workload.init = [&compiled](AddressSpace& memory) { compiled.InitMemory(memory); };

  EngineOptions options;
  options.machine.num_cores = 2;
  options.machine.policy = SchedPolicy::kRandom;
  options.machine.seed = machine_seed;
  options.kivati = kivati;

  Engine engine(workload, options);
  const RunResult result = engine.Run(300'000'000);

  RunOutcome outcome;
  outcome.completed = result.all_done;
  outcome.cycles = result.cycles;
  outcome.stats = engine.trace().stats();
  outcome.violations = engine.trace().violations();
  for (const auto& [name, addr] : compiled.global_addrs) {
    outcome.global_values.push_back(engine.machine().memory().Read(addr, 8));
  }
  return outcome;
}

class FuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzTest, PipelineInvariants) {
  const std::string source = testing::ProgramGenerator(GetParam()).Generate();
  SCOPED_TRACE("program:\n" + source);

  const CompiledProgram compiled = CompileSource(source);

  // P2: single-threaded transparency.
  {
    const RunOutcome vanilla = RunProgram(compiled, 1, std::nullopt, 7);
    ASSERT_TRUE(vanilla.completed);
    for (const bool optimized : {false, true}) {
      KivatiConfig config;
      config.opt_fast_path = optimized;
      config.opt_lazy_free = optimized;
      config.opt_local_disable = optimized;
      const RunOutcome protected_run = RunProgram(compiled, 1, config, 7);
      ASSERT_TRUE(protected_run.completed);
      EXPECT_EQ(protected_run.global_values, vanilla.global_values)
          << "single-threaded semantics perturbed (optimized=" << optimized << ")";
      EXPECT_TRUE(protected_run.violations.empty());
    }
  }

  // P1 + P3: multi-threaded protected runs terminate; reports well-formed.
  for (const bool optimized : {false, true}) {
    KivatiConfig config;
    config.opt_fast_path = optimized;
    config.opt_lazy_free = optimized;
    config.opt_local_disable = optimized;
    const RunOutcome run = RunProgram(compiled, 3, config, 13);
    EXPECT_TRUE(run.completed) << "protected run did not terminate";
    for (const ViolationRecord& v : run.violations) {
      ASSERT_GE(v.ar_id, 1u);
      ASSERT_LE(v.ar_id, compiled.num_ars);
      // Single-variable Figure-2 rule, or the joint rule when the AR is a
      // fused multi-variable region (mirrors the kernel's ArNonSerializable).
      const WatchType joint = compiled.ar_infos[v.ar_id - 1].joint_types;
      const bool joint_non_serializable =
          joint != WatchType::kNone &&
          (v.remote == AccessType::kWrite ? Matches(joint, AccessType::kRead)
                                          : Matches(joint, AccessType::kWrite));
      EXPECT_TRUE(NonSerializable(v.first, v.remote, v.second) || joint_non_serializable)
          << "reported violation is serializable: " << ToString(v);
      EXPECT_NE(v.local_thread, v.remote_thread);
      EXPECT_FALSE(compiled.ar_infos[v.ar_id - 1].variable.empty());
    }
    EXPECT_LE(run.stats.violations_prevented, run.stats.violations_detected);
    EXPECT_LE(run.stats.ars_missed, run.stats.ars_entered);
    EXPECT_LE(run.stats.fast_path_begin + run.stats.kernel_entries_begin,
              run.stats.begin_atomic_calls);
  }

  // P4: whitelisting everything silences Kivati entirely.
  {
    KivatiConfig config;
    for (ArId ar = 1; ar <= compiled.num_ars; ++ar) {
      config.whitelist.insert(ar);
    }
    const RunOutcome run = RunProgram(compiled, 3, config, 13);
    EXPECT_TRUE(run.completed);
    EXPECT_TRUE(run.violations.empty());
    EXPECT_EQ(run.stats.kernel_entries_begin, 0u);
    EXPECT_EQ(run.stats.watchpoint_traps, 0u);
  }

  // P5: determinism.
  {
    KivatiConfig config;
    const RunOutcome a = RunProgram(compiled, 3, config, 21);
    const RunOutcome b = RunProgram(compiled, 3, config, 21);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.global_values, b.global_values);
    EXPECT_EQ(a.violations.size(), b.violations.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest, ::testing::Range<std::uint64_t>(1, 41));

// P6: CycleHistogram::Percentile is a well-behaved quantile estimate — for
// any recorded multiset it is monotone non-decreasing in p and always lands
// inside [min, max]. Degenerate shapes (single value, single bucket, the
// saturated top bucket) report exactly or within the bucket's true bounds.
class HistogramPercentileTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HistogramPercentileTest, MonotoneAndBounded) {
  Rng rng(GetParam());
  CycleHistogram hist;
  const int n = static_cast<int>(rng.NextInRange(1, 2000));
  for (int i = 0; i < n; ++i) {
    // Span the full bucket range, including 0 and the saturated top bucket.
    const unsigned shift = static_cast<unsigned>(rng.NextInRange(0, 50));
    hist.Record(rng.NextBelow(2) == 0 ? rng.NextBelow(Cycles{1} << shift)
                                      : (Cycles{1} << shift) + rng.NextBelow(1000));
  }
  Cycles previous = 0;
  for (int step = 0; step <= 100; ++step) {
    const double p = static_cast<double>(step) / 100.0;
    const Cycles estimate = hist.Percentile(p);
    EXPECT_GE(estimate, hist.min()) << "p=" << p;
    EXPECT_LE(estimate, hist.max()) << "p=" << p;
    EXPECT_GE(estimate, previous) << "percentile not monotone at p=" << p;
    previous = estimate;
  }
  // Out-of-range p clamps instead of misbehaving.
  EXPECT_EQ(hist.Percentile(-0.5), hist.Percentile(0.0));
  EXPECT_EQ(hist.Percentile(2.0), hist.Percentile(1.0));
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistogramPercentileTest,
                         ::testing::Range<std::uint64_t>(1, 21));

TEST(HistogramPercentileTest, SingleValueReportsExactly) {
  for (const Cycles value : {Cycles{0}, Cycles{1}, Cycles{5}, Cycles{4095}, Cycles{1} << 42,
                             (Cycles{1} << 50) + 17}) {
    CycleHistogram hist;
    hist.Record(value);
    for (const double p : {0.0, 0.5, 0.99, 1.0}) {
      EXPECT_EQ(hist.Percentile(p), value) << "value=" << value << " p=" << p;
    }
  }
}

TEST(HistogramPercentileTest, SingleBucketStaysInsideBucketBounds) {
  CycleHistogram hist;
  for (Cycles v = 512; v < 1024; v += 17) {  // all in bucket [512, 1024)
    hist.Record(v);
  }
  for (const double p : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    const Cycles estimate = hist.Percentile(p);
    EXPECT_GE(estimate, hist.min());
    EXPECT_LE(estimate, hist.max());
  }
}

TEST(HistogramPercentileTest, SaturatedTopBucketClampsToObservedMax) {
  CycleHistogram hist;
  const Cycles huge = Cycles{1} << 60;  // far beyond the last finite bucket
  hist.Record(huge);
  hist.Record(huge + 12345);
  hist.Record(3);
  EXPECT_EQ(hist.Percentile(1.0), huge + 12345);
  EXPECT_LE(hist.Percentile(0.5), hist.max());
  EXPECT_GE(hist.Percentile(0.5), hist.min());
}

TEST(HistogramPercentileTest, EmptyHistogramReportsZero) {
  const CycleHistogram hist;
  EXPECT_EQ(hist.Percentile(0.5), 0u);
}

}  // namespace
}  // namespace kivati
