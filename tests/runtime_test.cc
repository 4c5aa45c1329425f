// Tests of the runtime layer: whitelist handling (file format, merging,
// periodic updates) and the cost/statistics accounting of the annotation
// paths.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <utility>

#include "runtime/kivati_runtime.h"
#include "runtime/whitelist.h"
#include "tests/test_util.h"

namespace kivati {
namespace {

using testing::SingleCoreConfig;

TEST(WhitelistTest, ParseBasics) {
  const Whitelist wl = Whitelist::Parse("1\n2\n3\n");
  EXPECT_EQ(wl.size(), 3u);
  EXPECT_TRUE(wl.Contains(2));
  EXPECT_FALSE(wl.Contains(4));
}

TEST(WhitelistTest, ParseToleratesCommentsAndJunk) {
  const Whitelist wl = Whitelist::Parse(R"(# header comment
  17   # trailing comment

not-a-number
42
)");
  EXPECT_EQ(wl.size(), 2u);
  EXPECT_TRUE(wl.Contains(17));
  EXPECT_TRUE(wl.Contains(42));
}

TEST(WhitelistTest, SerializeRoundTrip) {
  Whitelist wl;
  wl.Add(5);
  wl.Add(1);
  wl.Add(99);
  const Whitelist parsed = Whitelist::Parse(wl.Serialize());
  EXPECT_EQ(parsed.size(), 3u);
  EXPECT_TRUE(parsed.Contains(5));
  EXPECT_TRUE(parsed.Contains(1));
  EXPECT_TRUE(parsed.Contains(99));
}

TEST(WhitelistTest, SerializeIsSorted) {
  Whitelist wl;
  wl.Add(30);
  wl.Add(10);
  wl.Add(20);
  const std::string text = wl.Serialize();
  EXPECT_LT(text.find("10"), text.find("20"));
  EXPECT_LT(text.find("20"), text.find("30"));
}

TEST(WhitelistTest, FileRoundTripAndMergeOnLoad) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "kivati_wl_test.txt").string();
  Whitelist wl;
  wl.Add(7);
  ASSERT_TRUE(wl.SaveToFile(path));

  // Load merges into the existing set (the paper re-reads the file
  // periodically so developers can push updates to running processes).
  Whitelist loaded;
  loaded.Add(3);
  ASSERT_TRUE(loaded.LoadFromFile(path));
  EXPECT_TRUE(loaded.Contains(3));
  EXPECT_TRUE(loaded.Contains(7));
  std::remove(path.c_str());
}

TEST(WhitelistTest, LoadMissingFileFails) {
  Whitelist wl;
  EXPECT_FALSE(wl.LoadFromFile("/nonexistent/kivati/whitelist"));
}

TEST(WhitelistTest, ParseRejectsMalformedTokens) {
  // std::stoul used to accept "-1" (wrapping to a huge id) and "12abc"
  // (silently truncating); both must be skipped whole.
  const Whitelist wl = Whitelist::Parse("-1\n12abc\n0x10\n7\n");
  EXPECT_EQ(wl.size(), 1u);
  EXPECT_TRUE(wl.Contains(7));
  EXPECT_FALSE(wl.Contains(12));
  EXPECT_FALSE(wl.Contains(static_cast<ArId>(-1)));
}

TEST(WhitelistTest, ReloadDropsIdsRemovedFromFile) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "kivati_wl_reload.txt").string();
  std::ofstream(path) << "1\n2\n";
  Whitelist wl;
  wl.Add(50);
  ASSERT_TRUE(wl.LoadFromFile(path));
  EXPECT_TRUE(wl.Contains(1));
  EXPECT_TRUE(wl.Contains(2));
  EXPECT_TRUE(wl.Contains(50));

  // Re-reading after the file shrank must drop the removed id (deletions
  // propagate to running processes) while programmatic ids survive.
  std::ofstream(path, std::ios::trunc) << "2\n";
  ASSERT_TRUE(wl.LoadFromFile(path));
  EXPECT_FALSE(wl.Contains(1));
  EXPECT_TRUE(wl.Contains(2));
  EXPECT_TRUE(wl.Contains(50));
  EXPECT_EQ(wl.size(), 2u);

  // A failed re-read leaves the previous contents intact.
  EXPECT_FALSE(wl.LoadFromFile(path + ".missing"));
  EXPECT_TRUE(wl.Contains(2));
  std::remove(path.c_str());
}

TEST(WhitelistTest, MergeAndRemove) {
  Whitelist a({1, 2});
  Whitelist b({2, 3});
  a.Merge(b);
  EXPECT_EQ(a.size(), 3u);
  a.Remove(2);
  EXPECT_FALSE(a.Contains(2));
  EXPECT_EQ(a.size(), 2u);
}

// --- Accounting --------------------------------------------------------------

Program AnnotatedLoop(int rounds) {
  ProgramBuilder b;
  b.BeginFunction("main");
  b.LoadImm(1, rounds);
  const auto loop = b.NewLabel();
  b.Bind(loop);
  b.BeginAtomic(1, MemOperand::Absolute(kDataBase), 8, WatchType::kWrite, AccessType::kRead);
  b.Load(2, MemOperand::Absolute(kDataBase));
  b.Load(2, MemOperand::Absolute(kDataBase));
  b.EndAtomic(1, AccessType::kRead);
  b.AddI(1, 1, -1);
  b.Bnz(1, loop);
  b.Halt();
  b.EndFunction();
  return b.Build();
}

TEST(RuntimeAccountingTest, BaseChargesCrossingPerAnnotation) {
  Machine m(AnnotatedLoop(10), SingleCoreConfig());
  KivatiConfig config;  // base: no optimizations
  KivatiRuntime runtime(m, config);
  m.SpawnThreadByName("main", 0);
  ASSERT_TRUE(m.Run(10'000'000).all_done);
  const RuntimeStats& stats = m.trace().stats();
  EXPECT_EQ(stats.begin_atomic_calls, 10u);
  EXPECT_EQ(stats.end_atomic_calls, 10u);
  // Every begin and end crossed into the kernel.
  EXPECT_EQ(stats.kernel_entries_begin, 10u);
  EXPECT_EQ(stats.kernel_entries_end, 10u);
  EXPECT_EQ(stats.fast_path_begin, 0u);
  EXPECT_EQ(stats.fast_path_end, 0u);
}

TEST(RuntimeAccountingTest, OptimizedUsesFastPaths) {
  Machine m(AnnotatedLoop(10), SingleCoreConfig());
  KivatiConfig config;
  config.opt_fast_path = true;
  config.opt_lazy_free = true;
  KivatiRuntime runtime(m, config);
  m.SpawnThreadByName("main", 0);
  ASSERT_TRUE(m.Run(10'000'000).all_done);
  const RuntimeStats& stats = m.trace().stats();
  // After the first arm, begins revive the lazily-freed register and ends
  // mark it stale — all in user space.
  EXPECT_EQ(stats.kernel_entries_begin, 1u);
  EXPECT_EQ(stats.fast_path_begin, 9u);
  EXPECT_EQ(stats.fast_path_end, 10u);
}

TEST(RuntimeAccountingTest, OptimizedRunsFasterThanBase) {
  auto run = [](bool optimized) {
    Machine m(AnnotatedLoop(200), SingleCoreConfig());
    KivatiConfig config;
    config.opt_fast_path = optimized;
    config.opt_lazy_free = optimized;
    KivatiRuntime runtime(m, config);
    m.SpawnThreadByName("main", 0);
    return m.Run(100'000'000).cycles;
  };
  EXPECT_LT(run(true), run(false));
}

// The per-annotation saving behind Table 3, in virtual cycles on the
// default one-core machine: 2000 rounds of one read-read AR over one
// address, 4000 annotations. The base runtime enters the kernel at every
// begin and end (124.8 cycles per annotation); the optimized one revives
// the lazily freed watchpoint and marks it stale in user space (11.2).
TEST(RuntimeAccountingTest, CyclesPerAnnotationOnBaseAndFastPath) {
  const auto run = [](bool optimized) {
    MachineConfig machine;
    machine.num_cores = 1;
    Machine m(AnnotatedLoop(2000), machine);
    KivatiConfig config;
    config.opt_fast_path = optimized;
    config.opt_lazy_free = optimized;
    KivatiRuntime runtime(m, config);
    m.SpawnThreadByName("main", 0);
    const RunResult result = m.Run(100'000'000);
    EXPECT_TRUE(result.all_done);
    const RuntimeStats& stats = m.trace().stats();
    return std::make_pair(result.cycles, stats.begin_atomic_calls + stats.end_atomic_calls);
  };
  EXPECT_EQ(run(false), std::make_pair(Cycles{499'322}, std::uint64_t{4000}));
  EXPECT_EQ(run(true), std::make_pair(Cycles{44'842}, std::uint64_t{4000}));
}

TEST(RuntimeAccountingTest, WhitelistSkipsAllWork) {
  Machine m(AnnotatedLoop(10), SingleCoreConfig());
  KivatiConfig config;
  config.whitelist.insert(1);
  KivatiRuntime runtime(m, config);
  m.SpawnThreadByName("main", 0);
  ASSERT_TRUE(m.Run(10'000'000).all_done);
  const RuntimeStats& stats = m.trace().stats();
  // One whitelisted AR *execution* (begin/end pair) counts once.
  EXPECT_EQ(stats.ars_whitelisted, 10u);
  EXPECT_EQ(stats.kernel_entries_total(), 0u);
  EXPECT_EQ(stats.ars_entered, 0u);
}

TEST(RuntimeAccountingTest, RuntimeWhitelistIndependentOfConfigCopy) {
  // The runtime's live whitelist is consulted per call; growing it after
  // construction (as training does between iterations via a new runtime, or
  // a file re-read would at run time) takes effect.
  Machine m(AnnotatedLoop(10), SingleCoreConfig());
  KivatiConfig config;
  KivatiRuntime runtime(m, config);
  runtime.whitelist().Add(1);
  m.SpawnThreadByName("main", 0);
  ASSERT_TRUE(m.Run(10'000'000).all_done);
  EXPECT_EQ(m.trace().stats().ars_whitelisted, 10u);
}

TEST(RuntimeAccountingTest, PeriodicRereadPropagatesDeletions) {
  // A long-running process must notice ids *removed* from the whitelist
  // file, not only additions: the AR is whitelisted at start, the file is
  // emptied underneath the run, and the periodic re-read re-enables
  // monitoring.
  const std::string path =
      (std::filesystem::temp_directory_path() / "kivati_wl_reread.txt").string();
  std::ofstream(path) << "1\n";
  Machine m(AnnotatedLoop(500), SingleCoreConfig());
  KivatiConfig config;
  config.whitelist_path = path;
  config.whitelist_reread_ms = 0.1;  // 500 cycles
  KivatiRuntime runtime(m, config);
  ASSERT_TRUE(runtime.whitelist().Contains(1));
  std::ofstream(path, std::ios::trunc) << "# emptied\n";
  m.SpawnThreadByName("main", 0);
  ASSERT_TRUE(m.Run(100'000'000).all_done);
  const RuntimeStats& stats = m.trace().stats();
  // Some early iterations hit the whitelist, the rest were monitored.
  EXPECT_GT(stats.ars_whitelisted, 0u);
  EXPECT_GT(stats.ars_entered, 0u);
  EXPECT_LT(stats.ars_whitelisted, stats.begin_atomic_calls);
  std::remove(path.c_str());
}

TEST(RuntimeAccountingTest, ClearArCrossingsCountedSeparately) {
  // clear_ar crossings used to be folded into the end counters,
  // misattributing Table 4's breakdown.
  ProgramBuilder b;
  b.BeginFunction("main");
  b.BeginAtomic(1, MemOperand::Absolute(kDataBase), 8, WatchType::kWrite, AccessType::kRead);
  b.Load(2, MemOperand::Absolute(kDataBase));
  b.ClearAr();
  b.Halt();
  b.EndFunction();
  Machine m(b.Build(), SingleCoreConfig());
  KivatiConfig config;  // base: every annotation crosses
  KivatiRuntime runtime(m, config);
  m.SpawnThreadByName("main", 0);
  ASSERT_TRUE(m.Run(10'000'000).all_done);
  const RuntimeStats& stats = m.trace().stats();
  EXPECT_EQ(stats.clear_ar_calls, 1u);
  EXPECT_EQ(stats.kernel_entries_clear, 1u);
  EXPECT_EQ(stats.kernel_entries_end, 0u);
  EXPECT_EQ(stats.fast_path_end, 0u);
  EXPECT_EQ(stats.kernel_entries_total(),
            stats.kernel_entries_begin + stats.kernel_entries_clear);
}

}  // namespace
}  // namespace kivati
