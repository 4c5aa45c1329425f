// Tests of the annotator precision extensions (paper §3.5/§6 future work):
// inter-procedural atomic regions and alias/element-precise pairing.
#include <gtest/gtest.h>

#include "analysis/atomic_regions.h"
#include "analysis/mir_builder.h"
#include "compile/compiler.h"
#include "lang/parser.h"
#include "runtime/kivati_runtime.h"
#include "tests/test_util.h"

namespace kivati {
namespace {

using testing::SingleCoreConfig;

ModuleAnnotations AnnotateSource(const std::string& source, const AnnotateOptions& options) {
  const MirModule module = BuildMir(Parse(source));
  return Annotate(module, options);
}

std::size_t TotalArs(const ModuleAnnotations& ann) { return ann.infos.size(); }

// --- Call summaries ----------------------------------------------------------

TEST(CallSummaryTest, DirectAndTransitiveAccesses) {
  const MirModule module = BuildMir(Parse(R"(
    int a;
    int b;
    void leaf(int x) { b = x; }
    void mid(int x) { leaf(x); int t = a; }
    void top(int x) { mid(x); }
  )"));
  const auto summaries = ComputeCallSummaries(module);
  // leaf: writes b.
  EXPECT_TRUE(summaries[0].globals.at(1).second);
  EXPECT_EQ(summaries[0].globals.count(0), 0u);
  // mid: reads a, writes b (via leaf).
  EXPECT_TRUE(summaries[1].globals.at(0).first);
  EXPECT_TRUE(summaries[1].globals.at(1).second);
  // top: everything transitively.
  EXPECT_TRUE(summaries[2].globals.at(0).first);
  EXPECT_TRUE(summaries[2].globals.at(1).second);
}

TEST(CallSummaryTest, RecursionReachesFixpoint) {
  const MirModule module = BuildMir(Parse(R"(
    int g;
    void even(int n) { if (n != 0) { odd(n - 1); } }
    void odd(int n) { g = n; if (n != 0) { even(n - 1); } }
  )"));
  const auto summaries = ComputeCallSummaries(module);
  EXPECT_TRUE(summaries[0].globals.at(0).second);  // even writes g via odd
  EXPECT_TRUE(summaries[1].globals.at(0).second);
}

// --- Inter-procedural atomic regions ------------------------------------------

constexpr const char* kInterprocSource = R"(
  int shared;
  int sink;
  void update(int v) { shared = v; }
  void caller(int id) {
    sink = shared;     // read
    update(id);        // the write happens inside the callee
  }
)";

TEST(InterprocTest, PairSpanningCallFoundOnlyWithExtension) {
  AnnotateOptions basic;
  AnnotateOptions inter;
  inter.interprocedural = true;
  // Basic analysis: the read in caller() and the write in update() never
  // pair (the paper's intra-procedural limitation).
  std::size_t caller_ars_basic = 0;
  {
    const ModuleAnnotations ann = AnnotateSource(kInterprocSource, basic);
    for (const ArDebugInfo& info : ann.infos) {
      caller_ars_basic += info.function == "caller" && info.variable == "shared" ? 1 : 0;
    }
  }
  EXPECT_EQ(caller_ars_basic, 0u);
  // Inter-procedural analysis: the call acts as a write to `shared`, so the
  // preceding read pairs with it.
  std::size_t caller_ars_inter = 0;
  {
    const ModuleAnnotations ann = AnnotateSource(kInterprocSource, inter);
    for (const ArDebugInfo& info : ann.infos) {
      caller_ars_inter += info.function == "caller" && info.variable == "shared" ? 1 : 0;
    }
  }
  EXPECT_GE(caller_ars_inter, 1u);
}

TEST(InterprocTest, CallSpanningViolationDetectedEndToEnd) {
  // The read..call(write) region in caller() can be violated by a remote
  // write; only the inter-procedural build catches it.
  const std::string source = R"(
    int shared;
    int sink;
    void update(int v) {
      int w = 0;
      for (int k = 0; k < 600; k = k + 1) { w = w + k; }
      shared = v;
    }
    void caller(int id) {
      sink = shared;
      update(id + 10);
    }
    void remote(int id) {
      for (int k = 0; k < 260; k = k + 1) { id = id + 0; }
      shared = 99;
    }
  )";
  auto violations = [&](bool interprocedural) {
    CompileOptions options;
    options.frontend.annotator.interprocedural = interprocedural;
    const CompiledProgram compiled = CompileSource(source, options);
    Machine m(compiled.program, SingleCoreConfig(1000));
    KivatiConfig config;
    KivatiRuntime runtime(m, config);
    m.SpawnThreadByName("caller", 0);
    m.SpawnThreadByName("remote", 1);
    EXPECT_TRUE(m.Run(20'000'000).all_done);
    return m.trace().violations().size();
  };
  EXPECT_EQ(violations(false), 0u);
  EXPECT_GE(violations(true), 1u);
}

TEST(InterprocTest, SingleThreadedSemanticsUnchanged) {
  for (const bool inter : {false, true}) {
    CompileOptions options;
    options.frontend.annotator.interprocedural = inter;
    const CompiledProgram compiled = CompileSource(R"(
      int shared;
      int out;
      void bump(int v) { shared = shared + v; }
      void main() {
        for (int i = 0; i < 10; i = i + 1) { bump(i); }
        out = shared;
      }
    )", options);
    Machine m(compiled.program, SingleCoreConfig());
    KivatiConfig config;
    config.opt_local_disable = true;  // exercise the call-site replica store
    KivatiRuntime runtime(m, config);
    m.SpawnThreadByName("main", 0);
    ASSERT_TRUE(m.Run(20'000'000).all_done);
    EXPECT_EQ(m.memory().Read(compiled.GlobalAddr("out"), 8), 45u) << "inter=" << inter;
  }
}

// --- Alias-precise pairing -----------------------------------------------------

TEST(AliasTest, CopiedPointersPairAcrossNames) {
  const char* source = R"(
    void f(int *p) {
      int *q;
      q = p;
      int t = *p;   // read via p
      *q = t + 1;   // write via q: same points-to class
    }
  )";
  AnnotateOptions basic;
  AnnotateOptions precise;
  precise.precise_aliasing = true;
  // Name-based pairing misses the pair (*p vs *q are different names).
  EXPECT_EQ(TotalArs(AnnotateSource(source, basic)), 0u);
  // Alias classes unify p and q.
  EXPECT_EQ(TotalArs(AnnotateSource(source, precise)), 1u);
}

TEST(AliasTest, ConstantIndexElementsGetSeparateIdentity) {
  const char* source = R"(
    int table[8];
    void f(int id) {
      int a = table[2];
      table[5] = a;     // different element: no pair under precise mode
      int b = table[2];
      table[2] = b + 1; // same element: pairs
    }
  )";
  AnnotateOptions basic;
  AnnotateOptions precise;
  precise.precise_aliasing = true;
  // Whole-array identity: every consecutive access pairs.
  const std::size_t coarse = TotalArs(AnnotateSource(source, basic));
  const std::size_t fine = TotalArs(AnnotateSource(source, precise));
  EXPECT_GT(coarse, fine);
  EXPECT_GE(fine, 1u);  // the table[2] read-then-write region survives
}

TEST(AliasTest, VariableIndicesStayWholeArray) {
  const char* source = R"(
    int table[8];
    void f(int i) {
      int a = table[i];
      table[i] = a + 1;
    }
  )";
  AnnotateOptions precise;
  precise.precise_aliasing = true;
  // Unknown indices still pair conservatively as the whole array.
  EXPECT_EQ(TotalArs(AnnotateSource(source, precise)), 1u);
}

TEST(AliasTest, PreciseModeNeverBreaksExecution) {
  CompileOptions options;
  options.frontend.annotator.precise_aliasing = true;
  options.frontend.annotator.interprocedural = true;
  const CompiledProgram compiled = CompileSource(R"(
    int table[4];
    int total;
    void add(int i) { table[i & 3] = table[i & 3] + 1; }
    void main() {
      for (int i = 0; i < 20; i = i + 1) { add(i); }
      total = table[0] + table[1] + table[2] + table[3];
    }
  )", options);
  Machine m(compiled.program, SingleCoreConfig());
  KivatiConfig config;
  config.opt_fast_path = true;
  config.opt_lazy_free = true;
  KivatiRuntime runtime(m, config);
  m.SpawnThreadByName("main", 0);
  ASSERT_TRUE(m.Run(20'000'000).all_done);
  EXPECT_EQ(m.memory().Read(compiled.GlobalAddr("total"), 8), 20u);
}

}  // namespace
}  // namespace kivati
