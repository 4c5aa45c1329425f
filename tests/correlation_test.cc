// Unit tests for the correlated-variable inference and multi-variable
// region fusion pass (analysis/correlation.h, docs/correlation.md).
#include <gtest/gtest.h>

#include <string>

#include "analysis/atomic_regions.h"
#include "analysis/conflict.h"
#include "analysis/correlation.h"
#include "analysis/mir.h"
#include "analysis/mir_builder.h"
#include "compile/compiler.h"
#include "lang/parser.h"

namespace kivati {
namespace {

MirModule Build(const std::string& source) { return BuildMir(Parse(source)); }

// Annotate + whole-module conflict analysis (sound two-thread fallback
// roots), then the correlation pass.
CorrelationReport Correlate(const MirModule& module, ModuleAnnotations& annotations) {
  const LockFacts locks(module);
  const ConflictReport conflict = AnalyzeConflicts(module, annotations, locks, {});
  return CorrelateAndFuse(module, annotations, conflict, locks);
}

const FunctionAnnotations& AnnotationsFor(const MirModule& m, const ModuleAnnotations& ann,
                                          const std::string& name) {
  for (std::size_t i = 0; i < m.functions.size(); ++i) {
    if (m.functions[i].name == name) {
      return ann.functions[i];
    }
  }
  static const FunctionAnnotations kEmpty;
  ADD_FAILURE() << "no function " << name;
  return kEmpty;
}

const FunctionAr* ArOn(const MirModule& m, const FunctionAnnotations& fa,
                       const std::string& variable) {
  for (const FunctionAr& ar : fa.ars) {
    if (ar.var.space == VarRef::Space::kGlobal &&
        m.globals[static_cast<std::size_t>(ar.var.index)].name == variable) {
      return &ar;
    }
  }
  return nullptr;
}

// Two functions update a len/buf pair in one release-point-free window:
// the canonical MUVI-style access-together set with support 2.
constexpr char kPairSource[] = R"(
int len;
int buf;
void writer_a(int x) {
  int t = len;
  buf = x;
  len = t + 1;
}
void writer_b(int x) {
  int t = len;
  buf = x;
  len = t + 1;
}
)";

TEST(CorrelationTest, CrossFunctionPairFormsASetAndFuses) {
  const MirModule m = Build(kPairSource);
  ModuleAnnotations ann = Annotate(m);
  ASSERT_EQ(ann.infos.size(), 2u);  // one R..W host AR on len per function

  const CorrelationReport report = Correlate(m, ann);

  ASSERT_EQ(report.sets.size(), 1u);
  const CorrelatedSet& set = report.sets[0];
  EXPECT_EQ(set.id, 1);
  ASSERT_EQ(set.member_names.size(), 2u);
  EXPECT_EQ(set.member_names[0], "len");
  EXPECT_EQ(set.member_names[1], "buf");
  EXPECT_EQ(set.support, 2);
  ASSERT_EQ(set.pairs.size(), 1u);
  EXPECT_EQ(set.pairs[0].a_name, "len");
  EXPECT_EQ(set.pairs[0].b_name, "buf");
  EXPECT_EQ(set.pairs[0].sites.size(), 2u);  // one co-access window per function

  EXPECT_TRUE(report.changed);
  EXPECT_EQ(report.fused_ars, 2u);        // the len host AR in each function
  EXPECT_EQ(report.synthesized_ars, 2u);  // a buf watch slot in each function
  EXPECT_EQ(ann.infos.size(), 4u);
}

TEST(CorrelationTest, FusionExtendsHostAndSynthesizesPartner) {
  const MirModule m = Build(kPairSource);
  ModuleAnnotations ann = Annotate(m);
  Correlate(m, ann);

  const FunctionAnnotations& fa = AnnotationsFor(m, ann, "writer_a");
  const FunctionAr* host = ArOn(m, fa, "len");
  ASSERT_NE(host, nullptr);
  EXPECT_EQ(host->group, 1);
  EXPECT_FALSE(host->synthesized);
  // buf only writes inside the region, so a remote *read* of len now also
  // breaks serializability: R..W's watch W widens to RW.
  EXPECT_EQ(host->joint_types, WatchType::kWrite);
  EXPECT_EQ(host->watch, WatchType::kReadWrite);
  // len's own store is the region's last access; the boundary end the
  // annotator already placed there survives unchanged.
  ASSERT_EQ(host->ends.size(), 1u);
  EXPECT_EQ(host->ends[0].second, AccessType::kWrite);

  const FunctionAr* partner = ArOn(m, fa, "buf");
  ASSERT_NE(partner, nullptr);
  EXPECT_TRUE(partner->synthesized);
  EXPECT_EQ(partner->group, 1);
  EXPECT_EQ(partner->joint_types, WatchType::kReadWrite);  // len reads and writes
  EXPECT_EQ(partner->watch, WatchType::kReadWrite);
  EXPECT_TRUE(partner->needs_replica);  // first access is a write
  ASSERT_EQ(partner->ends.size(), 1u);
  EXPECT_EQ(partner->ends[0].first, host->ends[0].first);  // shared region end

  const ArDebugInfo* info = ann.InfoFor(partner->id);
  ASSERT_NE(info, nullptr);
  EXPECT_TRUE(info->synthesized);
  EXPECT_EQ(info->variable, "buf");
  ASSERT_EQ(info->correlated.size(), 1u);
  EXPECT_EQ(info->correlated[0], "len");
}

TEST(CorrelationTest, SingleFunctionPairIsRejectedForLowSupport) {
  const MirModule m = Build(R"(
    int a;
    int b;
    void solo(int x) {
      int t = a;
      b = t;
      a = t + 1;
    }
  )");
  ModuleAnnotations ann = Annotate(m);
  const CorrelationReport report = Correlate(m, ann);

  EXPECT_TRUE(report.sets.empty());
  ASSERT_EQ(report.rejected.size(), 1u);
  EXPECT_EQ(report.rejected[0].pruned, PairPruneReason::kLowSupport);
  EXPECT_EQ(report.rejected[0].support, 1);
  EXPECT_FALSE(report.changed);
}

TEST(CorrelationTest, LockProtectedPairIsRejected) {
  const MirModule m = Build(R"(
    sync int m;
    int a;
    int b;
    void f1(int x) {
      lock(m);
      int t = a;
      b = t;
      a = t + 1;
      unlock(m);
    }
    void f2(int x) {
      lock(m);
      int t = a;
      b = t;
      a = t + 1;
      unlock(m);
    }
  )");
  ModuleAnnotations ann = Annotate(m);
  const CorrelationReport report = Correlate(m, ann);

  EXPECT_TRUE(report.sets.empty());
  ASSERT_EQ(report.rejected.size(), 1u);
  EXPECT_EQ(report.rejected[0].pruned, PairPruneReason::kLockProtected);
  EXPECT_EQ(report.rejected[0].lock, "m");
  EXPECT_FALSE(report.changed);
}

TEST(CorrelationTest, ReleasePointBreaksTheCoAccessWindow) {
  // The call between the buf store and the len update is a release point:
  // the accesses never share a window, so no candidate pair even forms.
  const MirModule m = Build(R"(
    int a;
    int b;
    void helper() { }
    void f1(int x) {
      b = x;
      helper();
      int t = a;
      a = t + 1;
    }
    void f2(int x) {
      b = x;
      helper();
      int t = a;
      a = t + 1;
    }
  )");
  ModuleAnnotations ann = Annotate(m);
  const CorrelationReport report = Correlate(m, ann);

  EXPECT_TRUE(report.sets.empty());
  EXPECT_TRUE(report.rejected.empty());
  EXPECT_FALSE(report.changed);
}

TEST(CorrelationTest, ReportFormattingIsSelfContained) {
  const MirModule m = Build(kPairSource);
  ModuleAnnotations ann = Annotate(m);
  const CorrelationReport report = Correlate(m, ann);

  const std::string human = FormatCorrelationReport(report);
  EXPECT_NE(human.find("{len, buf}"), std::string::npos);
  EXPECT_NE(human.find("support 2"), std::string::npos);

  const std::string json = CorrelationReportJson(report);
  EXPECT_NE(json.find("\"kept\":1"), std::string::npos);
  EXPECT_NE(json.find("\"members\":[\"len\",\"buf\"]"), std::string::npos);
  EXPECT_NE(json.find("\"fused_ars\":"), std::string::npos);
}

TEST(CorrelationCompileTest, CompilerReRunsConflictAnalysisAfterFusion) {
  const CompiledProgram with = CompileSource(kPairSource);
  EXPECT_TRUE(with.correlation.changed);
  EXPECT_EQ(with.ar_infos.size(), 4u);
  // The re-run gives synthesized ARs verdicts too.
  EXPECT_EQ(with.conflict.ars.size(), with.ar_infos.size());

  CompileOptions options;
  options.frontend.correlate = false;
  const CompiledProgram without = CompileSource(kPairSource, options);
  EXPECT_FALSE(without.correlation.changed);
  EXPECT_TRUE(without.correlation.sets.empty());
  EXPECT_EQ(without.ar_infos.size(), 2u);
}

}  // namespace
}  // namespace kivati
