#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "analysis/atomic_regions.h"
#include "analysis/conflict.h"
#include "analysis/correlation.h"
#include "analysis/lsv.h"
#include "analysis/mir.h"
#include "analysis/mir_builder.h"
#include "apps/bugs.h"
#include "apps/workloads.h"
#include "lang/parser.h"

namespace kivati {
namespace {

MirModule Build(const std::string& source) { return BuildMir(Parse(source)); }

const MirFunction& Fn(const MirModule& m, const std::string& name) {
  const MirFunction* f = m.FindFunction(name);
  EXPECT_NE(f, nullptr) << name;
  return *f;
}

// Convenience: annotations of one function by name.
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

TEST(MirBuilderTest, LowersSimpleAssignment) {
  const MirModule m = Build("int g; void f() { g = g + 1; }");
  const MirFunction& f = Fn(m, "f");
  // load g; const 1; add; store g; ret
  ASSERT_GE(f.ops.size(), 5u);
  EXPECT_EQ(f.ops[0].kind, MirOp::Kind::kLoadGlobal);
  EXPECT_EQ(f.ops.back().kind, MirOp::Kind::kRet);
  bool has_store = false;
  for (const auto& op : f.ops) {
    has_store |= op.kind == MirOp::Kind::kStoreGlobal;
  }
  EXPECT_TRUE(has_store);
}

TEST(MirBuilderTest, AddressTakenLocalIsMemoryResident) {
  const MirModule m = Build(R"(
    void g(int *p) { }
    void f() {
      int x;
      x = 1;
      g(&x);
      x = x + 1;
    }
  )");
  const MirFunction& f = Fn(m, "f");
  const int x = [&] {
    for (std::size_t i = 0; i < f.locals.size(); ++i) {
      if (f.locals[i].name == "x") {
        return static_cast<int>(i);
      }
    }
    return -1;
  }();
  ASSERT_GE(x, 0);
  EXPECT_TRUE(f.locals[static_cast<std::size_t>(x)].address_taken);
  bool store_mem = false;
  for (const auto& op : f.ops) {
    store_mem |= op.kind == MirOp::Kind::kStoreLocalMem && op.local_mem == x;
  }
  EXPECT_TRUE(store_mem);
}

TEST(MirBuilderTest, BuiltinsLower) {
  const MirModule m = Build(R"(
    sync int l;
    void f() {
      lock(l);
      unlock(l);
      sleep(10);
      io(20);
      yield();
      mark(1, 2);
      int t;
      t = now();
    }
  )");
  const MirFunction& f = Fn(m, "f");
  auto count = [&](MirOp::Kind kind) {
    std::size_t n = 0;
    for (const auto& op : f.ops) {
      n += op.kind == kind;
    }
    return n;
  };
  EXPECT_EQ(count(MirOp::Kind::kLock), 1u);
  EXPECT_EQ(count(MirOp::Kind::kUnlock), 1u);
  EXPECT_EQ(count(MirOp::Kind::kSleep), 1u);
  EXPECT_EQ(count(MirOp::Kind::kIo), 1u);
  EXPECT_EQ(count(MirOp::Kind::kYield), 1u);
  EXPECT_EQ(count(MirOp::Kind::kMark), 1u);
  EXPECT_EQ(count(MirOp::Kind::kNow), 1u);
}

TEST(MirBuilderTest, RejectsUnknownVariable) {
  EXPECT_THROW(Build("void f() { nope = 1; }"), LoweringError);
}

TEST(MirBuilderTest, RejectsLockOnLocal) {
  EXPECT_THROW(Build("void f() { int l; lock(l); }"), LoweringError);
}

// A name may be declared once per block scope. A nested block, a sibling
// block, a for loop's body (over its init) and the function body (over a
// parameter) each open a new scope. Names resolve to the innermost
// declaration, and to the outer one again once the inner block ends.
TEST(MirBuilderTest, DeclarationsAreScopedPerBlock) {
  EXPECT_THROW(Build("void f() { int x = 1; int x = 2; }"), LoweringError);
  EXPECT_THROW(Build("void f(int a) { if (a) { int y; int y; } }"), LoweringError);
  const MirModule m = Build(R"(
    int g;
    void f(int a) {
      int a = 3;
      int x = 1;
      if (a) { int x = 2; g = x; }
      if (a) { int x = 4; g = x; }
      for (int i = 0; i < 2; i = i + 1) { int i = 5; g = i; }
      g = x;
    }
  )");
  const MirFunction& f = Fn(m, "f");
  // The local each store to g reads, in source order.
  std::vector<int> stored;
  for (const MirOp& op : f.ops) {
    if (op.kind == MirOp::Kind::kStoreGlobal) {
      stored.push_back(op.a);
    }
  }
  ASSERT_EQ(stored.size(), 4u);
  const auto name = [&](int local) { return f.locals[static_cast<std::size_t>(local)].name; };
  EXPECT_EQ(name(stored[0]), "x");
  EXPECT_EQ(name(stored[1]), "x");
  EXPECT_EQ(name(stored[2]), "i");
  EXPECT_EQ(name(stored[3]), "x");
  EXPECT_NE(stored[0], stored[1]);  // the sibling blocks' x
  EXPECT_LT(stored[3], stored[0]);  // the outer x, declared before both
  const auto declarations = [&](const std::string& local) {
    return std::count_if(f.locals.begin(), f.locals.end(),
                         [&](const MirLocal& l) { return l.name == local; });
  };
  EXPECT_EQ(declarations("a"), 2);
  EXPECT_EQ(declarations("x"), 3);
  EXPECT_EQ(declarations("i"), 2);
}

TEST(LsvTest, PointerParamsAreSeeds) {
  const MirModule m = Build("void f(int *p, int v) { *p = v; }");
  const MirFunction& f = Fn(m, "f");
  const LsvResult lsv = ComputeLsv(f);
  EXPECT_TRUE(lsv.local_in_lsv[0]);   // p
  EXPECT_FALSE(lsv.local_in_lsv[1]);  // v (plain value param)
}

TEST(LsvTest, DataFlowClosurePropagates) {
  const MirModule m = Build(R"(
    int *gp;
    void f() {
      int *q;
      q = gp;       // q derives from a shared pointer
      *q = 1;
      int x;
      x = 5;        // x stays private
    }
  )");
  const MirFunction& f = Fn(m, "f");
  const LsvResult lsv = ComputeLsv(f);
  int q = -1;
  int x = -1;
  for (std::size_t i = 0; i < f.locals.size(); ++i) {
    if (f.locals[i].name == "q") {
      q = static_cast<int>(i);
    }
    if (f.locals[i].name == "x") {
      x = static_cast<int>(i);
    }
  }
  ASSERT_GE(q, 0);
  ASSERT_GE(x, 0);
  EXPECT_TRUE(lsv.local_in_lsv[static_cast<std::size_t>(q)]);
  EXPECT_FALSE(lsv.local_in_lsv[static_cast<std::size_t>(x)]);
}

TEST(LsvTest, CallResultsAreShared) {
  const MirModule m = Build(R"(
    int *alloc() { return 0; }
    void f() {
      int *p;
      p = alloc();
      *p = 1;
    }
  )");
  const MirFunction& f = Fn(m, "f");
  const LsvResult lsv = ComputeLsv(f);
  for (std::size_t i = 0; i < f.locals.size(); ++i) {
    if (f.locals[i].name == "p") {
      EXPECT_TRUE(lsv.local_in_lsv[i]);
    }
  }
}

TEST(LsvTest, SummariesSeedOnlySharedReturningCalls) {
  // With interprocedural summaries, a call to a pure int-returning function
  // no longer taints its result; pointer returns (declared) and returns
  // data-flow dependent on a global still do.
  const MirModule m = Build(R"(
    int g;
    int pure(int v) { return v + 1; }
    int *alloc() { return 0; }
    int leak(int v) { return g + v; }
    void f() {
      int a;
      a = pure(3);
      int *p;
      p = alloc();
      *p = 1;
      int b;
      b = leak(2);
    }
  )");
  const ReturnSharedness returns = ComputeReturnSharedness(m);
  const MirFunction& f = Fn(m, "f");
  const LsvResult precise = ComputeLsv(f, returns);
  const LsvResult conservative = ComputeLsv(f);
  int a = -1;
  int p = -1;
  int b = -1;
  for (std::size_t i = 0; i < f.locals.size(); ++i) {
    if (f.locals[i].name == "a") {
      a = static_cast<int>(i);
    } else if (f.locals[i].name == "p") {
      p = static_cast<int>(i);
    } else if (f.locals[i].name == "b") {
      b = static_cast<int>(i);
    }
  }
  ASSERT_GE(a, 0);
  ASSERT_GE(p, 0);
  ASSERT_GE(b, 0);
  EXPECT_FALSE(precise.local_in_lsv[static_cast<std::size_t>(a)]);
  EXPECT_TRUE(precise.local_in_lsv[static_cast<std::size_t>(p)]);
  EXPECT_TRUE(precise.local_in_lsv[static_cast<std::size_t>(b)]);
  // The summary-free form stays conservative: every call result is shared.
  EXPECT_TRUE(conservative.local_in_lsv[static_cast<std::size_t>(a)]);
}

// The paper's core example: a read followed by a write of the same global
// within one subroutine forms one AR with watch type "remote write".
TEST(AtomicRegionTest, ReadThenWriteFormsOneAr) {
  const MirModule m = Build(R"(
    int shared_ptr;
    void f() {
      if (shared_ptr == 0) {
        shared_ptr = 1;
      }
    }
  )");
  const ModuleAnnotations ann = Annotate(m);
  const auto& fa = AnnotationsFor(m, ann, "f");
  ASSERT_EQ(fa.ars.size(), 1u);
  EXPECT_EQ(fa.ars[0].first_type, AccessType::kRead);
  EXPECT_EQ(fa.ars[0].watch, WatchType::kWrite);
  ASSERT_EQ(fa.ars[0].ends.size(), 1u);
  EXPECT_EQ(fa.ars[0].ends[0].second, AccessType::kWrite);
  EXPECT_TRUE(fa.ars[0].needs_replica == false);
}

// Figure 4: three consecutive accesses produce chained ARs; the middle
// access is both a second and a first.
TEST(AtomicRegionTest, Figure4ChainedRegions) {
  const MirModule m = Build(R"(
    int shared;
    int other;
    void f() {
      if (shared == 0) {      // access 1: read
        shared = 1;           // access 2: write
      }
      other = shared;         // access 3: read
    }
  )");
  const ModuleAnnotations ann = Annotate(m);
  const auto& fa = AnnotationsFor(m, ann, "f");
  // Pairs on `shared`: (1,2), (2,3), (1,3)  ->  grouped by first access:
  // AR(first=1) with ends {2,3}, AR(first=2) with ends {3}.
  ASSERT_EQ(fa.ars.size(), 2u);
  const FunctionAr* ar1 = nullptr;
  const FunctionAr* ar2 = nullptr;
  for (const auto& ar : fa.ars) {
    if (ar.first_type == AccessType::kRead) {
      ar1 = &ar;
    } else {
      ar2 = &ar;
    }
  }
  ASSERT_NE(ar1, nullptr);
  ASSERT_NE(ar2, nullptr);
  EXPECT_EQ(ar1->ends.size(), 2u);  // write on the then-path, read after
  EXPECT_EQ(ar2->ends.size(), 1u);
  EXPECT_TRUE(ar2->needs_replica);
  // First access read paired with both a write and a read along different
  // paths: Figure 6's bottom row requires watching remote writes in both
  // cases; ar2 (W first, R second) also watches remote writes.
  EXPECT_EQ(ar1->watch, WatchType::kWrite);
  EXPECT_EQ(ar2->watch, WatchType::kWrite);
}

// Figure 6 bottom-right: a first write pairing with a read on one path and
// a write on the other must watch for both remote reads and remote writes.
TEST(AtomicRegionTest, MixedSecondAccessWatchesReadWrite) {
  const MirModule m = Build(R"(
    int shared;
    int cond;
    int sink;
    void f() {
      shared = 1;            // first access: write
      if (cond == 1) {
        sink = shared;       // second access: read
      } else {
        shared = 2;          // second access: write
      }
    }
  )");
  const ModuleAnnotations ann = Annotate(m);
  const auto& fa = AnnotationsFor(m, ann, "f");
  const FunctionAr* first_write_ar = nullptr;
  for (const auto& ar : fa.ars) {
    if (ar.first_type == AccessType::kWrite && ar.ends.size() == 2) {
      first_write_ar = &ar;
    }
  }
  ASSERT_NE(first_write_ar, nullptr);
  EXPECT_EQ(first_write_ar->watch, WatchType::kReadWrite);
}

TEST(AtomicRegionTest, DistinctVariablesDistinctArs) {
  const MirModule m = Build(R"(
    int a;
    int b;
    void f() {
      a = a + 1;
      b = b + 1;
    }
  )");
  const ModuleAnnotations ann = Annotate(m);
  const auto& fa = AnnotationsFor(m, ann, "f");
  ASSERT_EQ(fa.ars.size(), 2u);
  EXPECT_NE(fa.ars[0].var.index, fa.ars[1].var.index);
}

TEST(AtomicRegionTest, NonSharedLocalsNotAnnotated) {
  const MirModule m = Build(R"(
    void f() {
      int x;
      x = 1;
      x = x + 1;
    }
  )");
  const ModuleAnnotations ann = Annotate(m);
  EXPECT_TRUE(AnnotationsFor(m, ann, "f").ars.empty());
}

TEST(AtomicRegionTest, PointerDerefPairsByPointerName) {
  const MirModule m = Build(R"(
    void f(int *p, int *q) {
      int t;
      t = *p;       // read via p
      *p = t + 1;   // write via p -> pairs with the read
      *q = 5;       // q is a different name: no pair with p's accesses
    }
  )");
  const ModuleAnnotations ann = Annotate(m);
  const auto& fa = AnnotationsFor(m, ann, "f");
  ASSERT_EQ(fa.ars.size(), 1u);
  EXPECT_EQ(fa.ars[0].first_type, AccessType::kRead);
}

TEST(AtomicRegionTest, ArraysTreatedAsOneVariable) {
  // The paper treats a whole array as a single shared variable: accesses to
  // different elements still pair.
  const MirModule m = Build(R"(
    int table[16];
    void f(int i, int j) {
      int t;
      t = table[i];
      table[j] = t;
    }
  )");
  const ModuleAnnotations ann = Annotate(m);
  ASSERT_EQ(AnnotationsFor(m, ann, "f").ars.size(), 1u);
}

TEST(AtomicRegionTest, SyncVariablesFlagged) {
  const MirModule m = Build(R"(
    sync int mutex;
    int data;
    void f() {
      lock(mutex);
      data = data + 1;
      unlock(mutex);
    }
  )");
  const ModuleAnnotations ann = Annotate(m);
  const auto& fa = AnnotationsFor(m, ann, "f");
  // ARs: (lock,unlock) on mutex; (read,write) on data.
  ASSERT_EQ(fa.ars.size(), 2u);
  std::size_t sync_count = 0;
  for (const auto& ar : fa.ars) {
    if (ar.is_sync) {
      ++sync_count;
      EXPECT_TRUE(ann.sync_ars.contains(ar.id));
    }
  }
  EXPECT_EQ(sync_count, 1u);
}

TEST(AtomicRegionTest, IdsGloballyUniqueAcrossFunctions) {
  const MirModule m = Build(R"(
    int g;
    void f1() { g = g + 1; }
    void f2() { g = g + 2; }
  )");
  const ModuleAnnotations ann = Annotate(m);
  ASSERT_EQ(ann.infos.size(), 2u);
  EXPECT_NE(ann.infos[0].id, ann.infos[1].id);
  EXPECT_EQ(ann.InfoFor(ann.infos[0].id)->variable, "g");
}

TEST(AtomicRegionTest, AccessesInDifferentFunctionsDoNotPair) {
  // The analysis is intra-procedural (paper §3.5): a read in f1 and a write
  // in f2 produce no AR.
  const MirModule m = Build(R"(
    int g;
    int sink;
    void f1() { sink = g; }
    void f2() { g = 1; }
  )");
  const ModuleAnnotations ann = Annotate(m);
  EXPECT_TRUE(AnnotationsFor(m, ann, "f1").ars.empty());
  EXPECT_TRUE(AnnotationsFor(m, ann, "f2").ars.empty());
}

TEST(AtomicRegionTest, LoopCarriedAccessesPairAcrossIterations) {
  const MirModule m = Build(R"(
    int g;
    void f(int n) {
      for (int i = 0; i < n; i = i + 1) {
        g = g + 1;
      }
    }
  )");
  const ModuleAnnotations ann = Annotate(m);
  const auto& fa = AnnotationsFor(m, ann, "f");
  // Within an iteration: (read, write). Across iterations the write reaches
  // the next read: (write, read). Self-pairs are skipped.
  ASSERT_EQ(fa.ars.size(), 2u);
}

TEST(MirBuilderTest, BreakOutsideLoopRejected) {
  EXPECT_THROW(Build("void f() { break; }"), LoweringError);
  EXPECT_THROW(Build("void f() { continue; }"), LoweringError);
}

TEST(AtomicRegionTest, MergedRegionCitesFirstAccessLine) {
  // Line attribution invariant: an AR's debug info always cites the source
  // line of its *first* access — both when several second accesses merge
  // into one region (branchy) and after correlated-variable fusion extends
  // a host region / synthesizes a partner AR (writer/writer2).
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
      "}\n";                      // 19
  const MirModule m = Build(source);
  ModuleAnnotations ann = Annotate(m);

  const auto check_first_access_lines = [&] {
    for (std::size_t f = 0; f < m.functions.size(); ++f) {
      for (const FunctionAr& ar : ann.functions[f].ars) {
        const ArDebugInfo* info = ann.InfoFor(ar.id);
        ASSERT_NE(info, nullptr);
        EXPECT_EQ(info->line,
                  m.functions[f].ops[static_cast<std::size_t>(ar.first_op)].line)
            << info->function << " AR " << ar.id << " on " << info->variable;
      }
    }
  };
  check_first_access_lines();

  const auto ar_at_line = [&](const std::string& fn, int line) -> const ArDebugInfo* {
    for (const ArDebugInfo& info : ann.infos) {
      if (info.function == fn && info.line == line) {
        return &info;
      }
    }
    return nullptr;
  };
  // branchy: both second accesses merged into the AR anchored at line 4.
  const ArDebugInfo* merged = ar_at_line("branchy", 4);
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->variable, "g");
  EXPECT_EQ(merged->num_ends, 2);

  // Fuse g/h (co-accessed in writer and writer2, support 2) and re-check:
  // lines never move off the first access.
  const LockFacts locks(m);
  const ConflictReport conflict = AnalyzeConflicts(m, ann, locks, {});
  const CorrelationReport report = CorrelateAndFuse(m, ann, conflict, locks);
  ASSERT_TRUE(report.changed);
  check_first_access_lines();

  const ArDebugInfo* host = ar_at_line("writer", 11);
  ASSERT_NE(host, nullptr);
  EXPECT_EQ(host->variable, "g");
  EXPECT_EQ(host->group, 1);
  const ArDebugInfo* synthesized = ar_at_line("writer", 12);
  ASSERT_NE(synthesized, nullptr);
  EXPECT_EQ(synthesized->variable, "h");
  EXPECT_TRUE(synthesized->synthesized);
  // The merged single-variable AR is untouched by fusion.
  const ArDebugInfo* still_merged = ar_at_line("branchy", 4);
  ASSERT_NE(still_merged, nullptr);
  EXPECT_EQ(still_merged->num_ends, 2);
  EXPECT_EQ(still_merged->group, 0);
}

// --- The bitset pairing solver against the reference solver -----------------

// The pairing data flow with one std::set of reaching site ids per identity,
// merged set by set into stored in and out states per op, iterated
// round-robin to the fixed point: the solver SolveAccessPairs must match.
AccessPairs ReferenceSolve(const PairingProblem& problem) {
  using State = std::vector<std::set<int>>;  // per identity: reaching site ids
  const std::size_t n = problem.preds.size();
  const std::size_t identities = static_cast<std::size_t>(problem.num_identities);
  std::vector<std::vector<int>> sites_of_op(n);
  for (std::size_t s = 0; s < problem.sites.size(); ++s) {
    sites_of_op[problem.sites[s].op].push_back(static_cast<int>(s));
  }
  std::set<std::pair<int, int>> pairs;
  const auto transfer = [&](std::size_t i, State& state) {
    for (const int site_id : sites_of_op[i]) {
      const std::size_t identity =
          static_cast<std::size_t>(problem.sites[static_cast<std::size_t>(site_id)].identity);
      for (const int prev : state[identity]) {
        if (prev != site_id) {
          pairs.insert({prev, site_id});
        }
      }
      state[identity] = {site_id};
    }
  };
  const auto merge = [](State& into, const State& from) {
    bool changed = false;
    for (std::size_t i = 0; i < into.size(); ++i) {
      for (const int s : from[i]) {
        changed |= into[i].insert(s).second;
      }
    }
    return changed;
  };
  std::vector<State> in(n, State(identities));
  std::vector<State> out(n, State(identities));
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      State merged(identities);
      for (const std::size_t p : problem.preds[i]) {
        merge(merged, out[p]);
      }
      changed |= merge(in[i], merged);
      State next = in[i];
      transfer(i, next);
      changed |= merge(out[i], next);
    }
  }
  return {pairs.begin(), pairs.end()};
}

// The largest problem CheckedSolve has seen.
std::size_t largest_sites = 0;
int largest_identities = 0;

// Runs both solvers on one function's problem and expects equal pairs.
AccessPairs CheckedSolve(const PairingProblem& problem) {
  AccessPairs expected = ReferenceSolve(problem);
  EXPECT_EQ(SolveAccessPairs(problem), expected);
  largest_sites = std::max(largest_sites, problem.sites.size());
  largest_identities = std::max(largest_identities, problem.num_identities);
  return expected;
}

void ExpectSameAnnotations(const ModuleAnnotations& actual, const ModuleAnnotations& expected) {
  ASSERT_EQ(actual.infos.size(), expected.infos.size());
  for (std::size_t i = 0; i < actual.infos.size(); ++i) {
    const ArDebugInfo& a = actual.infos[i];
    const ArDebugInfo& e = expected.infos[i];
    EXPECT_EQ(a.id, e.id);
    EXPECT_EQ(a.function, e.function);
    EXPECT_EQ(a.variable, e.variable);
    EXPECT_EQ(a.line, e.line);
    EXPECT_EQ(a.first_type, e.first_type);
    EXPECT_EQ(a.watch, e.watch);
    EXPECT_EQ(a.is_sync, e.is_sync);
    EXPECT_EQ(a.num_ends, e.num_ends);
  }
  ASSERT_EQ(actual.functions.size(), expected.functions.size());
  for (std::size_t f = 0; f < actual.functions.size(); ++f) {
    const std::vector<FunctionAr>& a = actual.functions[f].ars;
    const std::vector<FunctionAr>& e = expected.functions[f].ars;
    ASSERT_EQ(a.size(), e.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, e[i].id);
      EXPECT_EQ(a[i].first_op, e[i].first_op);
      EXPECT_EQ(a[i].ends, e[i].ends);
      EXPECT_EQ(a[i].watch, e[i].watch);
      EXPECT_EQ(a[i].is_sync, e[i].is_sync);
      EXPECT_EQ(a[i].needs_replica, e[i].needs_replica);
    }
  }
  EXPECT_EQ(actual.sync_ars, expected.sync_ars);
}

// Annotates `source` with both solvers under all four annotator
// configurations.
void ExpectSolversAgree(const std::string& source, const std::string& name) {
  const MirModule module = Build(source);
  for (const bool interprocedural : {false, true}) {
    for (const bool precise_aliasing : {false, true}) {
      SCOPED_TRACE(name + (interprocedural ? " +interprocedural" : "") +
                   (precise_aliasing ? " +precise-aliasing" : ""));
      AnnotateOptions options;
      options.interprocedural = interprocedural;
      options.precise_aliasing = precise_aliasing;
      ExpectSameAnnotations(Annotate(module, options), Annotate(module, options, CheckedSolve));
    }
  }
}

TEST(PairSolverTest, MatchesReferenceOnEveryAppAndCorpusBug) {
  for (const apps::App& app : apps::AllPerformanceApps()) {
    ExpectSolversAgree(app.source, app.workload.name);
  }
  for (const auto* corpus : {&apps::BugCorpus(), &apps::MultiVarBugCorpus()}) {
    for (const apps::BugInfo& bug : *corpus) {
      const apps::App app = apps::MakeBugApp(bug);
      ExpectSolversAgree(app.source, app.workload.name);
    }
  }
}

// No app or corpus function has more than 64 access sites, so only a
// generated one reaches states of several words: 150 sites over four
// globals, under branches and a loop whose back edge carries the last
// word's sites to the first's.
TEST(PairSolverTest, MatchesReferenceAcrossThreeStateWords) {
  std::ostringstream source;
  source << "int g0;\nint g1;\nint g2;\nint g3;\nvoid big(int x) {\n"
         << "  for (int i = 0; i < x; i = i + 1) {\n";
  for (int s = 0; s < 50; ++s) {
    const std::string assign = "g" + std::to_string((s * 5 + 1) % 4) + " = g" +
                               std::to_string((s * 3 + 2) % 4) + " + g" +
                               std::to_string((s * 7) % 4) + ";";
    if (s % 4 == 1) {
      source << "    if (i == " << s << ") { " << assign << " }\n";
    } else {
      source << "    " << assign << "\n";
    }
  }
  source << "  }\n}\n";
  largest_sites = 0;
  largest_identities = 0;
  ExpectSolversAgree(source.str(), "generated");
  EXPECT_GE(largest_sites, 130u);
  EXPECT_GE(largest_identities, 3);
}

}  // namespace
}  // namespace kivati
