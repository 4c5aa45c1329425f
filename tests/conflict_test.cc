// Whole-module conflict & lockset analysis (docs/analysis.md): golden
// verdicts over small programs, unit coverage of the lockset pass, and the
// bit-set lockset analysis against the std::set one it replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>

#include "analysis/atomic_regions.h"
#include "analysis/conflict.h"
#include "analysis/correlation.h"
#include "analysis/lockset.h"
#include "analysis/mir_builder.h"
#include "apps/bugs.h"
#include "apps/workloads.h"
#include "lang/parser.h"
#include "tests/program_generator.h"
#include "tests/test_util.h"

namespace kivati {
namespace {

MirModule Build(const std::string& source) { return BuildMir(Parse(source)); }

struct Analysis {
  MirModule module;
  ModuleAnnotations annotations;
  ConflictReport report;
};

Analysis Analyze(const std::string& source, const ConflictOptions& options = {}) {
  Analysis a;
  a.module = Build(source);
  a.annotations = Annotate(a.module);
  a.report = AnalyzeConflicts(a.module, a.annotations, LockFacts(a.module), options);
  return a;
}

// The first AR over `variable` in `function` (there is exactly one in the
// programs below unless noted).
const ArConflict& ArOn(const Analysis& a, const std::string& function,
                       const std::string& variable) {
  for (const ArConflict& ar : a.report.ars) {
    const ArDebugInfo& info = a.annotations.infos[ar.id - 1];
    if (info.function == function && info.variable == variable) {
      return ar;
    }
  }
  static const ArConflict kMissing;
  ADD_FAILURE() << "no AR on " << variable << " in " << function;
  return kMissing;
}

int GlobalIndex(const MirModule& m, const std::string& name) {
  for (std::size_t i = 0; i < m.globals.size(); ++i) {
    if (m.globals[i].name == name) {
      return static_cast<int>(i);
    }
  }
  ADD_FAILURE() << "no global " << name;
  return -1;
}

// --- Verdicts ----------------------------------------------------------------

TEST(ConflictTest, ThreadLocalIsNoRemoteWriter) {
  // Only one `main` thread ever runs `solo`; nothing else touches `total`.
  const Analysis a = Analyze(R"(
    int total;
    int shared;
    void solo(int id) {
      int t = total;
      total = t + 1;
    }
    void racer(int id) {
      int t = shared;
      shared = t + 1;
    }
    void main(int id) {
      solo(0);
      spawn racer(1);
      spawn racer(2);
    }
  )",
                             {true, {{"main", 1}}});
  EXPECT_EQ(ArOn(a, "solo", "total").verdict, ArVerdict::kNoRemoteWriter);
  EXPECT_EQ(ArOn(a, "racer", "shared").verdict, ArVerdict::kWatchRequired);
  EXPECT_TRUE(a.report.pruned.contains(ArOn(a, "solo", "total").id));
  EXPECT_FALSE(a.report.pruned.contains(ArOn(a, "racer", "shared").id));
}

TEST(ConflictTest, UnknownThreadStructureAssumesEverythingConcurrent) {
  // Same program, no roots: `solo` must be assumed to run on 2+ threads, so
  // its access pair keeps its watchpoint (the sound fallback).
  const Analysis a = Analyze(R"(
    int total;
    void solo(int id) {
      int t = total;
      total = t + 1;
    }
  )");
  EXPECT_EQ(ArOn(a, "solo", "total").verdict, ArVerdict::kWatchRequired);
}

TEST(ConflictTest, LockProtectedPairIsPruned) {
  const Analysis a = Analyze(R"(
    sync int m;
    int guarded;
    void worker(int id) {
      lock(m);
      int g = guarded;
      guarded = g + 1;
      unlock(m);
    }
  )",
                             {true, {{"worker", 2}}});
  const ArConflict& ar = ArOn(a, "worker", "guarded");
  EXPECT_EQ(ar.verdict, ArVerdict::kLockProtected);
  EXPECT_EQ(ar.lock, "m");
  EXPECT_TRUE(a.report.pruned.contains(ar.id));
}

TEST(ConflictTest, UnlockedRemoteSiteKeepsWatch) {
  // The same lock is held around the pair, but a remote writer updates the
  // variable without it — mutual exclusion proves nothing.
  const Analysis a = Analyze(R"(
    sync int m;
    int guarded;
    void careful(int id) {
      lock(m);
      int g = guarded;
      guarded = g + 1;
      unlock(m);
    }
    void sloppy(int id) {
      guarded = 0;
    }
  )",
                             {true, {{"careful", 1}, {"sloppy", 1}}});
  const ArConflict& ar = ArOn(a, "careful", "guarded");
  EXPECT_EQ(ar.verdict, ArVerdict::kWatchRequired);
  ASSERT_EQ(ar.remote_sites.size(), 1u);
  EXPECT_EQ(ar.remote_sites[0].function, "sloppy");
  EXPECT_EQ(ar.remote_sites[0].type, AccessType::kWrite);
}

TEST(ConflictTest, UnlockRelockWindowBreaksProtection) {
  // The pair spans an unlock/relock window: the lock is not held
  // *continuously*, so a remote writer can slip in between.
  const Analysis a = Analyze(R"(
    sync int m;
    int g;
    void worker(int id) {
      lock(m);
      int t = g;
      unlock(m);
      lock(m);
      g = t + 1;
      unlock(m);
    }
  )",
                             {true, {{"worker", 2}}});
  EXPECT_EQ(ArOn(a, "worker", "g").verdict, ArVerdict::kWatchRequired);
}

TEST(ConflictTest, DirectlyAccessedLockWordIsNotTrusted) {
  // The lock word is also written directly, so lock(m) cannot be trusted as
  // mutual exclusion (Eraser's discipline).
  const Analysis a = Analyze(R"(
    sync int m;
    int g;
    void worker(int id) {
      lock(m);
      int t = g;
      g = t + 1;
      unlock(m);
    }
    void resetter(int id) {
      lock(m);
      g = 0;
      unlock(m);
      m = 0;
    }
  )",
                             {true, {{"worker", 1}, {"resetter", 1}}});
  EXPECT_EQ(ArOn(a, "worker", "g").verdict, ArVerdict::kWatchRequired);
}

TEST(ConflictTest, SpawnTargetsBecomeConcurrentRoots) {
  // Thread reachability flows through spawn: a single main root spawns the
  // workers, and a spawned target must be assumed concurrent with itself.
  const Analysis a = Analyze(R"(
    int shared;
    int setup_only;
    void worker(int id) {
      int t = shared;
      shared = t + 1;
    }
    void main(int id) {
      int s = setup_only;
      setup_only = s + 1;
      spawn worker(0);
    }
  )",
                             {true, {{"main", 1}}});
  EXPECT_EQ(ArOn(a, "worker", "shared").verdict, ArVerdict::kWatchRequired);
  EXPECT_EQ(ArOn(a, "main", "setup_only").verdict, ArVerdict::kNoRemoteWriter);
}

TEST(ConflictTest, AddressTakenGlobalReachedThroughPointer) {
  // `g` escapes via &g, so a remote *p store may alias it; `h` never has its
  // address taken, so the same store cannot reach it.
  const Analysis a = Analyze(R"(
    int g;
    int h;
    void writer(int id) {
      int *p;
      p = &g;
      *p = 7;
    }
    void pair_g(int id) {
      int t = g;
      g = t + 1;
    }
    void pair_h(int id) {
      int t = h;
      h = t + 1;
    }
  )",
                             {true, {{"writer", 1}, {"pair_g", 1}, {"pair_h", 1}}});
  const ArConflict& on_g = ArOn(a, "pair_g", "g");
  EXPECT_EQ(on_g.verdict, ArVerdict::kWatchRequired);
  ASSERT_FALSE(on_g.remote_sites.empty());
  EXPECT_TRUE(on_g.remote_sites[0].via_pointer);
  EXPECT_EQ(ArOn(a, "pair_h", "h").verdict, ArVerdict::kNoRemoteWriter);
}

TEST(ConflictTest, PruneOffStillReportsVerdicts) {
  const Analysis a = Analyze(R"(
    int total;
    void solo(int id) {
      int t = total;
      total = t + 1;
    }
  )",
                             {false, {{"solo", 1}}});
  EXPECT_EQ(ArOn(a, "solo", "total").verdict, ArVerdict::kNoRemoteWriter);
  EXPECT_EQ(a.report.no_remote_writer, 1u);
  EXPECT_TRUE(a.report.pruned.empty());
}

TEST(ConflictTest, ReportCountsAddUp) {
  const Analysis a = Analyze(R"(
    sync int m;
    int guarded;
    int shared;
    int mine;
    void worker(int id) {
      lock(m);
      int g = guarded;
      guarded = g + 1;
      unlock(m);
      int s = shared;
      shared = s + 1;
    }
    void main(int id) {
      int t = mine;
      mine = t + 1;
      spawn worker(0);
    }
  )",
                             {true, {{"main", 1}}});
  EXPECT_EQ(a.report.no_remote_writer + a.report.lock_protected + a.report.watch_required,
            a.report.ars.size());
  EXPECT_EQ(a.report.pruned.size(), a.report.no_remote_writer + a.report.lock_protected);
  const std::string human = FormatConflictReport(a.report, a.annotations.infos);
  EXPECT_NE(human.find("watch-required"), std::string::npos);
  EXPECT_NE(human.find("guarded by m"), std::string::npos);
  const std::string json = ConflictReportJson(a.report, a.annotations.infos);
  EXPECT_NE(json.find("\"kind\":\"kivati_analyze\""), std::string::npos);
  EXPECT_NE(json.find("\"verdict\":\"lock-protected\""), std::string::npos);
}

// --- Lockset units -----------------------------------------------------------

TEST(LocksetTest, TrustedLocksExcludeDirectlyAccessedWords) {
  const MirModule m = Build(R"(
    sync int clean;
    sync int dirty;
    void f(int id) {
      lock(clean);
      unlock(clean);
      lock(dirty);
      unlock(dirty);
      dirty = 1;
    }
  )");
  const LockFacts s(m);
  EXPECT_EQ(s.lock_words(), (std::vector<int>{GlobalIndex(m, "clean"), GlobalIndex(m, "dirty")}));
  EXPECT_EQ(s.Globals(s.trusted()), std::vector<int>{GlobalIndex(m, "clean")});
}

TEST(LocksetTest, MayUnlockIsTransitive) {
  const MirModule m = Build(R"(
    sync int m;
    void release(int id) { unlock(m); }
    void outer(int id) { release(id); }
    void pure(int id) { int x = id; }
  )");
  const LockFacts s(m);
  const std::vector<int> lock{GlobalIndex(m, "m")};
  const auto index = [&](const std::string& name) {
    return static_cast<std::size_t>(m.FindFunction(name) - m.functions.data());
  };
  EXPECT_EQ(s.Globals(s.may_unlock(index("release"))), lock);
  EXPECT_EQ(s.Globals(s.may_unlock(index("outer"))), lock);
  EXPECT_TRUE(s.Globals(s.may_unlock(index("pure"))).empty());
}

TEST(LocksetTest, MustHeldCoversTheCriticalSection) {
  const MirModule m = Build(R"(
    sync int m;
    int g;
    void f(int id) {
      g = 1;
      lock(m);
      g = 2;
      unlock(m);
      g = 3;
    }
  )");
  const MirFunction& f = *m.FindFunction("f");
  const auto function = static_cast<std::size_t>(&f - m.functions.data());
  const LockFacts s(m);
  const std::vector<int> lock{GlobalIndex(m, "m")};
  // The store of 2 sits between lock and unlock; the stores of 1 and 3
  // don't. Identify them by the stored constant's op order.
  std::vector<bool> store_held;
  for (std::size_t i = 0; i < f.ops.size(); ++i) {
    if (f.ops[i].kind == MirOp::Kind::kStoreGlobal) {
      store_held.push_back(s.Globals(s.must_held(function, i)) == lock);
    }
  }
  ASSERT_EQ(store_held.size(), 3u);
  EXPECT_FALSE(store_held[0]);
  EXPECT_TRUE(store_held[1]);
  EXPECT_FALSE(store_held[2]);
}

// --- The bit-set lock analysis against the reference ------------------------

// The std::set lockset analysis LockFacts replaced, kept as the oracle. It
// looks every callee up by name and runs must-held as a round-robin pull
// fixed point that copies each predecessor's set on every sweep.
struct ReferenceSummaries {
  std::set<int> trusted_locks;
  std::vector<std::set<int>> may_unlock;  // per function
};

bool ReferenceIntersectInto(std::set<int>& into, const std::set<int>& with) {
  bool changed = false;
  for (auto it = into.begin(); it != into.end();) {
    if (!with.contains(*it)) {
      it = into.erase(it);
      changed = true;
    } else {
      ++it;
    }
  }
  return changed;
}

void ReferenceApplyKills(const MirModule& module, const MirOp& op,
                         const ReferenceSummaries& summaries, std::set<int>& held) {
  switch (op.kind) {
    case MirOp::Kind::kUnlock:
      held.erase(op.global);
      break;
    case MirOp::Kind::kCall: {
      const MirFunction* callee = module.FindFunction(op.callee);
      if (callee == nullptr) {
        held.clear();
        break;
      }
      const std::size_t c = static_cast<std::size_t>(callee - module.functions.data());
      for (const int lock : summaries.may_unlock[c]) {
        held.erase(lock);
      }
      break;
    }
    default:
      break;
  }
}

ReferenceSummaries ReferenceLockSummaries(const MirModule& module) {
  ReferenceSummaries summaries;
  summaries.may_unlock.assign(module.functions.size(), {});
  std::set<int> lock_words;
  std::set<int> tainted;
  for (const MirFunction& function : module.functions) {
    for (const MirOp& op : function.ops) {
      switch (op.kind) {
        case MirOp::Kind::kLock:
        case MirOp::Kind::kUnlock:
          lock_words.insert(op.global);
          break;
        case MirOp::Kind::kLoadGlobal:
        case MirOp::Kind::kStoreGlobal:
        case MirOp::Kind::kAddrGlobal:
          tainted.insert(op.global);
          break;
        case MirOp::Kind::kLoadIndex:
        case MirOp::Kind::kStoreIndex:
        case MirOp::Kind::kAddrIndex:
          if (op.array.space == VarRef::Space::kGlobal) {
            tainted.insert(op.array.index);
          }
          break;
        default:
          break;
      }
    }
  }
  std::set_difference(lock_words.begin(), lock_words.end(), tainted.begin(), tainted.end(),
                      std::inserter(summaries.trusted_locks, summaries.trusted_locks.end()));
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t f = 0; f < module.functions.size(); ++f) {
      std::set<int>& mine = summaries.may_unlock[f];
      const std::size_t before = mine.size();
      for (const MirOp& op : module.functions[f].ops) {
        if (op.kind == MirOp::Kind::kUnlock) {
          mine.insert(op.global);
        } else if (op.kind == MirOp::Kind::kCall) {
          const MirFunction* callee = module.FindFunction(op.callee);
          if (callee == nullptr) {
            mine.insert(summaries.trusted_locks.begin(), summaries.trusted_locks.end());
          } else {
            const std::size_t c = static_cast<std::size_t>(callee - module.functions.data());
            mine.insert(summaries.may_unlock[c].begin(), summaries.may_unlock[c].end());
          }
        }
      }
      changed |= mine.size() != before;
    }
  }
  return summaries;
}

std::vector<std::set<int>> ReferenceMustHeld(const MirModule& module, const MirFunction& function,
                                             const ReferenceSummaries& summaries) {
  const std::size_t n = function.ops.size();
  std::vector<std::set<int>> in(n, summaries.trusted_locks);
  if (n == 0) {
    return in;
  }
  in[0].clear();
  std::vector<std::vector<std::size_t>> preds(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (const std::size_t s : SuccessorsOf(function, i)) {
      preds[s].push_back(i);
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      std::set<int> merged;
      if (i == 0) {
        merged.clear();
      } else if (preds[i].empty()) {
        continue;
      } else {
        bool first = true;
        for (const std::size_t p : preds[i]) {
          std::set<int> out = in[p];
          const MirOp& op = function.ops[p];
          if (op.kind == MirOp::Kind::kLock && summaries.trusted_locks.contains(op.global)) {
            out.insert(op.global);
          }
          ReferenceApplyKills(module, op, summaries, out);
          if (first) {
            merged = std::move(out);
            first = false;
          } else {
            ReferenceIntersectInto(merged, out);
          }
        }
      }
      if (merged != in[i]) {
        in[i] = std::move(merged);
        changed = true;
      }
    }
  }
  return in;
}

std::set<int> ReferenceLocksHeldAcross(const MirModule& module, const MirFunction& function,
                                       const ReferenceSummaries& summaries,
                                       const std::vector<std::set<int>>& must_held, int from,
                                       const std::vector<int>& to) {
  const std::size_t n = function.ops.size();
  const std::set<int>& start = must_held[static_cast<std::size_t>(from)];
  if (start.empty() || to.empty()) {
    return {};
  }
  std::vector<std::set<int>> value(n, start);
  std::vector<bool> reached(n, false);
  reached[static_cast<std::size_t>(from)] = true;
  std::vector<std::size_t> worklist{static_cast<std::size_t>(from)};
  while (!worklist.empty()) {
    const std::size_t i = worklist.back();
    worklist.pop_back();
    std::set<int> out = value[i];
    ReferenceApplyKills(module, function.ops[i], summaries, out);
    for (const std::size_t s : SuccessorsOf(function, i)) {
      if (s == static_cast<std::size_t>(from)) {
        continue;
      }
      if (!reached[s]) {
        reached[s] = true;
        value[s] = out;
        worklist.push_back(s);
      } else if (ReferenceIntersectInto(value[s], out)) {
        worklist.push_back(s);
      }
    }
  }
  std::set<int> result = start;
  for (const int end : to) {
    if (reached[static_cast<std::size_t>(end)]) {
      ReferenceIntersectInto(result, value[static_cast<std::size_t>(end)]);
    }
  }
  return result;
}

std::set<int> AsSet(const std::vector<int>& globals) { return {globals.begin(), globals.end()}; }

// The widest lock bit any compared must-held set carried, and how many
// compared HeldAcross results were not empty.
int widest_must_held_bit = -1;
int nonempty_held_across = 0;

// Compares every fact LockFacts gives about `source`'s module with the
// reference: trusted locks, may-unlock sets, must-held at every op, and
// HeldAcross for every atomic region's (first access, ends) under all four
// annotator configurations, plus every short forward window (from op i to
// each of ops i+1..i+4, and to all four at once).
void ExpectLockFactsMatchReference(const std::string& source, const std::string& name) {
  SCOPED_TRACE(name);
  const MirModule module = Build(source);
  const LockFacts facts(module);
  const ReferenceSummaries reference = ReferenceLockSummaries(module);
  ASSERT_EQ(AsSet(facts.Globals(facts.trusted())), reference.trusted_locks);
  std::vector<std::vector<std::set<int>>> must_held;
  for (std::size_t f = 0; f < module.functions.size(); ++f) {
    const MirFunction& fn = module.functions[f];
    SCOPED_TRACE(fn.name);
    EXPECT_EQ(AsSet(facts.Globals(facts.may_unlock(f))), reference.may_unlock[f]);
    must_held.push_back(ReferenceMustHeld(module, fn, reference));
    for (std::size_t i = 0; i < fn.ops.size(); ++i) {
      const std::vector<int> held = facts.Globals(facts.must_held(f, i));
      ASSERT_EQ(AsSet(held), must_held[f][i]) << "op " << i;
      const auto lock_bit = [&](int global) {
        return static_cast<int>(std::find(facts.lock_words().begin(), facts.lock_words().end(),
                                          global) -
                                facts.lock_words().begin());
      };
      for (const int global : held) {
        widest_must_held_bit = std::max(widest_must_held_bit, lock_bit(global));
      }
    }
  }
  const auto expect_held_across = [&](std::size_t f, int from, const std::vector<int>& to) {
    const std::set<int> expected = ReferenceLocksHeldAcross(
        module, module.functions[f], reference, must_held[f], from, to);
    EXPECT_EQ(AsSet(facts.Globals(facts.HeldAcross(f, from, to).words())), expected)
        << module.functions[f].name << " from op " << from;
    nonempty_held_across += expected.empty() ? 0 : 1;
  };
  for (const bool interprocedural : {false, true}) {
    for (const bool precise_aliasing : {false, true}) {
      AnnotateOptions options;
      options.interprocedural = interprocedural;
      options.precise_aliasing = precise_aliasing;
      const ModuleAnnotations annotations = Annotate(module, options);
      for (std::size_t f = 0; f < module.functions.size(); ++f) {
        for (const FunctionAr& ar : annotations.functions[f].ars) {
          std::vector<int> ends;
          for (const auto& [op, type] : ar.ends) {
            ends.push_back(op);
          }
          expect_held_across(f, ar.first_op, ends);
        }
      }
    }
  }
  for (std::size_t f = 0; f < module.functions.size(); ++f) {
    const int n = static_cast<int>(module.functions[f].ops.size());
    for (int from = 0; from < n; ++from) {
      std::vector<int> window;
      for (int to = from + 1; to < std::min(n, from + 5); ++to) {
        expect_held_across(f, from, {to});
        window.push_back(to);
      }
      expect_held_across(f, from, window);
    }
  }
}

TEST(LockFactsTest, MatchesReferenceOnEveryAppCorpusBugAndGeneratedProgram) {
  nonempty_held_across = 0;
  for (const apps::App& app : apps::AllPerformanceApps()) {
    ExpectLockFactsMatchReference(app.source, app.workload.name);
  }
  for (const auto* corpus : {&apps::BugCorpus(), &apps::MultiVarBugCorpus()}) {
    for (const apps::BugInfo& bug : *corpus) {
      const apps::App app = apps::MakeBugApp(bug);
      ExpectLockFactsMatchReference(app.source, app.workload.name);
    }
  }
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    ExpectLockFactsMatchReference(testing::ProgramGenerator(seed).Generate(),
                                  "generated " + std::to_string(seed));
  }
  EXPECT_GE(nonempty_held_across, 100);
}

// No app or corpus bug has more than a handful of lock words, so only a
// generated module reaches sets of several words. `release_all` makes 150
// globals lock words; helpers lock and release them in overlapping nests,
// call each other (recursively) and a name no function defines, and two
// lock words are disqualified by a direct store. `worker` holds locks in
// all three words of its sets across those calls and a loop that releases
// and retakes the last one.
TEST(LockFactsTest, MatchesReferenceAcrossThreeSetWords) {
  constexpr int kLocks = 150;
  std::ostringstream source;
  source << "int g;\n";
  for (int l = 0; l < kLocks; ++l) {
    source << "sync int m" << l << ";\n";
  }
  source << "void release_all(int x) {\n";
  for (int l = 0; l < kLocks; ++l) {
    source << "  unlock(m" << l << ");\n";
  }
  source << "}\n";
  for (int h = 0; h < 6; ++h) {
    source << "void helper" << h << "(int x) {\n";
    for (int k = 0; k < 5; ++k) {
      const int l = (h * 37 + k * 29) % kLocks;
      source << "  lock(m" << l << ");\n  g = g + x;\n";
      if (k % 2 == 1) {
        source << "  unlock(m" << l << ");\n";
      }
    }
    if (h % 3 == 0) {
      source << "  m" << (h * 11 + 64) % kLocks << " = 0;\n";
    }
    if (h > 0) {
      source << "  if (x > " << h << ") { helper" << (h + 2) % 6 << "(x - 1); }\n";
    }
    if (h == 4) {
      source << "  mystery(x);\n";
    }
    source << "  g = g + 1;\n";
    for (int k = 4; k >= 0; k -= 2) {
      source << "  unlock(m" << (h * 37 + k * 29) % kLocks << ");\n";
    }
    source << "}\n";
  }
  const std::vector<int> held = {0, 40, 64, 80, 120, 130, 140, kLocks - 1};
  source << "void worker(int id) {\n";
  for (const int l : held) {
    source << "  lock(m" << l << ");\n";
  }
  source << "  g = g + id;\n  helper1(id);\n  g = g + 2;\n";
  source << "  for (int i = 0; i < id; i = i + 1) {\n    unlock(m" << kLocks - 1 << ");\n"
         << "    g = g + i;\n    lock(m" << kLocks - 1 << ");\n  }\n  g = g - 1;\n";
  for (const int l : held) {
    source << "  unlock(m" << l << ");\n";
  }
  source << "  g = g - 1;\n}\n";
  widest_must_held_bit = -1;
  nonempty_held_across = 0;
  ExpectLockFactsMatchReference(source.str(), "generated, 150 lock words");
  EXPECT_GE(widest_must_held_bit, 128);
  EXPECT_GE(nonempty_held_across, 20);
}

// --- Class-based remoteness against per-function remote sets -----------------
//
// The analyzer used to build, for every function f, the std::set of
// functions whose code may run concurrently with f, and to scan every op of
// each of them for every AR. That grew with the square of the function
// count. The reference below keeps that rule and that scan verbatim; the
// analyzer, which decides remoteness from thread classes and scans each
// function's accesses listed once, must give the same report.

struct ReferenceClass {
  int function = -1;
  int count = 1;
  std::set<int> reach;
};

int ReferenceIndexOf(const MirModule& module, const MirFunction* function) {
  return static_cast<int>(function - module.functions.data());
}

std::set<int> ReferenceReachable(const MirModule& module, int root) {
  std::set<int> seen{root};
  std::vector<int> work{root};
  while (!work.empty()) {
    const int f = work.back();
    work.pop_back();
    for (const MirOp& op : module.functions[static_cast<std::size_t>(f)].ops) {
      if (op.kind != MirOp::Kind::kCall) {
        continue;
      }
      const MirFunction* callee = module.FindFunction(op.callee);
      if (callee != nullptr && seen.insert(ReferenceIndexOf(module, callee)).second) {
        work.push_back(ReferenceIndexOf(module, callee));
      }
    }
  }
  return seen;
}

std::vector<ReferenceClass> ReferenceClasses(const MirModule& module,
                                             const ConflictOptions& options) {
  std::vector<ReferenceClass> classes;
  std::set<int> have_root;
  if (options.roots.empty()) {
    for (std::size_t f = 0; f < module.functions.size(); ++f) {
      classes.push_back({static_cast<int>(f), 2, ReferenceReachable(module, static_cast<int>(f))});
    }
    return classes;
  }
  for (const auto& [name, count] : options.roots) {
    const MirFunction* fn = module.FindFunction(name);
    if (fn == nullptr) {
      continue;
    }
    const int index = ReferenceIndexOf(module, fn);
    if (have_root.insert(index).second) {
      classes.push_back({index, count, ReferenceReachable(module, index)});
    } else {
      for (ReferenceClass& c : classes) {
        if (c.function == index) {
          c.count += count;
        }
      }
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    std::vector<int> pending;
    for (const ReferenceClass& c : classes) {
      for (const int f : c.reach) {
        for (const MirOp& op : module.functions[static_cast<std::size_t>(f)].ops) {
          if (op.kind != MirOp::Kind::kSpawn) {
            continue;
          }
          const MirFunction* target = module.FindFunction(op.callee);
          if (target != nullptr && have_root.insert(ReferenceIndexOf(module, target)).second) {
            pending.push_back(ReferenceIndexOf(module, target));
          }
        }
      }
    }
    for (const int index : pending) {
      classes.push_back({index, 2, ReferenceReachable(module, index)});
      changed = true;
    }
  }
  return classes;
}

// remote[f]: the functions whose code may run on a thread concurrent with
// one executing f.
std::vector<std::set<int>> ReferenceRemoteFunctions(const MirModule& module,
                                                    const std::vector<ReferenceClass>& classes) {
  std::vector<std::set<int>> remote(module.functions.size());
  std::vector<std::vector<std::size_t>> classes_of(module.functions.size());
  for (std::size_t c = 0; c < classes.size(); ++c) {
    for (const int f : classes[c].reach) {
      classes_of[static_cast<std::size_t>(f)].push_back(c);
    }
  }
  for (std::size_t f = 0; f < module.functions.size(); ++f) {
    for (std::size_t c = 0; c < classes.size(); ++c) {
      bool concurrent = false;
      for (const std::size_t c0 : classes_of[f]) {
        if (c0 != c || classes[c].count >= 2) {
          concurrent = true;
          break;
        }
      }
      if (concurrent) {
        remote[f].insert(classes[c].reach.begin(), classes[c].reach.end());
      }
    }
  }
  return remote;
}

ConflictReport ReferenceConflicts(const MirModule& module, const ModuleAnnotations& annotations,
                                  const LockFacts& locks, const ConflictOptions& options) {
  const std::vector<std::set<int>> remote =
      ReferenceRemoteFunctions(module, ReferenceClasses(module, options));
  std::set<int> taken;
  for (const MirFunction& function : module.functions) {
    for (const MirOp& op : function.ops) {
      if (op.kind == MirOp::Kind::kAddrGlobal) {
        taken.insert(op.global);
      } else if (op.kind == MirOp::Kind::kAddrIndex && op.array.space == VarRef::Space::kGlobal) {
        taken.insert(op.array.index);
      }
    }
  }
  LockSet sync_locks = locks.EmptySet();
  for (std::size_t b = 0; b < locks.lock_words().size(); ++b) {
    if (module.globals[static_cast<std::size_t>(locks.lock_words()[b])].is_sync) {
      sync_locks.insert(b);
    }
  }
  ConflictReport report;
  report.ars.resize(annotations.infos.size());
  for (std::size_t f = 0; f < module.functions.size(); ++f) {
    for (const FunctionAr& ar : annotations.functions[f].ars) {
      ArConflict conflict;
      conflict.id = ar.id;
      // pair_case depends on the AR alone and is left out.
      std::vector<std::pair<std::size_t, std::size_t>> site_ops;
      const bool local_identity = ar.var.space == VarRef::Space::kLocal;
      const bool via_pointer_reachable = local_identity || taken.contains(ar.var.index);
      for (const int g : remote[f]) {
        const MirFunction& fn = module.functions[static_cast<std::size_t>(g)];
        for (std::size_t i = 0; i < fn.ops.size(); ++i) {
          const auto access = SharedAccessOf(fn.ops[i]);
          if (!access.has_value() || !Matches(ar.watch, access->type)) {
            continue;
          }
          const bool is_ptr_deref = fn.ops[i].kind == MirOp::Kind::kLoadPtr ||
                                    fn.ops[i].kind == MirOp::Kind::kStorePtr;
          bool aliases = false;
          bool via_pointer = false;
          if (local_identity) {
            aliases = true;
            via_pointer = true;
          } else if (access->base.space == VarRef::Space::kGlobal &&
                     access->base.index == ar.var.index) {
            aliases = true;
          } else if (via_pointer_reachable && is_ptr_deref) {
            aliases = true;
            via_pointer = true;
          }
          if (aliases) {
            conflict.remote_sites.push_back(
                {fn.name, static_cast<int>(i), fn.ops[i].line, access->type, via_pointer});
            site_ops.emplace_back(static_cast<std::size_t>(g), i);
          }
        }
      }
      if (conflict.remote_sites.empty()) {
        conflict.verdict = ArVerdict::kNoRemoteWriter;
      } else {
        std::vector<int> ends;
        for (const auto& [op, type] : ar.ends) {
          ends.push_back(op);
        }
        LockSet held = locks.HeldAcross(f, ar.first_op, ends);
        locks.ReleaseByCall(f, static_cast<std::size_t>(ar.first_op), held);
        for (const int end : ends) {
          locks.ReleaseByCall(f, static_cast<std::size_t>(end), held);
        }
        held.IntersectWith(sync_locks.words());
        for (std::size_t s = 0; s < site_ops.size() && !held.empty(); ++s) {
          held.IntersectWith(locks.must_held(site_ops[s].first, site_ops[s].second));
          locks.ReleaseByCall(site_ops[s].first, site_ops[s].second, held);
        }
        if (!held.empty()) {
          conflict.verdict = ArVerdict::kLockProtected;
          conflict.lock = module.globals[static_cast<std::size_t>(
                                             locks.lock_words()[static_cast<std::size_t>(
                                                 held.first())])]
                              .name;
          conflict.remote_sites.clear();
        } else {
          conflict.verdict = ArVerdict::kWatchRequired;
        }
      }
      switch (conflict.verdict) {
        case ArVerdict::kNoRemoteWriter:
          ++report.no_remote_writer;
          break;
        case ArVerdict::kLockProtected:
          ++report.lock_protected;
          break;
        case ArVerdict::kWatchRequired:
          ++report.watch_required;
          break;
      }
      if (options.prune && conflict.verdict != ArVerdict::kWatchRequired) {
        report.pruned.insert(conflict.id);
      }
      report.ars[conflict.id - 1] = std::move(conflict);
    }
  }
  return report;
}

int remote_site_total = 0;  // over every comparison, to show the inputs bite
int verdict_kinds_seen = 0;  // bit per ArVerdict

void ExpectSameReport(const ConflictReport& actual, const ConflictReport& expected) {
  ASSERT_EQ(actual.ars.size(), expected.ars.size());
  EXPECT_EQ(actual.no_remote_writer, expected.no_remote_writer);
  EXPECT_EQ(actual.lock_protected, expected.lock_protected);
  EXPECT_EQ(actual.watch_required, expected.watch_required);
  EXPECT_EQ(actual.pruned, expected.pruned);
  for (std::size_t i = 0; i < actual.ars.size(); ++i) {
    const ArConflict& a = actual.ars[i];
    const ArConflict& e = expected.ars[i];
    SCOPED_TRACE("AR " + std::to_string(e.id));
    EXPECT_EQ(a.id, e.id);
    EXPECT_EQ(a.verdict, e.verdict);
    EXPECT_EQ(a.lock, e.lock);
    ASSERT_EQ(a.remote_sites.size(), e.remote_sites.size());
    for (std::size_t s = 0; s < a.remote_sites.size(); ++s) {
      EXPECT_EQ(a.remote_sites[s].function, e.remote_sites[s].function) << "site " << s;
      EXPECT_EQ(a.remote_sites[s].op, e.remote_sites[s].op) << "site " << s;
      EXPECT_EQ(a.remote_sites[s].line, e.remote_sites[s].line) << "site " << s;
      EXPECT_EQ(a.remote_sites[s].type, e.remote_sites[s].type) << "site " << s;
      EXPECT_EQ(a.remote_sites[s].via_pointer, e.remote_sites[s].via_pointer) << "site " << s;
    }
    remote_site_total += static_cast<int>(e.remote_sites.size());
    verdict_kinds_seen |= 1 << static_cast<int>(e.verdict);
  }
}

// Both root shapes (the given roots, and none: every function concurrent),
// under the paper's annotator and both extensions, before and after fusion.
void ExpectConflictsMatchReference(const std::string& source, const std::string& name,
                                   const std::vector<std::pair<std::string, int>>& roots) {
  SCOPED_TRACE(name);
  const MirModule module = Build(source);
  const LockFacts locks(module);
  for (const bool given_roots : {true, false}) {
    SCOPED_TRACE(given_roots ? "given roots" : "no roots");
    ConflictOptions options;
    if (given_roots) {
      options.roots = roots;
    }
    const ConflictAnalyzer analyzer(module, locks, options);
    for (const bool extended : {false, true}) {
      SCOPED_TRACE(extended ? "interprocedural, precise aliasing" : "paper annotator");
      AnnotateOptions annotate;
      annotate.interprocedural = extended;
      annotate.precise_aliasing = extended;
      ModuleAnnotations annotations = Annotate(module, annotate);
      const ConflictReport before = analyzer.Run(annotations);
      ExpectSameReport(before, ReferenceConflicts(module, annotations, locks, options));
      ExpectSameReport(AnalyzeConflicts(module, annotations, locks, options), before);
      if (CorrelateAndFuse(module, annotations, before, locks).changed) {
        ExpectSameReport(analyzer.Run(annotations),
                         ReferenceConflicts(module, annotations, locks, options));
      }
    }
  }
}

TEST(ConflictRemotenessTest, MatchesPerFunctionRemoteSetsOnAppsBugsAndGeneratedPrograms) {
  remote_site_total = 0;
  verdict_kinds_seen = 0;
  for (const apps::App& app : apps::AllPerformanceApps()) {
    ExpectConflictsMatchReference(app.source, app.workload.name,
                                  ThreadRoots(app.workload.threads));
  }
  for (const auto* corpus : {&apps::BugCorpus(), &apps::MultiVarBugCorpus()}) {
    for (const apps::BugInfo& bug : *corpus) {
      const apps::App app = apps::MakeBugApp(bug);
      ExpectConflictsMatchReference(app.source, app.workload.name,
                                  ThreadRoots(app.workload.threads));
    }
  }
  // One worker thread plus one thread on helper0, which the worker may also
  // call: helper0 is then reached by two classes, every other helper by the
  // worker's alone.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    ExpectConflictsMatchReference(testing::ProgramGenerator(seed).Generate(),
                                  "generated " + std::to_string(seed),
                                  {{"worker", 1}, {"helper0", 1}});
  }
  EXPECT_GE(remote_site_total, 1000);
  EXPECT_EQ(verdict_kinds_seen, 0b111);
}

TEST(ConflictRemotenessTest, MatchesOnSpawnTargetsAndUnreachedFunctions) {
  // main runs alone and spawns reader and writer (2 threads each); helper is
  // reached by main's class and reader's; orphan is reached by no class, so
  // its accesses are nobody's remote sites and its own AR has none; a root
  // naming no function is ignored; main is named twice.
  const std::string source = R"(
    sync int m;
    int g;
    int h;
    int lonely;
    int *p;
    void helper(int x) {
      int t = g;
      g = t + x;
    }
    void reader(int x) {
      int t = h;
      h = t + 1;
      helper(x);
    }
    void writer(int x) {
      p = &h;
      *p = x;
      lock(m);
      g = x;
      unlock(m);
    }
    void orphan(int x) {
      int t = lonely;
      lonely = t + 1;
      g = x;
      h = x;
    }
    void main(int id) {
      int t = g;
      g = t + 1;
      int s = lonely;
      lonely = s + 1;
      spawn reader(1);
      spawn writer(2);
      helper(id);
    }
  )";
  remote_site_total = 0;
  ExpectConflictsMatchReference(source, "spawned", {{"main", 1}, {"absent", 1}});
  ExpectConflictsMatchReference(source, "main twice", {{"main", 1}, {"main", 1}});
  ExpectConflictsMatchReference(source, "orphan as a root", {{"orphan", 1}, {"main", 1}});
  EXPECT_GE(remote_site_total, 20);
  const Analysis a = Analyze(source, {true, {{"main", 1}}});
  EXPECT_EQ(ArOn(a, "orphan", "lonely").verdict, ArVerdict::kNoRemoteWriter);
  EXPECT_EQ(ArOn(a, "main", "lonely").verdict, ArVerdict::kNoRemoteWriter);
  EXPECT_EQ(ArOn(a, "main", "g").verdict, ArVerdict::kWatchRequired);
}

}  // namespace
}  // namespace kivati
