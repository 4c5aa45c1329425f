// Correlated-variable inference and multi-variable region fusion.
//
// Kivati's annotator (analysis/atomic_regions.h) is single-variable: it only
// pairs consecutive accesses to the *same* shared variable, so the classic
// len/buf family of multi-variable atomicity violations is structurally
// invisible to the whole pipeline. This pass ports the MUVI idea of
// access-together sets onto the MIR: two shared globals correlate when their
// accesses are control-flow adjacent — inside one *window* of straight-line
// ops with no intervening release point (call, spawn, lock/unlock, sleep,
// io, yield, return) — in at least kMinSupport distinct functions, and no
// common trusted lock already serializes every such co-access (the PR 3
// lockset/conflict machinery; provably-protected pairs never correlate).
//
// Surviving pairs union into correlated sets, and the pass then *fuses* the
// annotator output: inside every window where a set's members co-occur and
// at least one member already carries a FunctionAr, the member ARs become
// one multi-variable region —
//
//   * each host AR's end_atomic moves to the window's last member access, so
//     the region stays open across the whole group update;
//   * members with an access in the window but no AR of their own get a
//     synthesized AR (first access -> window end), so the kernel arms one
//     watchpoint per member variable;
//   * every member AR records `joint_types`, the union of the access types
//     the other members perform inside the region. The kernel applies the
//     Figure-2 rule over that mask at end_atomic: a remote write is
//     non-serializable evidence if any member read executed in the region,
//     a remote read if any member write did (joint serializability).
//
// Modules where nothing fuses are left byte-identical: the pass only
// mutates ModuleAnnotations when a rewrite actually happens, and single-
// variable ARs keep joint_types == kNone, which makes the kernel's joint
// clause a no-op (docs/correlation.md).
#ifndef KIVATI_ANALYSIS_CORRELATION_H_
#define KIVATI_ANALYSIS_CORRELATION_H_

#include <cstddef>
#include <string>
#include <vector>

#include "analysis/atomic_regions.h"
#include "analysis/conflict.h"
#include "analysis/lockset.h"
#include "analysis/mir.h"

namespace kivati {

// A pair must co-occur in at least this many distinct functions. The MUVI
// support threshold: one function touching two variables side by side is
// coincidence; the same two variables travelling together across the module
// is a correlation.
inline constexpr int kMinSupport = 2;

// One co-access observation: a window in `function` where both members of a
// pair were accessed with no release point between them.
struct CoAccessSite {
  std::string function;
  int op_a = -1;  // MIR op index of the pair's first-seen access
  int op_b = -1;  // ... and of the other member's access in the same window
  int line = 0;   // source line of the window's first member access
  AccessType a_type = AccessType::kRead;
  AccessType b_type = AccessType::kRead;
};

// Why a candidate pair was discarded.
enum class PairPruneReason : std::uint8_t {
  kNone,           // kept
  kLockProtected,  // a common trusted lock covers every co-access window
  kLowSupport,     // co-occurs in fewer than kMinSupport functions
};

const char* ToString(PairPruneReason reason);

struct CorrelatedPair {
  int a = -1;  // global index, a < b
  int b = -1;
  std::string a_name;  // resolved so the report outlives the MIR module
  std::string b_name;
  std::vector<CoAccessSite> sites;  // evidence, in function/op order
  int support = 0;                  // distinct functions with a co-access
  PairPruneReason pruned = PairPruneReason::kNone;
  // kLockProtected: the trusted lock held across every co-access window.
  std::string lock;
};

// One inferred access-together set (a union-find component of kept pairs).
struct CorrelatedSet {
  int id = 0;                     // 1-based; FunctionAr::group of members
  std::vector<int> members;       // global indices, sorted
  std::vector<std::string> member_names;  // parallel to members
  std::vector<CorrelatedPair> pairs;
  int support = 0;                // max support over the member pairs
  std::size_t fused_ars = 0;      // existing ARs extended into the region
  std::size_t synthesized_ars = 0;
};

struct CorrelationReport {
  // Kept sets, ranked: strongest support first, larger sets break ties.
  std::vector<CorrelatedSet> sets;
  // Candidate pairs the lockset/support pruning discarded (evidence kept so
  // `kivati analyze` can show *why* nothing correlated).
  std::vector<CorrelatedPair> rejected;
  std::size_t fused_ars = 0;        // total over sets
  std::size_t synthesized_ars = 0;  // total over sets
  bool changed = false;             // annotations were rewritten
};

// Runs the inference over `module` and rewrites `annotations` in place.
// `conflict` supplies the conflict analysis's verdicts: a variable whose
// every AR is lock-protected is treated as protected and never correlates.
// `locks` is the module's lock analysis, the same one the conflict runs
// read. Synthesized ARs are appended with fresh ids following
// annotations.infos; callers must re-run AnalyzeConflicts afterwards when
// report.changed (compile/compiler.cc does).
CorrelationReport CorrelateAndFuse(const MirModule& module, ModuleAnnotations& annotations,
                                   const ConflictReport& conflict, const LockFacts& locks);

// Human-readable ranked report (the `correlated-sets` section of
// `kivati analyze`).
std::string FormatCorrelationReport(const CorrelationReport& report);

// Machine-readable JSON object (embedded in the analyze --json envelope).
std::string CorrelationReportJson(const CorrelationReport& report);

}  // namespace kivati

#endif  // KIVATI_ANALYSIS_CORRELATION_H_
