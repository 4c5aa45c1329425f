// Atomic-region analysis and annotation (paper §2.2, §3.1).
//
// For each subroutine, a path-insensitive forward data-flow analysis finds
// every pair of consecutive accesses to the same shared variable (like
// reaching definitions, but preceding *reads* also reach). Pairs sharing the
// same first access are merged into one atomic region whose remote watch
// type is the union over its possible second accesses (Figure 6, including
// the bottom-right case where both remote reads and writes must be watched);
// the end_atomic at each second-access site carries that site's access type
// so the kernel can decide serializability once the taken path is known.
#ifndef KIVATI_ANALYSIS_ATOMIC_REGIONS_H_
#define KIVATI_ANALYSIS_ATOMIC_REGIONS_H_

#include <compare>
#include <map>
#include <span>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "analysis/lsv.h"
#include "analysis/mir.h"

namespace kivati {

// One atomic region found in a function.
struct FunctionAr {
  ArId id = kInvalidAr;
  VarRef var;                      // the shared variable (name-based identity)
  int first_op = -1;               // op index of the first local access
  AccessType first_type = AccessType::kRead;
  WatchType watch = WatchType::kNone;  // union over possible second accesses
  // Every op after which an end_atomic for this AR is placed, with the
  // access type that op performs.
  std::vector<std::pair<int, AccessType>> ends;
  bool is_sync = false;            // variable carries the `sync` qualifier
  bool needs_replica = false;      // first access is a write (optimization 3)

  // Correlated-variable fusion (analysis/correlation.h). `group` links the
  // member ARs of one multi-variable region (0 = ordinary single-variable
  // AR); `joint_types` is the union of access types the *other* member
  // variables perform inside the region, which the kernel folds into the
  // serializability decision at end_atomic; `synthesized` marks ARs the
  // fusion pass created for a member variable that had no AR of its own.
  int group = 0;
  WatchType joint_types = WatchType::kNone;
  bool synthesized = false;
};

struct FunctionAnnotations {
  std::vector<FunctionAr> ars;
};

// Debug metadata so violation reports can name the variable and function.
struct ArDebugInfo {
  ArId id = kInvalidAr;
  std::string function;
  std::string variable;
  // Source line of the region's *first* access. Pairs sharing a first access
  // merge into one AR (Figure 6 union) and fusion may extend the region over
  // later member accesses, but the cited line never moves off the first
  // access (analysis_test: MergedRegionCitesFirstAccessLine).
  int line = 0;
  AccessType first_type = AccessType::kRead;
  WatchType watch = WatchType::kNone;  // remote watch condition (Figure 6)
  bool is_sync = false;
  int num_ends = 0;  // end_atomic sites of the region

  // Multi-variable regions: the correlation group id (0 = single-variable),
  // the names of the other member variables, the joint access-type mask and
  // whether this AR was synthesized by the fusion pass.
  int group = 0;
  std::vector<std::string> correlated;
  WatchType joint_types = WatchType::kNone;
  bool synthesized = false;
};

struct ModuleAnnotations {
  std::vector<FunctionAnnotations> functions;  // parallel to module.functions
  std::unordered_set<ArId> sync_ars;
  std::vector<ArDebugInfo> infos;              // indexed by (id - 1)

  const ArDebugInfo* InfoFor(ArId ar) const {
    if (ar == kInvalidAr || ar == 0 || ar > infos.size()) {
      return nullptr;
    }
    return &infos[ar - 1];
  }
};

// Precision extensions beyond the paper's prototype (its §3.5/§6 future
// work). Both default off, matching the published system.
struct AnnotateOptions {
  // Treat a call as an access to every global the callee (transitively) may
  // touch, so access pairs spanning subroutine calls become atomic regions
  // bracketing the call site.
  bool interprocedural = false;
  // (a) Unify pointer locals connected by copies, so *p and *q pair when q
  // derives from p; (b) give array accesses with provably constant indices
  // per-element identity instead of whole-array identity.
  bool precise_aliasing = false;

  auto operator<=>(const AnnotateOptions&) const = default;
};

// One function's access-pair data flow, as its solver sees it. A site is
// one shared-variable access: an op usually hosts one, and a call op under
// inter-procedural analysis hosts one per global its callee may touch.
struct AccessSite {
  std::size_t op = 0;
  int identity = 0;  // dense id of the variable identity, < num_identities
  AccessType type = AccessType::kRead;
};
// Each op's CFG predecessors, ascending, in one flat array: op i's are
// flat[start[i], start[i + 1]).
struct OpPredecessors {
  std::vector<std::size_t> start;  // per op, and one past the last
  std::vector<std::size_t> flat;

  std::size_t size() const { return start.empty() ? 0 : start.size() - 1; }
  std::span<const std::size_t> operator[](std::size_t op) const {
    return {flat.data() + start[op], start[op + 1] - start[op]};
  }
};
struct PairingProblem {
  // Site ids index `sites`, which is in op order; one op's sites apply in
  // the order listed.
  std::vector<AccessSite> sites;
  OpPredecessors preds;  // per op: CFG predecessors
  int num_identities = 0;
};

// Every (first, second) pair of distinct site ids such that `first` may be
// the most recent access to `second`'s identity when `second` executes,
// sorted. Path-insensitive forward data flow (like reaching definitions,
// but reads reach too), iterated round-robin over the ops to the fixed
// point. Each op's reaching state is a bitset over the function's sites.
using AccessPairs = std::vector<std::pair<int, int>>;
AccessPairs SolveAccessPairs(const PairingProblem& problem);

// Runs LSV + pairing over every function; assigns globally unique AR ids
// starting at 1. `solver` replaces SolveAccessPairs, so tests can check it
// against a reference solver.
ModuleAnnotations Annotate(const MirModule& module, const AnnotateOptions& options = {},
                           AccessPairs (*solver)(const PairingProblem&) = SolveAccessPairs);

// The (read, write) may-access sets over globals, per function, transitively
// including callees. Exposed for tests and tools.
struct GlobalAccessSummary {
  // global index -> (may_read, may_write)
  std::map<int, std::pair<bool, bool>> globals;
};
std::vector<GlobalAccessSummary> ComputeCallSummaries(const MirModule& module);

}  // namespace kivati

#endif  // KIVATI_ANALYSIS_ATOMIC_REGIONS_H_
