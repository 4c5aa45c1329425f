// Whole-module conflict analysis: which atomic regions can actually be
// violated?
//
// The annotator (analysis/atomic_regions.h) is deliberately per-function and
// over-approximate: every access pair over an LSV member becomes an atomic
// region, even when no other thread can ever conflict with it. This pass
// looks at the whole module — thread roots, spawn sites, the call graph and
// the lock()/unlock() intrinsics — and classifies every AR:
//
//  * no-remote-writer: no concurrently-reachable code performs an access the
//    AR's watch type would trap on. The AR cannot be violated; its
//    annotations can be dropped.
//  * lock-protected: dangerous remote accesses exist, but a common trusted
//    `sync` lock is held continuously across the local access pair AND at
//    every dangerous remote site, so mutual exclusion already serializes
//    them. Annotations can be dropped.
//  * watch-required: a dangerous remote access may interleave; the AR keeps
//    its annotations. The report lists the conflicting sites and the
//    Figure-6 case that makes them dangerous.
//
// Aliasing follows the module's name-based identity discipline (§3.5):
// pointers are assumed to target address-taken objects only. ARs whose
// variable identity is a local (a pointer dereference or an address-taken
// local) are treated maximally conservatively — any concurrent memory access
// may alias them.
#ifndef KIVATI_ANALYSIS_CONFLICT_H_
#define KIVATI_ANALYSIS_CONFLICT_H_

#include <cstdint>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "analysis/atomic_regions.h"
#include "analysis/lockset.h"
#include "analysis/mir.h"

namespace kivati {

enum class ArVerdict : std::uint8_t {
  kNoRemoteWriter,  // prune: nothing concurrent can trap this AR's watch
  kLockProtected,   // prune: a common lock serializes every dangerous access
  kWatchRequired,   // keep: a dangerous remote access may interleave
};

const char* ToString(ArVerdict verdict);

struct ConflictOptions {
  // Drop begin/end_atomic and replica stores for pruned ARs at codegen.
  bool prune = true;
  // Thread roots: (function name, number of threads started on it). Empty
  // means the thread structure is unknown — every function is then assumed
  // to run on two concurrent threads, the sound fallback.
  std::vector<std::pair<std::string, int>> roots;
};

// The thread roots of a thread list ((function, r0 argument) pairs): each
// distinct entry function, in order of first appearance, with the number of
// threads started on it. An empty list gives no roots, the sound fallback.
std::vector<std::pair<std::string, int>> ThreadRoots(
    const std::vector<std::pair<std::string, std::uint64_t>>& threads);

// One concurrently-reachable access that can trap an AR's watchpoint.
struct RemoteSite {
  std::string function;
  int op = -1;  // MIR op index within `function`
  int line = 0;
  AccessType type = AccessType::kRead;
  // True when the site reaches the variable through a pointer dereference
  // (or the AR's own identity is pointer-based) rather than by name.
  bool via_pointer = false;
};

struct ArConflict {
  ArId id = kInvalidAr;
  ArVerdict verdict = ArVerdict::kWatchRequired;
  // Figure-6 shape of the local pair, e.g. "R..W watches remote RW".
  std::string pair_case;
  // lock-protected: the name of the protecting sync lock.
  std::string lock;
  // watch-required: the dangerous remote sites (deduplicated, ordered).
  std::vector<RemoteSite> remote_sites;
};

struct ConflictReport {
  std::vector<ArConflict> ars;  // indexed by (id - 1)
  std::size_t no_remote_writer = 0;
  std::size_t lock_protected = 0;
  std::size_t watch_required = 0;
  // AR ids whose annotations codegen should drop. Empty when options.prune
  // is false (the verdicts above are still computed and reported).
  std::unordered_set<ArId> pruned;
};

// What every conflict run over one module reads, derived once: which
// functions may run concurrently with which, the address-taken globals, the
// `sync` lock words, and every function's shared accesses. `Run` classifies
// one set of annotations; the compiler runs it before and after fusion,
// which rewrites the annotations but never the module
// (compile/compiler.cc). `locks` must be the module's own
// (analysis/lockset.h). `module`, `locks` and `options` must outlive the
// analyzer, which, like `locks`, is not safe to share across threads.
class ConflictAnalyzer {
 public:
  ConflictAnalyzer(const MirModule& module, const LockFacts& locks,
                   const ConflictOptions& options);

  ConflictReport Run(const ModuleAnnotations& annotations) const;

 private:
  // One op's shared access (mir.h's SharedAccessOf).
  struct Access {
    std::uint32_t function = 0;
    std::uint32_t op = 0;
    VarRef base;
    AccessType type = AccessType::kRead;
    bool via_deref = false;  // kLoadPtr / kStorePtr
  };

  void AssignThreadClasses();
  // Whether code of function `g` may run on a thread concurrent with one
  // executing function `f`.
  bool Remote(std::size_t f, std::size_t g) const;
  ArConflict Classify(std::size_t f, const FunctionAr& ar) const;
  int FindProtectingLock(std::size_t f, const FunctionAr& ar) const;

  const MirModule& module_;
  const LockFacts& locks_;
  const ConflictOptions& options_;
  // Per function: the index of the only thread class that reaches it, or a
  // marker for none or several (conflict.cc). A thread class is a root or
  // spawn target with everything it reaches through calls (docs/analysis.md
  // §3).
  std::vector<int> home_;
  std::vector<int> class_threads_;  // per class: how many threads run it
  std::vector<bool> address_taken_;  // per global
  LockSet sync_locks_;               // lock words declared `sync`
  std::vector<Access> accesses_;     // in (function, op) order
  // Scratch of one AR's classification, kept across ARs and runs: its
  // remote sites' (function, op), and its end ops.
  mutable std::vector<std::pair<std::size_t, std::size_t>> site_ops_;
  mutable std::vector<int> ends_;
};

// One run of ConflictAnalyzer.
ConflictReport AnalyzeConflicts(const MirModule& module, const ModuleAnnotations& annotations,
                                const LockFacts& locks, const ConflictOptions& options = {});

// Human-readable ranked report: watch-required ARs first (most remote sites
// first), then the pruned verdicts. `infos` is ModuleAnnotations::infos.
std::string FormatConflictReport(const ConflictReport& report,
                                 const std::vector<ArDebugInfo>& infos);

// Machine-readable single-object JSON (same style as `kivati run --json`).
std::string ConflictReportJson(const ConflictReport& report,
                               const std::vector<ArDebugInfo>& infos);

}  // namespace kivati

#endif  // KIVATI_ANALYSIS_CONFLICT_H_
