// Eraser-style lockset analysis over the lock/unlock intrinsics.
//
// LockFacts holds what the analysis knows about one module. The compiler
// builds it once per compile and hands it to both conflict runs, to
// correlation and to its own trusted-lock loop (compile/compiler.cc). It
// answers four questions:
//
//  * trusted() — which lock globals qualify as locks at all: used only via
//    lock()/unlock(). A lock word that is also stored to or address-taken
//    cannot guarantee mutual exclusion and is disqualified.
//  * may_unlock() — per function, which lock globals a call to it may
//    (transitively) release.
//  * must_held() — per op, the trusted locks certainly held when the op
//    executes (intersection over all paths; function entry assumed
//    lock-free, which under-approximates and is therefore sound).
//  * HeldAcross() — the locks held *continuously* from one op to a set of
//    later ops. Must-held at both endpoints is not enough for atomicity: an
//    unlock/relock between the two accesses of an atomic region opens a
//    window for a remote lock-protected access, so continuity is what the
//    lock-protected verdict requires.
//
// Every set is a bit set over the module's lock words (LockSet). Call ops
// name their callee by index (MirOp::callee_index).
#ifndef KIVATI_ANALYSIS_LOCKSET_H_
#define KIVATI_ANALYSIS_LOCKSET_H_

#include <cstdint>
#include <span>
#include <vector>

#include "analysis/mir.h"

namespace kivati {

// A set of lock words: bit b stands for LockFacts::lock_words()[b]. The sets
// of one module all span the same number of 64-bit words, so any number of
// lock words fits.
class LockSet {
 public:
  using Word = std::uint64_t;

  LockSet() = default;
  // The empty set over `words` words.
  explicit LockSet(std::size_t words) : words_(words, 0) {}
  explicit LockSet(std::span<const Word> words) : words_(words.begin(), words.end()) {}

  bool empty() const;
  // The lowest bit in the set, or -1 when it is empty.
  int first() const;
  void insert(std::size_t bit) { words_[bit / 64] |= Word{1} << (bit % 64); }
  void clear();
  void IntersectWith(std::span<const Word> other);
  void Subtract(std::span<const Word> other);
  std::span<const Word> words() const { return words_; }

 private:
  std::vector<Word> words_;
};

class LockFacts {
 public:
  using Word = LockSet::Word;

  // Finds the lock words, the trusted locks and every function's may-unlock
  // set. Must-held sets are solved per function on first use. `module` must
  // outlive this object, and the object is not safe to share across threads.
  explicit LockFacts(const MirModule& module);

  // Globals used as lock()/unlock() operands, ascending.
  const std::vector<int>& lock_words() const { return lock_words_; }
  // A set over this module's lock words with no bit set.
  LockSet EmptySet() const { return LockSet(words_); }
  // The globals of `set`, ascending.
  std::vector<int> Globals(std::span<const Word> set) const;

  std::span<const Word> trusted() const { return trusted_; }
  // Lock words a call to `function` may release, transitively through its
  // callees. A call to an unresolvable name below it may release every
  // trusted lock.
  std::span<const Word> may_unlock(std::size_t function) const {
    return {may_unlock_.data() + function * words_, words_};
  }
  // Trusted locks certainly held at the entry of op `op` (before it runs).
  std::span<const Word> must_held(std::size_t function, std::size_t op) const;

  // The subset of must_held(function, from) that survives — is never
  // released — along every path from op `from` to each op in `to`
  // (evaluated at the entry of each target op). Paths that loop back
  // through `from` restart the window, matching begin_atomic semantics (the
  // kernel tracks the most recent first access).
  LockSet HeldAcross(std::size_t function, int from, std::span<const int> to) const;

  // Clears from `held` what op `op` may release if it is a call: its
  // callee's may-unlock set, or everything when the callee is unresolvable.
  // Other ops leave `held` as it is.
  void ReleaseByCall(std::size_t function, std::size_t op, LockSet& held) const;

 private:
  // The lock effects of op `op` on `set`: its unlock, or what its callee may
  // release; with `acquire`, also its lock() of a trusted lock.
  void Apply(std::size_t function, std::size_t op, Word* set, bool acquire) const;
  void SolveMustHeld(std::size_t function) const;

  const MirModule& module_;
  std::size_t words_ = 0;             // 64-bit words per set
  std::vector<int> lock_words_;       // bit -> global
  std::vector<int> bit_of_;           // global -> bit, or -1
  std::vector<Word> trusted_;
  std::vector<Word> may_unlock_;      // words_ per function
  std::vector<std::size_t> op_base_;  // per function, and one past: first op in the flat tables
  // Per op, words_ each; solved[f] says whether function f's are filled in.
  mutable std::vector<Word> must_held_;
  mutable std::vector<bool> solved_;
  // Scratch of the data-flow solvers, kept across calls: one op's output
  // set, and HeldAcross's per-op values, reached flags and worklist.
  mutable std::vector<Word> out_;
  mutable std::vector<Word> value_;
  mutable std::vector<bool> reached_;
  mutable std::vector<std::size_t> worklist_;
};

}  // namespace kivati

#endif  // KIVATI_ANALYSIS_LOCKSET_H_
