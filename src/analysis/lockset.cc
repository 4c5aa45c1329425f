#include "analysis/lockset.h"

#include <algorithm>
#include <bit>

namespace kivati {
namespace {

// into &= with, over `words` words; true if `into` lost a bit.
bool IntersectInto(LockSet::Word* into, const LockSet::Word* with, std::size_t words) {
  bool shrank = false;
  for (std::size_t w = 0; w < words; ++w) {
    shrank |= (into[w] & ~with[w]) != 0;
    into[w] &= with[w];
  }
  return shrank;
}

}  // namespace

bool LockSet::empty() const {
  return std::all_of(words_.begin(), words_.end(), [](Word w) { return w == 0; });
}

int LockSet::first() const {
  for (std::size_t w = 0; w < words_.size(); ++w) {
    if (words_[w] != 0) {
      return static_cast<int>(w * 64) + std::countr_zero(words_[w]);
    }
  }
  return -1;
}

void LockSet::clear() { std::fill(words_.begin(), words_.end(), 0); }

void LockSet::IntersectWith(std::span<const Word> other) {
  for (std::size_t w = 0; w < words_.size(); ++w) {
    words_[w] &= other[w];
  }
}

void LockSet::Subtract(std::span<const Word> other) {
  for (std::size_t w = 0; w < words_.size(); ++w) {
    words_[w] &= ~other[w];
  }
}

LockFacts::LockFacts(const MirModule& module) : module_(module) {
  // Lock words, and the globals any other access disqualifies.
  std::vector<bool> is_lock(module.globals.size(), false);
  std::vector<bool> tainted(module.globals.size(), false);
  op_base_.reserve(module.functions.size() + 1);
  op_base_.assign(1, 0);
  for (std::size_t f = 0; f < module.functions.size(); ++f) {
    op_base_.push_back(op_base_.back() + module.functions[f].ops.size());
    for (const MirOp& op : module.functions[f].ops) {
      switch (op.kind) {
        case MirOp::Kind::kLock:
        case MirOp::Kind::kUnlock:
          is_lock[static_cast<std::size_t>(op.global)] = true;
          break;
        case MirOp::Kind::kLoadGlobal:
        case MirOp::Kind::kStoreGlobal:
        case MirOp::Kind::kAddrGlobal:
          tainted[static_cast<std::size_t>(op.global)] = true;
          break;
        case MirOp::Kind::kLoadIndex:
        case MirOp::Kind::kStoreIndex:
        case MirOp::Kind::kAddrIndex:
          if (op.array.space == VarRef::Space::kGlobal) {
            tainted[static_cast<std::size_t>(op.array.index)] = true;
          }
          break;
        default:
          break;
      }
    }
  }
  bit_of_.assign(module.globals.size(), -1);
  for (std::size_t g = 0; g < module.globals.size(); ++g) {
    if (is_lock[g]) {
      bit_of_[g] = static_cast<int>(lock_words_.size());
      lock_words_.push_back(static_cast<int>(g));
    }
  }
  words_ = (lock_words_.size() + 63) / 64;
  trusted_.assign(words_, 0);
  for (std::size_t b = 0; b < lock_words_.size(); ++b) {
    if (!tainted[static_cast<std::size_t>(lock_words_[b])]) {
      trusted_[b / 64] |= Word{1} << (b % 64);
    }
  }

  // may_unlock: the function's own unlocks, then its callees' sets to a
  // fixed point over the call graph (handles recursion). A call to an
  // unresolvable name may release every trusted lock.
  may_unlock_.assign(module.functions.size() * words_, 0);
  for (std::size_t f = 0; f < module.functions.size(); ++f) {
    for (const MirOp& op : module.functions[f].ops) {
      if (op.kind == MirOp::Kind::kUnlock) {
        const auto bit = static_cast<std::size_t>(bit_of_[static_cast<std::size_t>(op.global)]);
        may_unlock_[f * words_ + bit / 64] |= Word{1} << (bit % 64);
      }
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t f = 0; f < module.functions.size(); ++f) {
      Word* mine = may_unlock_.data() + f * words_;
      for (const MirOp& op : module.functions[f].ops) {
        if (op.kind != MirOp::Kind::kCall) {
          continue;
        }
        const int callee = op.callee_index;
        const Word* from =
            callee < 0 ? trusted_.data()
                       : may_unlock_.data() + static_cast<std::size_t>(callee) * words_;
        for (std::size_t w = 0; w < words_; ++w) {
          changed |= (from[w] & ~mine[w]) != 0;
          mine[w] |= from[w];
        }
      }
    }
  }
  solved_.assign(module.functions.size(), false);
  out_.resize(words_);
}

std::vector<int> LockFacts::Globals(std::span<const Word> set) const {
  std::vector<int> globals;
  for (std::size_t w = 0; w < set.size(); ++w) {
    for (Word bits = set[w]; bits != 0; bits &= bits - 1) {
      globals.push_back(lock_words_[w * 64 + static_cast<std::size_t>(std::countr_zero(bits))]);
    }
  }
  return globals;
}

void LockFacts::Apply(std::size_t function, std::size_t op, Word* set, bool acquire) const {
  const MirOp& mir = module_.functions[function].ops[op];
  switch (mir.kind) {
    case MirOp::Kind::kLock: {
      const auto bit = static_cast<std::size_t>(bit_of_[static_cast<std::size_t>(mir.global)]);
      if (acquire) {
        set[bit / 64] |= trusted_[bit / 64] & (Word{1} << (bit % 64));
      }
      break;
    }
    case MirOp::Kind::kUnlock: {
      const auto bit = static_cast<std::size_t>(bit_of_[static_cast<std::size_t>(mir.global)]);
      set[bit / 64] &= ~(Word{1} << (bit % 64));
      break;
    }
    case MirOp::Kind::kCall: {
      const int callee = mir.callee_index;
      if (callee < 0) {
        std::fill(set, set + words_, 0);  // unresolvable callee: may release anything
        break;
      }
      const Word* released = may_unlock_.data() + static_cast<std::size_t>(callee) * words_;
      for (std::size_t w = 0; w < words_; ++w) {
        set[w] &= ~released[w];
      }
      break;
    }
    default:
      break;
  }
}

// The greatest fixed point, from top (every trusted lock) at every op but
// the entry, which holds nothing: callers may hold locks, but assuming none
// is the sound direction for a must analysis. Each op's output is
// intersected into its successors' inputs until no input shrinks. An op
// with no predecessor never executes and keeps top. Without trusted locks,
// top is empty and so is every set: nothing is stored.
void LockFacts::SolveMustHeld(std::size_t function) const {
  solved_[function] = true;
  if (std::all_of(trusted_.begin(), trusted_.end(), [](Word w) { return w == 0; })) {
    return;
  }
  if (must_held_.empty()) {
    must_held_.assign(op_base_.back() * words_, 0);
  }
  const MirFunction& fn = module_.functions[function];
  const std::size_t n = fn.ops.size();
  Word* in = must_held_.data() + op_base_[function] * words_;
  for (std::size_t i = 1; i < n; ++i) {
    std::copy(trusted_.begin(), trusted_.end(), in + i * words_);
  }
  Word* const out = out_.data();
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      std::copy(in + i * words_, in + (i + 1) * words_, out);
      Apply(function, i, out, /*acquire=*/true);
      for (const std::size_t s : SuccessorsOf(fn, i)) {
        changed |= IntersectInto(in + s * words_, out, words_);
      }
    }
  }
}

std::span<const LockFacts::Word> LockFacts::must_held(std::size_t function,
                                                      std::size_t op) const {
  if (!solved_[function]) {
    SolveMustHeld(function);
  }
  if (must_held_.empty()) {
    return trusted_;  // no trusted locks: the empty set
  }
  return {must_held_.data() + (op_base_[function] + op) * words_, words_};
}

LockSet LockFacts::HeldAcross(std::size_t function, int from, std::span<const int> to) const {
  LockSet result(must_held(function, static_cast<std::size_t>(from)));
  if (result.empty() || to.empty()) {
    result.clear();
    return result;
  }
  // Forward flow from `from`: value[i] = subset of the start set never
  // released on some path from `from` to the entry of op i. `from` itself
  // is pinned to the start set — a path that revisits it restarts the
  // atomic region's window.
  const MirFunction& fn = module_.functions[function];
  const auto start = static_cast<std::size_t>(from);
  value_.resize(fn.ops.size() * words_);
  reached_.assign(fn.ops.size(), false);
  std::copy(result.words().begin(), result.words().end(), value_.begin() + start * words_);
  reached_[start] = true;

  Word* const out = out_.data();
  worklist_.assign(1, start);
  while (!worklist_.empty()) {
    const std::size_t i = worklist_.back();
    worklist_.pop_back();
    std::copy(value_.begin() + i * words_, value_.begin() + (i + 1) * words_, out);
    Apply(function, i, out, /*acquire=*/false);
    for (const std::size_t s : SuccessorsOf(fn, i)) {
      if (s == start) {
        continue;  // window restarts at the first access
      }
      Word* into = value_.data() + s * words_;
      if (!reached_[s]) {
        reached_[s] = true;
        std::copy(out, out + words_, into);
        worklist_.push_back(s);
      } else if (IntersectInto(into, out, words_)) {
        worklist_.push_back(s);
      }
    }
  }

  // An end that no path from the first access reaches holds every lock
  // vacuously.
  for (const int end : to) {
    const auto e = static_cast<std::size_t>(end);
    if (reached_[e]) {
      result.IntersectWith({value_.data() + e * words_, words_});
    }
  }
  return result;
}

void LockFacts::ReleaseByCall(std::size_t function, std::size_t op, LockSet& held) const {
  if (module_.functions[function].ops[op].kind != MirOp::Kind::kCall) {
    return;
  }
  const int callee = module_.functions[function].ops[op].callee_index;
  if (callee < 0) {
    held.clear();
  } else {
    held.Subtract(may_unlock(static_cast<std::size_t>(callee)));
  }
}

}  // namespace kivati
