#include "analysis/atomic_regions.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <optional>
#include <tuple>
#include <unordered_map>
#include <utility>

namespace kivati {
namespace {

// Variable identity (the paper pairs by base-variable name; the precision
// extensions refine it): space+index of the base (pointer locals collapsed
// to their alias-class representative), plus an element number for array
// accesses with provably constant indices (-1 = whole array / scalar).
struct IdentityKey {
  VarRef::Space space = VarRef::Space::kNone;
  int index = -1;
  int elem = -1;

  bool operator<(const IdentityKey& other) const {
    return std::tie(space, index, elem) < std::tie(other.space, other.index, other.elem);
  }
};

// Minimal union-find over function locals for the aliasing extension.
class AliasClasses {
 public:
  explicit AliasClasses(const MirFunction& function) : parent_(function.locals.size()) {
    std::iota(parent_.begin(), parent_.end(), 0);
    for (const MirOp& op : function.ops) {
      switch (op.kind) {
        case MirOp::Kind::kCopy:
          MaybeUnion(function, op.dst, op.a);
          break;
        case MirOp::Kind::kBin:
          MaybeUnion(function, op.dst, op.a);
          MaybeUnion(function, op.dst, op.b);
          break;
        case MirOp::Kind::kLoadLocalMem:
          MaybeUnion(function, op.dst, op.local_mem);
          break;
        case MirOp::Kind::kStoreLocalMem:
          MaybeUnion(function, op.local_mem, op.a);
          break;
        default:
          break;
      }
    }
  }

  int Find(int local) {
    while (parent_[static_cast<std::size_t>(local)] != local) {
      local = parent_[static_cast<std::size_t>(local)] =
          parent_[static_cast<std::size_t>(parent_[static_cast<std::size_t>(local)])];
    }
    return local;
  }

 private:
  void MaybeUnion(const MirFunction& function, int a, int b) {
    if (a < 0 || b < 0) {
      return;
    }
    // Only pointer-carrying locals participate; merging through integer
    // operands would collapse unrelated identities.
    if (!function.locals[static_cast<std::size_t>(a)].is_pointer ||
        !function.locals[static_cast<std::size_t>(b)].is_pointer) {
      return;
    }
    parent_[static_cast<std::size_t>(Find(a))] = Find(b);
  }

  std::vector<int> parent_;
};

// Locals that are defined exactly once, by a kConst: their value is known.
std::unordered_map<int, std::int64_t> SingleConstDefs(const MirFunction& function) {
  std::unordered_map<int, int> def_count;
  std::unordered_map<int, std::int64_t> value;
  for (const MirOp& op : function.ops) {
    if (op.dst >= 0) {
      ++def_count[op.dst];
      if (op.kind == MirOp::Kind::kConst) {
        value[op.dst] = op.imm;
      }
    }
    if (op.kind == MirOp::Kind::kStoreLocalMem) {
      ++def_count[op.local_mem];
    }
  }
  std::unordered_map<int, std::int64_t> result;
  for (const auto& [local, v] : value) {
    if (def_count[local] == 1) {
      result.emplace(local, v);
    }
  }
  return result;
}

// Pairing analysis: collects a function's shared-access sites and CFG
// predecessors into a PairingProblem, solves it, and merges the pairs
// sharing a first access into one AR each. One object serves every function
// of a module, so its per-function arrays keep their storage.
class PairAnalysis {
 public:
  PairAnalysis(const MirModule& module, const AnnotateOptions& options,
               const std::vector<GlobalAccessSummary>* summaries)
      : module_(module),
        options_(options),
        summaries_(summaries),
        global_ids_(module.globals.size(), -1) {}

  FunctionAnnotations Run(std::size_t function_index, const LsvResult& lsv,
                          AccessPairs (*solver)(const PairingProblem&), ArId& next_id,
                          std::unordered_set<ArId>& sync_ars, std::vector<ArDebugInfo>& infos) {
    function_ = &module_.functions[function_index];
    CollectSites(lsv);
    if (problem_.sites.empty()) {
      return {};
    }
    ComputePredecessors();
    return BuildAnnotations(solver(problem_), next_id, sync_ars, infos);
  }

 private:
  // Dense ids in order of first use: by base variable, or by element for a
  // constant-index array access.
  int IdentityOf(const IdentityKey& key) {
    if (key.elem >= 0) {
      const auto [it, inserted] = element_ids_.emplace(key, problem_.num_identities);
      problem_.num_identities += inserted;
      return it->second;
    }
    int& id = key.space == VarRef::Space::kGlobal ? global_ids_[static_cast<std::size_t>(key.index)]
                                                  : local_ids_[static_cast<std::size_t>(key.index)];
    if (id < 0) {
      id = problem_.num_identities++;
    }
    return id;
  }

  void AddSite(std::size_t op, const IdentityKey& key, AccessType type, const VarRef& var) {
    problem_.sites.push_back(AccessSite{op, IdentityOf(key), type});
    site_var_.push_back(var);
  }

  void CollectSites(const LsvResult& lsv) {
    const MirFunction& function = *function_;
    problem_.sites.clear();
    problem_.num_identities = 0;
    site_var_.clear();
    local_ids_.assign(function.locals.size(), -1);
    element_ids_.clear();
    std::optional<AliasClasses> aliases;
    std::unordered_map<int, std::int64_t> const_defs;
    if (options_.precise_aliasing) {
      aliases.emplace(function);
      const_defs = SingleConstDefs(function);
    }

    for (std::size_t i = 0; i < function.ops.size(); ++i) {
      const MirOp& op = function.ops[i];
      const auto access = SharedAccessOf(op);
      if (access.has_value() && lsv.Shared(access->base)) {
        IdentityKey key{access->base.space, access->base.index, -1};
        if (options_.precise_aliasing) {
          if (access->base.space == VarRef::Space::kLocal &&
              (op.kind == MirOp::Kind::kLoadPtr || op.kind == MirOp::Kind::kStorePtr)) {
            key.index = aliases->Find(access->base.index);
          }
          if (op.kind == MirOp::Kind::kLoadIndex || op.kind == MirOp::Kind::kStoreIndex) {
            const auto it = const_defs.find(op.a);
            if (it != const_defs.end()) {
              key.elem = static_cast<int>(it->second);
            }
          }
        }
        AddSite(i, key, access->type, access->base);
      }
      if (options_.interprocedural && op.kind == MirOp::Kind::kCall && summaries_ != nullptr &&
          op.callee_index >= 0) {
        for (const auto& [global, rw] :
             (*summaries_)[static_cast<std::size_t>(op.callee_index)].globals) {
          // The call stands for every access the callee may make to the
          // global: pairs spanning the call become ARs around the call
          // site. Writes dominate for pairing purposes.
          const AccessType type = rw.second ? AccessType::kWrite : AccessType::kRead;
          AddSite(i, IdentityKey{VarRef::Space::kGlobal, global, -1}, type,
                  VarRef::Global(global));
        }
      }
    }
    // Ready the global ids for the next function.
    for (const VarRef& var : site_var_) {
      if (var.space == VarRef::Space::kGlobal) {
        global_ids_[static_cast<std::size_t>(var.index)] = -1;
      }
    }
  }

  // Counts each op's predecessors, then places them in ascending order.
  void ComputePredecessors() {
    const MirFunction& function = *function_;
    const std::size_t n = function.ops.size();
    OpPredecessors& preds = problem_.preds;
    preds.start.assign(n + 1, 0);
    for (std::size_t i = 0; i < n; ++i) {
      for (const std::size_t s : SuccessorsOf(function, i)) {
        ++preds.start[s + 1];
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      preds.start[i + 1] += preds.start[i];
    }
    preds.flat.resize(preds.start[n]);
    next_.assign(preds.start.begin(), preds.start.end() - 1);
    for (std::size_t i = 0; i < n; ++i) {
      for (const std::size_t s : SuccessorsOf(function, i)) {
        preds.flat[next_[s]++] = i;
      }
    }
  }

  // `pairs` is sorted, so each run of one first site is one AR (Figure 6).
  FunctionAnnotations BuildAnnotations(const AccessPairs& pairs, ArId& next_id,
                                       std::unordered_set<ArId>& sync_ars,
                                       std::vector<ArDebugInfo>& infos) {
    const MirFunction& function = *function_;
    FunctionAnnotations annotations;
    std::size_t num_ars = 0;
    for (std::size_t p = 0; p < pairs.size(); ++p) {
      num_ars += p == 0 || pairs[p].first != pairs[p - 1].first;
    }
    annotations.ars.reserve(num_ars);
    for (std::size_t p = 0; p < pairs.size();) {
      const int first = pairs[p].first;
      std::size_t group_end = p;
      while (group_end < pairs.size() && pairs[group_end].first == first) {
        ++group_end;
      }
      const AccessSite& a = problem_.sites[static_cast<std::size_t>(first)];
      FunctionAr ar;
      ar.var = site_var_[static_cast<std::size_t>(first)];
      ar.first_op = static_cast<int>(a.op);
      ar.first_type = a.type;
      ar.needs_replica = a.type == AccessType::kWrite;
      if (ar.var.space == VarRef::Space::kGlobal) {
        ar.is_sync = module_.globals[static_cast<std::size_t>(ar.var.index)].is_sync;
      }
      ar.ends.reserve(group_end - p);
      for (; p < group_end; ++p) {
        const AccessSite& b = problem_.sites[static_cast<std::size_t>(pairs[p].second)];
        ar.watch = Union(ar.watch, RemoteWatchFor(a.type, b.type));
        ar.ends.emplace_back(static_cast<int>(b.op), b.type);
      }
      ar.id = next_id++;
      std::sort(ar.ends.begin(), ar.ends.end());
      ar.ends.erase(std::unique(ar.ends.begin(), ar.ends.end()), ar.ends.end());
      if (ar.is_sync) {
        sync_ars.insert(ar.id);
      }
      ArDebugInfo info;
      info.id = ar.id;
      info.function = function.name;
      info.variable = ar.var.space == VarRef::Space::kGlobal
                          ? module_.globals[static_cast<std::size_t>(ar.var.index)].name
                          : function.locals[static_cast<std::size_t>(ar.var.index)].name;
      info.line = function.ops[static_cast<std::size_t>(ar.first_op)].line;
      info.first_type = ar.first_type;
      info.watch = ar.watch;
      info.is_sync = ar.is_sync;
      info.num_ends = static_cast<int>(ar.ends.size());
      infos.push_back(std::move(info));
      annotations.ars.push_back(std::move(ar));
    }
    return annotations;
  }

  const MirModule& module_;
  const AnnotateOptions& options_;
  const std::vector<GlobalAccessSummary>* summaries_;

  // The function being analysed, and its state.
  const MirFunction* function_ = nullptr;
  PairingProblem problem_;
  std::vector<VarRef> site_var_;  // per site: the variable it accesses
  // Identity ids: per global and per local, or -1 before first use; and the
  // per-element identities of precise aliasing.
  std::vector<int> global_ids_;
  std::vector<int> local_ids_;
  std::map<IdentityKey, int> element_ids_;
  std::vector<std::size_t> next_;  // ComputePredecessors' fill cursors
};

}  // namespace

AccessPairs SolveAccessPairs(const PairingProblem& problem) {
  using Word = std::uint64_t;
  const std::size_t num_ops = problem.preds.size();
  const std::size_t num_sites = problem.sites.size();
  const std::size_t words = (num_sites + 63) / 64;
  const auto bit = [](std::size_t site) { return Word{1} << (site % 64); };
  // Site bitsets, `words` words each: one mask per variable identity; per
  // op, the sites that may be the most recent access of their identity
  // after it ("reaching accesses"); per first site, the second sites it
  // pairs with. An op's input needs no storage: it is the OR of its
  // predecessors' outputs, which only grow, so a pass in which no output
  // grows has met the fixed point.
  // All four live in one allocation.
  const auto identities = static_cast<std::size_t>(problem.num_identities);
  std::vector<Word> bits((identities + num_ops + num_sites + 1) * words, 0);
  Word* const masks = bits.data();
  Word* const out = masks + identities * words;
  Word* const paired = out + num_ops * words;
  Word* const state = paired + num_sites * words;
  for (std::size_t s = 0; s < num_sites; ++s) {
    masks[static_cast<std::size_t>(problem.sites[s].identity) * words + s / 64] |= bit(s);
  }
  bool changed = true;
  while (changed) {
    changed = false;
    std::size_t site = 0;
    for (std::size_t i = 0; i < num_ops; ++i) {
      std::fill(state, state + words, 0);
      for (const std::size_t p : problem.preds[i]) {
        const Word* from = &out[p * words];
        for (std::size_t w = 0; w < words; ++w) {
          state[w] |= from[w];
        }
      }
      // Each access pairs with every reaching access of its identity, then
      // becomes the only one.
      for (; site < num_sites && problem.sites[site].op == i; ++site) {
        const Word* mask =
            &masks[static_cast<std::size_t>(problem.sites[site].identity) * words];
        for (std::size_t w = 0; w < words; ++w) {
          for (Word reach = state[w] & mask[w]; reach != 0; reach &= reach - 1) {
            const std::size_t first = w * 64 + static_cast<std::size_t>(std::countr_zero(reach));
            if (first != site) {
              paired[first * words + site / 64] |= bit(site);
            }
          }
          state[w] &= ~mask[w];
        }
        state[site / 64] |= bit(site);
      }
      Word* into = &out[i * words];
      for (std::size_t w = 0; w < words; ++w) {
        changed |= (state[w] & ~into[w]) != 0;
        into[w] |= state[w];
      }
    }
  }
  std::size_t num_pairs = 0;
  for (std::size_t w = 0; w < num_sites * words; ++w) {
    num_pairs += static_cast<std::size_t>(std::popcount(paired[w]));
  }
  AccessPairs pairs;
  pairs.reserve(num_pairs);
  for (std::size_t first = 0; first < num_sites; ++first) {
    for (std::size_t w = 0; w < words; ++w) {
      for (Word seconds = paired[first * words + w]; seconds != 0; seconds &= seconds - 1) {
        pairs.emplace_back(static_cast<int>(first),
                           static_cast<int>(w * 64 + static_cast<std::size_t>(
                                                         std::countr_zero(seconds))));
      }
    }
  }
  return pairs;
}

std::vector<GlobalAccessSummary> ComputeCallSummaries(const MirModule& module) {
  std::vector<GlobalAccessSummary> summaries(module.functions.size());
  // Seed with direct accesses.
  for (std::size_t f = 0; f < module.functions.size(); ++f) {
    for (const MirOp& op : module.functions[f].ops) {
      const auto access = SharedAccessOf(op);
      if (access.has_value() && access->base.space == VarRef::Space::kGlobal) {
        auto& rw = summaries[f].globals[access->base.index];
        rw.first |= access->type == AccessType::kRead;
        rw.second |= access->type == AccessType::kWrite;
      }
    }
  }
  // Propagate through the call graph to a fixed point (handles recursion).
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t f = 0; f < module.functions.size(); ++f) {
      for (const MirOp& op : module.functions[f].ops) {
        if (op.kind != MirOp::Kind::kCall || op.callee_index < 0) {
          continue;
        }
        const auto c = static_cast<std::size_t>(op.callee_index);
        for (const auto& [global, rw] : summaries[c].globals) {
          auto& mine = summaries[f].globals[global];
          const auto before = mine;
          mine.first |= rw.first;
          mine.second |= rw.second;
          changed |= mine != before;
        }
      }
    }
  }
  return summaries;
}

ModuleAnnotations Annotate(const MirModule& module, const AnnotateOptions& options,
                           AccessPairs (*solver)(const PairingProblem&)) {
  ModuleAnnotations annotations;
  std::vector<GlobalAccessSummary> summaries;
  ReturnSharedness returns;
  if (options.interprocedural) {
    summaries = ComputeCallSummaries(module);
    returns = ComputeReturnSharedness(module);
  }
  ArId next_id = 1;
  PairAnalysis analysis(module, options, options.interprocedural ? &summaries : nullptr);
  annotations.functions.reserve(module.functions.size());
  for (std::size_t f = 0; f < module.functions.size(); ++f) {
    // With inter-procedural summaries available, call results seed the LSV
    // only when the callee may actually return a pointer or shared value.
    const LsvResult lsv = options.interprocedural ? ComputeLsv(module.functions[f], returns)
                                                  : ComputeLsv(module.functions[f]);
    annotations.functions.push_back(
        analysis.Run(f, lsv, solver, next_id, annotations.sync_ars, annotations.infos));
  }
  return annotations;
}

}  // namespace kivati
