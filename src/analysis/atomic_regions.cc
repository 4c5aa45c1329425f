#include "analysis/atomic_regions.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
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

// Per-function pairing analysis: collects the function's shared-access
// sites and CFG predecessors into a PairingProblem, solves it, and merges
// the pairs sharing a first access into one AR each.
class PairAnalysis {
 public:
  PairAnalysis(const MirModule& module, std::size_t function_index, const LsvResult& lsv,
               const AnnotateOptions& options,
               const std::vector<GlobalAccessSummary>* summaries)
      : module_(module),
        function_(module.functions[function_index]),
        lsv_(lsv),
        options_(options),
        summaries_(summaries) {}

  FunctionAnnotations Run(AccessPairs (*solver)(const PairingProblem&), ArId& next_id,
                          std::unordered_set<ArId>& sync_ars, std::vector<ArDebugInfo>& infos) {
    CollectSites();
    if (problem_.sites.empty()) {
      return {};
    }
    ComputePredecessors();
    return BuildAnnotations(solver(problem_), next_id, sync_ars, infos);
  }

 private:
  int IdentityOf(const IdentityKey& key) {
    auto [it, inserted] = identity_ids_.emplace(key, static_cast<int>(identity_ids_.size()));
    return it->second;
  }

  void AddSite(std::size_t op, const IdentityKey& key, AccessType type, const VarRef& var) {
    problem_.sites.push_back(AccessSite{op, IdentityOf(key), type});
    site_var_.push_back(var);
  }

  void CollectSites() {
    AliasClasses aliases(function_);
    const auto const_defs =
        options_.precise_aliasing ? SingleConstDefs(function_) : std::unordered_map<int, std::int64_t>{};

    for (std::size_t i = 0; i < function_.ops.size(); ++i) {
      const MirOp& op = function_.ops[i];
      const auto access = SharedAccessOf(op);
      if (access.has_value() && lsv_.Shared(access->base)) {
        IdentityKey key{access->base.space, access->base.index, -1};
        if (options_.precise_aliasing) {
          if (access->base.space == VarRef::Space::kLocal &&
              (op.kind == MirOp::Kind::kLoadPtr || op.kind == MirOp::Kind::kStorePtr)) {
            key.index = aliases.Find(access->base.index);
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
      if (options_.interprocedural && op.kind == MirOp::Kind::kCall && summaries_ != nullptr) {
        const MirFunction* callee = module_.FindFunction(op.callee);
        if (callee != nullptr) {
          const std::size_t callee_index =
              static_cast<std::size_t>(callee - module_.functions.data());
          for (const auto& [global, rw] : (*summaries_)[callee_index].globals) {
            // The call stands for every access the callee may make to the
            // global: pairs spanning the call become ARs around the call
            // site. Writes dominate for pairing purposes.
            const AccessType type = rw.second ? AccessType::kWrite : AccessType::kRead;
            AddSite(i, IdentityKey{VarRef::Space::kGlobal, global, -1}, type,
                    VarRef::Global(global));
          }
        }
      }
    }
    problem_.num_identities = static_cast<int>(identity_ids_.size());
  }

  // Counts each op's predecessors, then places them in ascending order.
  void ComputePredecessors() {
    const std::size_t n = function_.ops.size();
    OpPredecessors& preds = problem_.preds;
    preds.start.assign(n + 1, 0);
    std::vector<std::size_t> succs;
    for (std::size_t i = 0; i < n; ++i) {
      SuccessorsOf(function_, i, succs);
      for (const std::size_t s : succs) {
        ++preds.start[s + 1];
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      preds.start[i + 1] += preds.start[i];
    }
    preds.flat.resize(preds.start[n]);
    std::vector<std::size_t> next(preds.start.begin(), preds.start.end() - 1);
    for (std::size_t i = 0; i < n; ++i) {
      SuccessorsOf(function_, i, succs);
      for (const std::size_t s : succs) {
        preds.flat[next[s]++] = i;
      }
    }
  }

  FunctionAnnotations BuildAnnotations(const AccessPairs& pairs, ArId& next_id,
                                       std::unordered_set<ArId>& sync_ars,
                                       std::vector<ArDebugInfo>& infos) {
    FunctionAnnotations annotations;
    // Group pairs by first site; each group is one AR (Figure 6).
    std::map<int, FunctionAr> by_first;
    for (const auto& [first, second] : pairs) {
      const AccessSite& a = problem_.sites[static_cast<std::size_t>(first)];
      const AccessSite& b = problem_.sites[static_cast<std::size_t>(second)];
      FunctionAr& ar = by_first[first];
      if (ar.first_op < 0) {
        ar.var = site_var_[static_cast<std::size_t>(first)];
        ar.first_op = static_cast<int>(a.op);
        ar.first_type = a.type;
        ar.needs_replica = a.type == AccessType::kWrite;
        if (ar.var.space == VarRef::Space::kGlobal) {
          ar.is_sync = module_.globals[static_cast<std::size_t>(ar.var.index)].is_sync;
        }
      }
      ar.watch = Union(ar.watch, RemoteWatchFor(a.type, b.type));
      ar.ends.emplace_back(static_cast<int>(b.op), b.type);
    }
    for (auto& [first, ar] : by_first) {
      ar.id = next_id++;
      std::sort(ar.ends.begin(), ar.ends.end());
      ar.ends.erase(std::unique(ar.ends.begin(), ar.ends.end()), ar.ends.end());
      if (ar.is_sync) {
        sync_ars.insert(ar.id);
      }
      ArDebugInfo info;
      info.id = ar.id;
      info.function = function_.name;
      info.variable = ar.var.space == VarRef::Space::kGlobal
                          ? module_.globals[static_cast<std::size_t>(ar.var.index)].name
                          : function_.locals[static_cast<std::size_t>(ar.var.index)].name;
      info.line = function_.ops[static_cast<std::size_t>(ar.first_op)].line;
      info.first_type = ar.first_type;
      info.watch = ar.watch;
      info.is_sync = ar.is_sync;
      info.num_ends = static_cast<int>(ar.ends.size());
      infos.push_back(info);
      annotations.ars.push_back(std::move(ar));
    }
    return annotations;
  }

  const MirModule& module_;
  const MirFunction& function_;
  const LsvResult& lsv_;
  const AnnotateOptions& options_;
  const std::vector<GlobalAccessSummary>* summaries_;

  PairingProblem problem_;
  std::vector<VarRef> site_var_;  // per site: the variable it accesses
  std::map<IdentityKey, int> identity_ids_;
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
  std::vector<Word> masks(static_cast<std::size_t>(problem.num_identities) * words, 0);
  for (std::size_t s = 0; s < num_sites; ++s) {
    masks[static_cast<std::size_t>(problem.sites[s].identity) * words + s / 64] |= bit(s);
  }
  std::vector<Word> out(num_ops * words, 0);
  std::vector<Word> paired(num_sites * words, 0);
  std::vector<Word> state(words);
  bool changed = true;
  while (changed) {
    changed = false;
    std::size_t site = 0;
    for (std::size_t i = 0; i < num_ops; ++i) {
      std::fill(state.begin(), state.end(), 0);
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
  AccessPairs pairs;
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
        if (op.kind != MirOp::Kind::kCall) {
          continue;
        }
        const MirFunction* callee = module.FindFunction(op.callee);
        if (callee == nullptr) {
          continue;
        }
        const std::size_t c = static_cast<std::size_t>(callee - module.functions.data());
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
  for (std::size_t f = 0; f < module.functions.size(); ++f) {
    // With inter-procedural summaries available, call results seed the LSV
    // only when the callee may actually return a pointer or shared value.
    const LsvResult lsv = options.interprocedural
                              ? ComputeLsv(module.functions[f], module, returns)
                              : ComputeLsv(module.functions[f]);
    annotations.functions.push_back(
        PairAnalysis(module, f, lsv, options, options.interprocedural ? &summaries : nullptr)
            .Run(solver, next_id, annotations.sync_ars, annotations.infos));
  }
  return annotations;
}

}  // namespace kivati
