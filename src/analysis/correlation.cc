#include "analysis/correlation.h"

#include <algorithm>
#include <numeric>
#include <span>
#include <utility>

#include "analysis/lockset.h"
#include "common/report_envelope.h"

namespace kivati {
namespace {

// Release points end the co-access window: control leaves the straight-line
// group update (a call may block or touch arbitrary state; lock/unlock marks
// a synchronization boundary; sleep/io/yield/ret/exit give up the region).
bool IsReleasePoint(MirOp::Kind kind) {
  switch (kind) {
    case MirOp::Kind::kCall:
    case MirOp::Kind::kSpawn:
    case MirOp::Kind::kLock:
    case MirOp::Kind::kUnlock:
    case MirOp::Kind::kSleep:
    case MirOp::Kind::kIo:
    case MirOp::Kind::kYield:
    case MirOp::Kind::kExitSys:
    case MirOp::Kind::kRet:
      return true;
    default:
      return false;
  }
}

// The hardware watch condition that joint evaluation needs: the Figure-2
// rule over the member access mask. A member read makes remote writes
// dangerous; a member write makes remote reads dangerous.
WatchType JointWatch(WatchType joint_types) {
  WatchType watch = WatchType::kNone;
  if (Matches(joint_types, AccessType::kRead)) {
    watch = Union(watch, WatchType::kWrite);
  }
  if (Matches(joint_types, AccessType::kWrite)) {
    watch = Union(watch, WatchType::kRead);
  }
  return watch;
}

// One member access inside a window.
struct WindowEntry {
  int global = -1;
  std::size_t op = 0;
  AccessType type = AccessType::kRead;
  int line = 0;
};

// A maximal release-point-free run of member accesses in one function: its
// entries are [begin, end) of the pass's one entry array.
struct Window {
  std::size_t function = 0;
  std::size_t begin = 0;
  std::size_t end = 0;
};

using PairKey = std::pair<int, int>;  // global indices, first < second

// One co-access of a candidate pair: the first access of each member in
// one window.
struct Candidate {
  PairKey key;
  std::size_t function = 0;
  const WindowEntry* a = nullptr;  // member key.first's first access
  const WindowEntry* b = nullptr;  // member key.second's
};

// One member's accesses inside a fusion window.
struct MemberSpan {
  int global = -1;
  std::size_t first_op = 0, last_op = 0;
  AccessType first_type = AccessType::kRead, last_type = AccessType::kRead;
  WatchType types = WatchType::kNone;
  bool hosted = false;  // an AR of the member's own was extended
};

// The direct global access an op performs, if it is eligible for
// correlation: a named scalar or array access to a non-sync global. Pointer
// and local accesses keep their single-variable treatment — name-based
// identity (§3.5) is what makes the set inference whole-module sound.
std::optional<std::pair<int, AccessType>> MemberAccessOf(const MirOp& op,
                                                         const MirModule& module) {
  const auto access = SharedAccessOf(op);
  if (!access.has_value() || access->base.space != VarRef::Space::kGlobal) {
    return std::nullopt;
  }
  switch (op.kind) {
    case MirOp::Kind::kLoadGlobal:
    case MirOp::Kind::kStoreGlobal:
    case MirOp::Kind::kLoadIndex:
    case MirOp::Kind::kStoreIndex:
      break;
    default:
      return std::nullopt;  // lock words and pointer traffic never correlate
  }
  if (module.globals[static_cast<std::size_t>(access->base.index)].is_sync) {
    return std::nullopt;
  }
  return std::make_pair(access->base.index, access->type);
}

class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  int Find(int x) {
    while (parent_[static_cast<std::size_t>(x)] != x) {
      x = parent_[static_cast<std::size_t>(x)] =
          parent_[static_cast<std::size_t>(parent_[static_cast<std::size_t>(x)])];
    }
    return x;
  }
  void Merge(int a, int b) { parent_[static_cast<std::size_t>(Find(a))] = Find(b); }

 private:
  std::vector<int> parent_;
};

const char* TypeChar(AccessType type) { return type == AccessType::kRead ? "R" : "W"; }

}  // namespace

const char* ToString(PairPruneReason reason) {
  switch (reason) {
    case PairPruneReason::kNone: return "kept";
    case PairPruneReason::kLockProtected: return "lock-protected";
    case PairPruneReason::kLowSupport: return "low-support";
  }
  return "?";
}

CorrelationReport CorrelateAndFuse(const MirModule& module, ModuleAnnotations& annotations,
                                   const ConflictReport& conflict, const LockFacts& locks) {
  CorrelationReport report;
  const std::size_t num_globals = module.globals.size();

  // --- 1. Co-access windows ------------------------------------------------
  std::vector<WindowEntry> entries;  // every window's, window after window
  std::vector<Window> windows;
  for (std::size_t f = 0; f < module.functions.size(); ++f) {
    const MirFunction& fn = module.functions[f];
    std::size_t begin = entries.size();
    const auto flush = [&] {
      const bool two_members =
          std::any_of(entries.begin() + static_cast<std::ptrdiff_t>(begin), entries.end(),
                      [&](const WindowEntry& e) { return e.global != entries[begin].global; });
      if (two_members) {
        windows.push_back(Window{f, begin, entries.size()});
      } else {
        entries.resize(begin);
      }
      begin = entries.size();
    };
    for (std::size_t i = 0; i < fn.ops.size(); ++i) {
      const MirOp& op = fn.ops[i];
      if (IsReleasePoint(op.kind)) {
        flush();
        continue;
      }
      // Every member is a global, and §3.1 seeds every function's LSV with
      // all globals, so no LSV test is needed here.
      const auto member = MemberAccessOf(op, module);
      if (member.has_value()) {
        entries.push_back(WindowEntry{member->first, i, member->second, op.line});
      }
    }
    flush();
  }
  const auto entries_of = [&entries](const Window& window) {
    return std::span<const WindowEntry>(entries.data() + window.begin, window.end - window.begin);
  };

  // --- 2. Candidate pairs with evidence ------------------------------------
  // Each window gives every pair of its members one co-access, from the
  // first access of each; grouped by pair, they keep window order.
  std::vector<Candidate> candidates;
  std::vector<const WindowEntry*> firsts;  // one window's, by global
  std::vector<std::size_t> seen_in(num_globals, windows.size());  // window, per global
  for (std::size_t w = 0; w < windows.size(); ++w) {
    firsts.clear();
    for (const WindowEntry& e : entries_of(windows[w])) {
      if (seen_in[static_cast<std::size_t>(e.global)] != w) {
        seen_in[static_cast<std::size_t>(e.global)] = w;
        firsts.push_back(&e);
      }
    }
    std::sort(firsts.begin(), firsts.end(),
              [](const WindowEntry* x, const WindowEntry* y) { return x->global < y->global; });
    for (std::size_t i = 0; i < firsts.size(); ++i) {
      for (std::size_t j = i + 1; j < firsts.size(); ++j) {
        candidates.push_back(Candidate{{firsts[i]->global, firsts[j]->global},
                                       windows[w].function, firsts[i], firsts[j]});
      }
    }
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& x, const Candidate& y) { return x.key < y.key; });

  // --- 3. Pruning: conflict verdicts, locksets, support --------------------
  // A variable whose every AR the conflict analysis proved lock-protected is
  // already serialized; it never correlates.
  std::vector<std::pair<std::size_t, std::size_t>> ar_counts(num_globals);  // (ars, lock_protected)
  for (const FunctionAnnotations& fa : annotations.functions) {
    for (const FunctionAr& ar : fa.ars) {
      if (ar.var.space != VarRef::Space::kGlobal || ar.id == kInvalidAr ||
          ar.id > conflict.ars.size()) {
        continue;
      }
      auto& counts = ar_counts[static_cast<std::size_t>(ar.var.index)];
      ++counts.first;
      if (conflict.ars[ar.id - 1].verdict == ArVerdict::kLockProtected) {
        ++counts.second;
      }
    }
  }
  const auto var_protected = [&](int global) {
    const auto& counts = ar_counts[static_cast<std::size_t>(global)];
    return counts.first > 0 && counts.first == counts.second;
  };

  std::vector<CorrelatedPair> kept;
  for (std::size_t g = 0; g < candidates.size();) {
    const PairKey key = candidates[g].key;
    std::size_t end = g;
    while (end < candidates.size() && candidates[end].key == key) {
      ++end;
    }
    CorrelatedPair pair;
    pair.a = key.first;
    pair.b = key.second;
    pair.a_name = module.globals[static_cast<std::size_t>(key.first)].name;
    pair.b_name = module.globals[static_cast<std::size_t>(key.second)].name;
    pair.sites.reserve(end - g);
    for (std::size_t c = g; c < end; ++c) {
      const Candidate& candidate = candidates[c];
      const MirFunction& fn = module.functions[candidate.function];
      CoAccessSite& site = pair.sites.emplace_back();
      site.function = fn.name;
      site.op_a = static_cast<int>(std::min(candidate.a->op, candidate.b->op));
      site.op_b = static_cast<int>(std::max(candidate.a->op, candidate.b->op));
      site.line = fn.ops[static_cast<std::size_t>(site.op_a)].line;
      site.a_type = candidate.a->type;
      site.b_type = candidate.b->type;
      // Windows run in function order, so a new function shows as a change.
      pair.support += c == g || candidate.function != candidates[c - 1].function;
    }

    // Common trusted lock held continuously across every co-access window?
    LockSet common;
    for (std::size_t s = 0; s < pair.sites.size(); ++s) {
      const CoAccessSite& site = pair.sites[s];
      const int to[] = {site.op_b};
      const LockSet held = locks.HeldAcross(candidates[g + s].function, site.op_a, to);
      if (s == 0) {
        common = held;
      } else {
        common.IntersectWith(held.words());
      }
      if (common.empty()) {
        break;
      }
    }
    g = end;
    if (!common.empty()) {
      pair.pruned = PairPruneReason::kLockProtected;
      const int lock = locks.lock_words()[static_cast<std::size_t>(common.first())];
      pair.lock = module.globals[static_cast<std::size_t>(lock)].name;
    } else if (var_protected(pair.a) || var_protected(pair.b)) {
      pair.pruned = PairPruneReason::kLockProtected;
    } else if (pair.support < kMinSupport) {
      pair.pruned = PairPruneReason::kLowSupport;
    }
    if (pair.pruned == PairPruneReason::kNone) {
      kept.push_back(std::move(pair));
    } else {
      report.rejected.push_back(std::move(pair));
    }
  }

  // --- 4. Union surviving pairs into sets ----------------------------------
  UnionFind uf(num_globals);
  for (const CorrelatedPair& pair : kept) {
    uf.Merge(pair.a, pair.b);
  }
  std::vector<int> set_at(num_globals, -1);  // per union-find root: its set in report.sets
  for (CorrelatedPair& pair : kept) {
    int& at = set_at[static_cast<std::size_t>(uf.Find(pair.a))];
    if (at < 0) {
      at = static_cast<int>(report.sets.size());
      report.sets.emplace_back();
    }
    CorrelatedSet& set = report.sets[static_cast<std::size_t>(at)];
    set.members.push_back(pair.a);
    set.members.push_back(pair.b);
    set.support = std::max(set.support, pair.support);
    set.pairs.push_back(std::move(pair));
  }
  for (CorrelatedSet& set : report.sets) {
    std::sort(set.members.begin(), set.members.end());
    set.members.erase(std::unique(set.members.begin(), set.members.end()), set.members.end());
    for (const int member : set.members) {
      set.member_names.push_back(module.globals[static_cast<std::size_t>(member)].name);
    }
  }
  // Sets are disjoint, so the order is total.
  std::sort(report.sets.begin(), report.sets.end(),
            [](const CorrelatedSet& x, const CorrelatedSet& y) {
              if (x.support != y.support) {
                return x.support > y.support;
              }
              if (x.members.size() != y.members.size()) {
                return x.members.size() > y.members.size();
              }
              return x.members < y.members;
            });
  for (std::size_t i = 0; i < report.sets.size(); ++i) {
    report.sets[i].id = static_cast<int>(i + 1);
  }

  if (report.sets.empty()) {
    return report;
  }

  // --- 5. Fusion: rewrite the annotator output -----------------------------
  std::vector<int> set_of(num_globals, 0);  // per global: its set id, or 0
  for (const CorrelatedSet& set : report.sets) {
    for (const int member : set.members) {
      set_of[static_cast<std::size_t>(member)] = set.id;
    }
  }
  const auto member_names = [&](const CorrelatedSet& set, int self) {
    std::vector<std::string> names;
    for (const int member : set.members) {
      if (member != self) {
        names.push_back(module.globals[static_cast<std::size_t>(member)].name);
      }
    }
    return names;
  };

  ArId next_id = static_cast<ArId>(annotations.infos.size() + 1);
  std::vector<std::pair<int, const WindowEntry*>> by_set;  // one window's, by (set, position)
  std::vector<MemberSpan> spans;                           // one set's in one window, by global
  std::vector<int> span_at(num_globals, -1);               // per global: its index in spans
  // Fuses one set's members in one window; `spans` holds them, sorted.
  const auto fuse = [&](const Window& window, int set_id) {
    const MirFunction& fn = module.functions[window.function];
    FunctionAnnotations& fa = annotations.functions[window.function];
    CorrelatedSet& set = report.sets[static_cast<std::size_t>(set_id - 1)];
    std::size_t region_end = 0;
    for (const MemberSpan& span : spans) {
      region_end = std::max(region_end, span.last_op);
    }
    const auto joint_for = [&](int self) {
      WatchType mask = WatchType::kNone;
      for (const MemberSpan& span : spans) {
        if (span.global != self) {
          mask = Union(mask, span.types);
        }
      }
      return mask;
    };

    // Extend every host AR anchored inside the window; remember which
    // members found one.
    bool any_host = false;
    for (FunctionAr& ar : fa.ars) {
      if (ar.var.space != VarRef::Space::kGlobal) {
        continue;
      }
      const int at = span_at[static_cast<std::size_t>(ar.var.index)];
      if (at < 0) {
        continue;
      }
      MemberSpan& span = spans[static_cast<std::size_t>(at)];
      const std::size_t first = static_cast<std::size_t>(ar.first_op);
      if (first < span.first_op || first > region_end) {
        continue;  // anchored outside this window
      }
      const WatchType joint = joint_for(ar.var.index);
      // The region must stay open until the group's last access: drop end
      // sites inside the region, close at its boundary with the member's
      // own last access type (the pairwise Figure-6 decision is preserved;
      // the joint mask carries the rest).
      ar.ends.erase(std::remove_if(ar.ends.begin(), ar.ends.end(),
                                   [&](const std::pair<int, AccessType>& end) {
                                     return static_cast<std::size_t>(end.first) < region_end;
                                   }),
                    ar.ends.end());
      const auto boundary = std::make_pair(static_cast<int>(region_end), span.last_type);
      if (std::find(ar.ends.begin(), ar.ends.end(), boundary) == ar.ends.end()) {
        ar.ends.push_back(boundary);
        std::sort(ar.ends.begin(), ar.ends.end());
      }
      ar.group = set_id;
      ar.joint_types = joint;
      ar.watch = Union(ar.watch, JointWatch(joint));
      span.hosted = true;
      any_host = true;

      ArDebugInfo& info = annotations.infos[ar.id - 1];
      info.watch = ar.watch;
      info.num_ends = static_cast<int>(ar.ends.size());
      info.group = set_id;
      info.correlated = member_names(set, ar.var.index);
      info.joint_types = joint;
      ++set.fused_ars;
      ++report.fused_ars;
      report.changed = true;
    }
    if (!any_host) {
      return;  // fusion only widens existing regions; it never invents one
    }

    // Members with accesses in the window but no AR of their own: arm a
    // watchpoint for them too (one slot per member variable).
    for (const MemberSpan& span : spans) {
      if (span.hosted) {
        continue;
      }
      const WatchType joint = joint_for(span.global);
      FunctionAr ar;
      ar.id = next_id++;
      ar.var = VarRef::Global(span.global);
      ar.first_op = static_cast<int>(span.first_op);
      ar.first_type = span.first_type;
      ar.watch = Union(RemoteWatchFor(span.first_type, span.last_type), JointWatch(joint));
      ar.ends.emplace_back(static_cast<int>(region_end), span.last_type);
      ar.needs_replica = span.first_type == AccessType::kWrite;
      ar.group = set_id;
      ar.joint_types = joint;
      ar.synthesized = true;

      ArDebugInfo info;
      info.id = ar.id;
      info.function = fn.name;
      info.variable = module.globals[static_cast<std::size_t>(span.global)].name;
      info.line = fn.ops[span.first_op].line;
      info.first_type = ar.first_type;
      info.watch = ar.watch;
      info.num_ends = 1;
      info.group = set_id;
      info.correlated = member_names(set, span.global);
      info.joint_types = joint;
      info.synthesized = true;
      annotations.infos.push_back(std::move(info));
      fa.ars.push_back(std::move(ar));
      ++set.synthesized_ars;
      ++report.synthesized_ars;
      report.changed = true;
    }
  };
  for (const Window& window : windows) {
    // The window's member accesses, grouped by set, in window order.
    by_set.clear();
    for (const WindowEntry& e : entries_of(window)) {
      const int set_id = set_of[static_cast<std::size_t>(e.global)];
      if (set_id != 0) {
        by_set.emplace_back(set_id, &e);
      }
    }
    std::sort(by_set.begin(), by_set.end());
    for (std::size_t g = 0; g < by_set.size();) {
      const int set_id = by_set[g].first;
      // Per member: first/last access and type mask inside the window.
      spans.clear();
      for (; g < by_set.size() && by_set[g].first == set_id; ++g) {
        const WindowEntry& e = *by_set[g].second;
        int& at = span_at[static_cast<std::size_t>(e.global)];
        if (at < 0) {
          at = static_cast<int>(spans.size());
          spans.push_back(MemberSpan{e.global, e.op, e.op, e.type, e.type, ToWatchType(e.type)});
        } else {
          MemberSpan& span = spans[static_cast<std::size_t>(at)];
          span.last_op = e.op;
          span.last_type = e.type;
          span.types = Union(span.types, ToWatchType(e.type));
        }
      }
      std::sort(spans.begin(), spans.end(),
                [](const MemberSpan& x, const MemberSpan& y) { return x.global < y.global; });
      for (std::size_t i = 0; i < spans.size(); ++i) {
        span_at[static_cast<std::size_t>(spans[i].global)] = static_cast<int>(i);
      }
      if (spans.size() >= 2) {  // two members of the set in this window
        fuse(window, set_id);
      }
      for (const MemberSpan& span : spans) {
        span_at[static_cast<std::size_t>(span.global)] = -1;
      }
    }
  }
  return report;
}

std::string FormatCorrelationReport(const CorrelationReport& report) {
  std::string out = "correlated sets: " + std::to_string(report.sets.size()) + " kept, " +
                    std::to_string(report.rejected.size()) + " pair(s) rejected\n";
  for (const CorrelatedSet& set : report.sets) {
    out += "  set " + std::to_string(set.id) + "  {";
    for (std::size_t i = 0; i < set.member_names.size(); ++i) {
      out += (i > 0 ? ", " : "") + set.member_names[i];
    }
    out += "}  support " + std::to_string(set.support) + "  fused " +
           std::to_string(set.fused_ars) + " AR(s), synthesized " +
           std::to_string(set.synthesized_ars) + "\n";
    for (const CorrelatedPair& pair : set.pairs) {
      out += "    " + pair.a_name + " + " + pair.b_name + "  co-accessed in:";
      for (const CoAccessSite& site : pair.sites) {
        out += " " + site.function + ":" + std::to_string(site.line) + "(" +
               TypeChar(site.a_type) + TypeChar(site.b_type) + ")";
      }
      out += "\n";
    }
  }
  for (const CorrelatedPair& pair : report.rejected) {
    out += "  rejected " + pair.a_name + " + " + pair.b_name + ": " + ToString(pair.pruned);
    if (!pair.lock.empty()) {
      out += " (lock " + pair.lock + ")";
    }
    if (pair.pruned == PairPruneReason::kLowSupport) {
      out += " (support " + std::to_string(pair.support) + ")";
    }
    out += "\n";
  }
  return out;
}

std::string CorrelationReportJson(const CorrelationReport& report) {
  const auto pair_json = [&](const CorrelatedPair& pair) {
    std::string out = "{\"a\":\"" + report::EscapeJson(pair.a_name) + "\",\"b\":\"" +
                      report::EscapeJson(pair.b_name) +
                      "\",\"support\":" + std::to_string(pair.support);
    if (pair.pruned != PairPruneReason::kNone) {
      out += ",\"pruned\":\"" + std::string(ToString(pair.pruned)) + "\"";
      if (!pair.lock.empty()) {
        out += ",\"lock\":\"" + report::EscapeJson(pair.lock) + "\"";
      }
    }
    out += ",\"sites\":[";
    for (std::size_t i = 0; i < pair.sites.size(); ++i) {
      const CoAccessSite& site = pair.sites[i];
      out += std::string(i > 0 ? "," : "") + "{\"function\":\"" +
             report::EscapeJson(site.function) + "\",\"line\":" + std::to_string(site.line) +
             ",\"types\":\"" + TypeChar(site.a_type) + TypeChar(site.b_type) + "\"}";
    }
    out += "]}";
    return out;
  };
  std::string out = "{\"kept\":" + std::to_string(report.sets.size()) +
                    ",\"rejected_pairs\":" + std::to_string(report.rejected.size()) +
                    ",\"fused_ars\":" + std::to_string(report.fused_ars) +
                    ",\"synthesized_ars\":" + std::to_string(report.synthesized_ars) +
                    ",\"sets\":[";
  for (std::size_t s = 0; s < report.sets.size(); ++s) {
    const CorrelatedSet& set = report.sets[s];
    out += std::string(s > 0 ? "," : "") + "{\"id\":" + std::to_string(set.id) + ",\"members\":[";
    for (std::size_t i = 0; i < set.member_names.size(); ++i) {
      out += std::string(i > 0 ? "," : "") + "\"" + report::EscapeJson(set.member_names[i]) + "\"";
    }
    out += "],\"support\":" + std::to_string(set.support) +
           ",\"fused_ars\":" + std::to_string(set.fused_ars) +
           ",\"synthesized_ars\":" + std::to_string(set.synthesized_ars) + ",\"pairs\":[";
    for (std::size_t i = 0; i < set.pairs.size(); ++i) {
      out += std::string(i > 0 ? "," : "") + pair_json(set.pairs[i]);
    }
    out += "]}";
  }
  out += "],\"rejected\":[";
  for (std::size_t i = 0; i < report.rejected.size(); ++i) {
    out += std::string(i > 0 ? "," : "") + pair_json(report.rejected[i]);
  }
  out += "]}";
  return out;
}

}  // namespace kivati
