#include "analysis/conflict.h"

#include <algorithm>
#include <cstdio>

#include "analysis/lockset.h"
#include "common/report_envelope.h"

namespace kivati {
namespace {

constexpr int kNoClass = -1;
constexpr int kManyClasses = -2;

std::string PairCase(const FunctionAr& ar) {
  WatchType seconds = WatchType::kNone;
  for (const auto& [op, type] : ar.ends) {
    seconds = Union(seconds, ToWatchType(type));
  }
  std::string out = ar.first_type == AccessType::kRead ? "R.." : "W..";
  out += seconds == WatchType::kReadWrite ? "RW" : (seconds == WatchType::kWrite ? "W" : "R");
  out += " watches remote ";
  out += ar.watch == WatchType::kReadWrite ? "RW" : (ar.watch == WatchType::kWrite ? "W" : "R");
  return out;
}

const char* AccessLetter(AccessType type) { return type == AccessType::kRead ? "R" : "W"; }

}  // namespace

const char* ToString(ArVerdict verdict) {
  switch (verdict) {
    case ArVerdict::kNoRemoteWriter:
      return "no-remote-writer";
    case ArVerdict::kLockProtected:
      return "lock-protected";
    case ArVerdict::kWatchRequired:
      return "watch-required";
  }
  return "?";
}

ConflictAnalyzer::ConflictAnalyzer(const MirModule& module, const LockFacts& locks,
                                   const ConflictOptions& options)
    : module_(module),
      locks_(locks),
      options_(options),
      address_taken_(module.globals.size(), false),
      sync_locks_(locks.EmptySet()) {
  AssignThreadClasses();
  // Only sync-qualified lock words count (the language's locking
  // discipline; see docs/language.md).
  for (std::size_t b = 0; b < locks.lock_words().size(); ++b) {
    if (module.globals[static_cast<std::size_t>(locks.lock_words()[b])].is_sync) {
      sync_locks_.insert(b);
    }
  }
  // Globals whose address escapes: a pointer dereference anywhere may reach
  // them (the module's aliasing assumption — pointers only target
  // address-taken objects). Every shared access, listed once for all ARs;
  // an op makes one at most.
  std::size_t num_ops = 0;
  for (const MirFunction& function : module.functions) {
    num_ops += function.ops.size();
  }
  accesses_.reserve(num_ops);
  for (std::size_t f = 0; f < module.functions.size(); ++f) {
    const std::vector<MirOp>& ops = module.functions[f].ops;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const MirOp& op = ops[i];
      if (op.kind == MirOp::Kind::kAddrGlobal) {
        address_taken_[static_cast<std::size_t>(op.global)] = true;
      } else if (op.kind == MirOp::Kind::kAddrIndex && op.array.space == VarRef::Space::kGlobal) {
        address_taken_[static_cast<std::size_t>(op.array.index)] = true;
      }
      if (const auto access = SharedAccessOf(op)) {
        accesses_.push_back({static_cast<std::uint32_t>(f), static_cast<std::uint32_t>(i),
                             access->base, access->type,
                             op.kind == MirOp::Kind::kLoadPtr ||
                                 op.kind == MirOp::Kind::kStorePtr});
      }
    }
  }
}

// Thread classes: each root, and each spawn target reachable from a class,
// with everything it reaches through calls. A spawn target runs on 2
// threads: its spawn site may execute more than once, so the target must be
// assumed concurrent with itself. Only each function's class membership is
// kept: one class, none, or several.
void ConflictAnalyzer::AssignThreadClasses() {
  const std::size_t n = module_.functions.size();
  if (options_.roots.empty()) {
    // Thread structure unknown: every function may run on 2+ threads.
    home_.assign(n, kManyClasses);
    return;
  }
  home_.assign(n, kNoClass);
  std::vector<int> class_root;
  std::vector<int> class_of_root(n, -1);
  const auto add_class = [&](int root, int threads) {
    class_of_root[static_cast<std::size_t>(root)] = static_cast<int>(class_root.size());
    class_root.push_back(root);
    class_threads_.push_back(threads);
  };
  for (const auto& [name, count] : options_.roots) {
    const MirFunction* function = module_.FindFunction(name);
    if (function == nullptr) {
      continue;
    }
    const auto root = static_cast<int>(function - module_.functions.data());
    const int c = class_of_root[static_cast<std::size_t>(root)];
    if (c >= 0) {
      class_threads_[static_cast<std::size_t>(c)] += count;
    } else {
      add_class(root, count);
    }
  }
  std::vector<int> reached_by(n, -1);  // the last class that reached each function
  std::vector<int> work;
  for (std::size_t c = 0; c < class_root.size(); ++c) {
    const int cls = static_cast<int>(c);
    work.assign(1, class_root[c]);
    reached_by[static_cast<std::size_t>(class_root[c])] = cls;
    while (!work.empty()) {
      const auto f = static_cast<std::size_t>(work.back());
      work.pop_back();
      home_[f] = home_[f] == kNoClass ? cls : kManyClasses;
      for (const MirOp& op : module_.functions[f].ops) {
        if (op.kind != MirOp::Kind::kCall && op.kind != MirOp::Kind::kSpawn) {
          continue;
        }
        const int target = op.callee_index;
        if (target < 0) {
          continue;
        }
        const auto t = static_cast<std::size_t>(target);
        if (op.kind == MirOp::Kind::kCall && reached_by[t] != cls) {
          reached_by[t] = cls;
          work.push_back(target);
        } else if (op.kind == MirOp::Kind::kSpawn && class_of_root[t] < 0) {
          add_class(target, 2);
        }
      }
    }
  }
}

// Some class reaching g runs beside f: f is reached by several classes, or
// by one that runs on 2+ threads, or g is reached by a class other than f's
// only one.
bool ConflictAnalyzer::Remote(std::size_t f, std::size_t g) const {
  const int mine = home_[f];
  const int theirs = home_[g];
  if (mine == kNoClass || theirs == kNoClass) {
    return false;
  }
  return theirs != mine || mine == kManyClasses ||
         class_threads_[static_cast<std::size_t>(mine)] >= 2;
}

ConflictReport ConflictAnalyzer::Run(const ModuleAnnotations& annotations) const {
  ConflictReport report;
  report.ars.resize(annotations.infos.size());
  for (std::size_t f = 0; f < module_.functions.size(); ++f) {
    for (const FunctionAr& ar : annotations.functions[f].ars) {
      ArConflict conflict = Classify(f, ar);
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
      if (options_.prune && conflict.verdict != ArVerdict::kWatchRequired) {
        report.pruned.insert(conflict.id);
      }
      report.ars[conflict.id - 1] = std::move(conflict);
    }
  }
  return report;
}

// Collects the concurrently reachable accesses the AR's watchpoint would
// trap on, in (function, op) order; `site_ops_` gets each site's (function,
// op) for the lockset queries.
ArConflict ConflictAnalyzer::Classify(std::size_t f, const FunctionAr& ar) const {
  ArConflict conflict;
  conflict.id = ar.id;
  conflict.pair_case = PairCase(ar);
  site_ops_.clear();
  const bool local_identity = ar.var.space == VarRef::Space::kLocal;
  const bool via_pointer_reachable =
      local_identity || address_taken_[static_cast<std::size_t>(ar.var.index)];
  for (const Access& access : accesses_) {
    if (!Matches(ar.watch, access.type) || !Remote(f, access.function)) {
      continue;
    }
    // A pointer-identified (or address-taken-local) region may alias any
    // concurrent memory access: stay maximally conservative.
    const bool by_name = !local_identity && access.base.space == VarRef::Space::kGlobal &&
                         access.base.index == ar.var.index;
    const bool via_pointer = local_identity || (via_pointer_reachable && access.via_deref);
    if (!by_name && !via_pointer) {
      continue;
    }
    const MirFunction& fn = module_.functions[access.function];
    conflict.remote_sites.push_back(
        {fn.name, static_cast<int>(access.op), fn.ops[access.op].line, access.type, via_pointer});
    site_ops_.emplace_back(access.function, access.op);
  }
  if (conflict.remote_sites.empty()) {
    conflict.verdict = ArVerdict::kNoRemoteWriter;
    return conflict;
  }
  const int lock = FindProtectingLock(f, ar);
  if (lock >= 0) {
    conflict.verdict = ArVerdict::kLockProtected;
    conflict.lock = module_.globals[static_cast<std::size_t>(lock)].name;
    conflict.remote_sites.clear();
    return conflict;
  }
  conflict.verdict = ArVerdict::kWatchRequired;
  return conflict;
}

// A trusted sync lock held continuously across the local pair and at every
// dangerous remote site, or -1. An access hosted by a call op happens inside
// the callee, possibly after the callee's unlocks, so what the callee may
// release does not count there.
int ConflictAnalyzer::FindProtectingLock(std::size_t f, const FunctionAr& ar) const {
  ends_.clear();
  for (const auto& [op, type] : ar.ends) {
    ends_.push_back(op);
  }
  LockSet held = locks_.HeldAcross(f, ar.first_op, ends_);
  locks_.ReleaseByCall(f, static_cast<std::size_t>(ar.first_op), held);
  for (const int end : ends_) {
    locks_.ReleaseByCall(f, static_cast<std::size_t>(end), held);
  }
  held.IntersectWith(sync_locks_.words());
  for (std::size_t s = 0; s < site_ops_.size() && !held.empty(); ++s) {
    const auto [g, op] = site_ops_[s];
    held.IntersectWith(locks_.must_held(g, op));
    locks_.ReleaseByCall(g, op, held);
  }
  return held.empty() ? -1 : locks_.lock_words()[static_cast<std::size_t>(held.first())];
}

std::vector<std::pair<std::string, int>> ThreadRoots(
    const std::vector<std::pair<std::string, std::uint64_t>>& threads) {
  std::vector<std::pair<std::string, int>> roots;
  for (const auto& thread : threads) {
    const auto root = std::find_if(roots.begin(), roots.end(),
                                   [&](const auto& r) { return r.first == thread.first; });
    if (root != roots.end()) {
      ++root->second;
    } else {
      roots.emplace_back(thread.first, 1);
    }
  }
  return roots;
}

ConflictReport AnalyzeConflicts(const MirModule& module, const ModuleAnnotations& annotations,
                                const LockFacts& locks, const ConflictOptions& options) {
  return ConflictAnalyzer(module, locks, options).Run(annotations);
}

std::string FormatConflictReport(const ConflictReport& report,
                                 const std::vector<ArDebugInfo>& infos) {
  char buf[256];
  std::string out;
  std::snprintf(buf, sizeof(buf),
                "conflict analysis: %zu ARs: %zu watch-required, %zu lock-protected, "
                "%zu no-remote-writer (%zu pruned)\n",
                report.ars.size(), report.watch_required, report.lock_protected,
                report.no_remote_writer, report.pruned.size());
  out += buf;

  std::vector<const ArConflict*> ranked;
  for (const ArConflict& ar : report.ars) {
    if (ar.verdict == ArVerdict::kWatchRequired) {
      ranked.push_back(&ar);
    }
  }
  std::stable_sort(ranked.begin(), ranked.end(), [](const ArConflict* a, const ArConflict* b) {
    return a->remote_sites.size() > b->remote_sites.size();
  });
  if (!ranked.empty()) {
    out += "watch-required (most conflicting sites first):\n";
    for (const ArConflict* ar : ranked) {
      const ArDebugInfo& info = infos[ar->id - 1];
      std::snprintf(buf, sizeof(buf), "  AR %-4u %-20s %s:%d  [%s]  %zu remote site%s:",
                    ar->id, info.variable.c_str(), info.function.c_str(), info.line,
                    ar->pair_case.c_str(), ar->remote_sites.size(),
                    ar->remote_sites.size() == 1 ? "" : "s");
      out += buf;
      const std::size_t shown = std::min<std::size_t>(ar->remote_sites.size(), 4);
      for (std::size_t i = 0; i < shown; ++i) {
        const RemoteSite& site = ar->remote_sites[i];
        std::snprintf(buf, sizeof(buf), " %s:%d(%s%s)", site.function.c_str(), site.line,
                      AccessLetter(site.type), site.via_pointer ? " via *" : "");
        out += buf;
      }
      if (ar->remote_sites.size() > shown) {
        std::snprintf(buf, sizeof(buf), " +%zu more", ar->remote_sites.size() - shown);
        out += buf;
      }
      out += "\n";
    }
  }
  bool header = false;
  for (const ArConflict& ar : report.ars) {
    if (ar.verdict != ArVerdict::kLockProtected) {
      continue;
    }
    if (!header) {
      out += "lock-protected:\n";
      header = true;
    }
    const ArDebugInfo& info = infos[ar.id - 1];
    std::snprintf(buf, sizeof(buf), "  AR %-4u %-20s %s:%d  guarded by %s\n", ar.id,
                  info.variable.c_str(), info.function.c_str(), info.line, ar.lock.c_str());
    out += buf;
  }
  header = false;
  for (const ArConflict& ar : report.ars) {
    if (ar.verdict != ArVerdict::kNoRemoteWriter) {
      continue;
    }
    if (!header) {
      out += "no-remote-writer:\n";
      header = true;
    }
    const ArDebugInfo& info = infos[ar.id - 1];
    std::snprintf(buf, sizeof(buf), "  AR %-4u %-20s %s:%d\n", ar.id, info.variable.c_str(),
                  info.function.c_str(), info.line);
    out += buf;
  }
  return out;
}

std::string ConflictReportJson(const ConflictReport& report,
                               const std::vector<ArDebugInfo>& infos) {
  char buf[128];
  std::string out = report::EnvelopePrefix({"kivati_analyze", 1});
  std::snprintf(buf, sizeof(buf),
                "\"ars_total\":%zu,\"watch_required\":%zu,\"lock_protected\":%zu,"
                "\"no_remote_writer\":%zu,\"pruned\":%zu,\"ars\":[\n",
                report.ars.size(), report.watch_required, report.lock_protected,
                report.no_remote_writer, report.pruned.size());
  out += buf;
  for (std::size_t i = 0; i < report.ars.size(); ++i) {
    const ArConflict& ar = report.ars[i];
    const ArDebugInfo& info = infos[i];
    out += "{\"id\":" + std::to_string(ar.id);
    out += ",\"function\":\"" + report::EscapeJson(info.function) + "\"";
    out += ",\"variable\":\"" + report::EscapeJson(info.variable) + "\"";
    out += ",\"line\":" + std::to_string(info.line);
    out += ",\"verdict\":\"";
    out += ToString(ar.verdict);
    out += "\",\"case\":\"" + report::EscapeJson(ar.pair_case) + "\"";
    out += ",\"pruned\":";
    out += report.pruned.contains(ar.id) ? "true" : "false";
    if (!ar.lock.empty()) {
      out += ",\"lock\":\"" + report::EscapeJson(ar.lock) + "\"";
    }
    if (!ar.remote_sites.empty()) {
      out += ",\"remote_sites\":[";
      for (std::size_t s = 0; s < ar.remote_sites.size(); ++s) {
        const RemoteSite& site = ar.remote_sites[s];
        if (s != 0) {
          out += ",";
        }
        out += "{\"function\":\"" + report::EscapeJson(site.function) + "\"";
        out += ",\"line\":" + std::to_string(site.line);
        out += ",\"type\":\"";
        out += AccessLetter(site.type);
        out += "\",\"via_pointer\":";
        out += site.via_pointer ? "true" : "false";
        out += "}";
      }
      out += "]";
    }
    out += "}";
    if (i + 1 < report.ars.size()) {
      out += ",";
    }
    out += "\n";
  }
  out += "]}\n";
  return out;
}

}  // namespace kivati
