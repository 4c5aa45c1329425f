#include "exp/run_record.h"

#include "common/report_envelope.h"

namespace kivati {
namespace exp {

using report::AppendField;

namespace {

std::string HistogramJson(const CycleHistogram& hist) {
  std::string out = "{";
  AppendField(out, "n", hist.count());
  AppendField(out, "min", static_cast<std::uint64_t>(hist.min()));
  AppendField(out, "p50", static_cast<std::uint64_t>(hist.Percentile(0.5)));
  AppendField(out, "p99", static_cast<std::uint64_t>(hist.Percentile(0.99)));
  AppendField(out, "max", static_cast<std::uint64_t>(hist.max()));
  AppendField(out, "sum", hist.sum(), /*comma=*/false);
  out += "}";
  return out;
}

std::string StatsJson(const RuntimeStats& stats) {
  std::string out = "{";
  AppendField(out, "begin_atomic_calls", stats.begin_atomic_calls);
  AppendField(out, "end_atomic_calls", stats.end_atomic_calls);
  AppendField(out, "clear_ar_calls", stats.clear_ar_calls);
  AppendField(out, "kernel_entries_begin", stats.kernel_entries_begin);
  AppendField(out, "kernel_entries_end", stats.kernel_entries_end);
  AppendField(out, "kernel_entries_clear", stats.kernel_entries_clear);
  AppendField(out, "kernel_entries_trap", stats.kernel_entries_trap);
  AppendField(out, "watchpoint_traps", stats.watchpoint_traps);
  AppendField(out, "violations_detected", stats.violations_detected);
  AppendField(out, "violations_prevented", stats.violations_prevented);
  AppendField(out, "ars_entered", stats.ars_entered);
  AppendField(out, "ars_missed", stats.ars_missed);
  AppendField(out, "ars_whitelisted", stats.ars_whitelisted);
  AppendField(out, "ars_timeout_bypassed", stats.ars_timeout_bypassed);
  AppendField(out, "remote_suspensions", stats.remote_suspensions);
  AppendField(out, "suspension_timeouts", stats.suspension_timeouts);
  AppendField(out, "unreorderable_accesses", stats.unreorderable_accesses);
  AppendField(out, "bugfinding_pauses", stats.bugfinding_pauses);
  AppendField(out, "fast_path_begin", stats.fast_path_begin);
  AppendField(out, "fast_path_end", stats.fast_path_end);
  AppendField(out, "fast_path_clear", stats.fast_path_clear);
  AppendField(out, "ars_annotated", stats.ars_annotated);
  AppendField(out, "ars_no_remote_writer", stats.ars_no_remote_writer);
  AppendField(out, "ars_lock_protected", stats.ars_lock_protected);
  AppendField(out, "ars_watch_required", stats.ars_watch_required);
  AppendField(out, "ars_pruned", stats.ars_pruned);
  out += "\"suspension_latency\":" + HistogramJson(stats.suspension_latency) + ",";
  out += "\"ar_duration\":" + HistogramJson(stats.ar_duration) + ",";
  out += "\"sync_stall\":" + HistogramJson(stats.sync_stall);
  out += "}";
  return out;
}

}  // namespace

const char* ToString(OptimizationPreset preset) {
  switch (preset) {
    case OptimizationPreset::kBase:
      return "base";
    case OptimizationPreset::kNullSyscall:
      return "null";
    case OptimizationPreset::kSyncVars:
      return "syncvars";
    case OptimizationPreset::kOptimized:
      return "optimized";
  }
  return "?";
}

const char* ToString(KivatiMode mode) {
  return mode == KivatiMode::kBugFinding ? "bug-finding" : "prevention";
}

bool ParsePreset(const std::string& text, OptimizationPreset* out) {
  if (text == "base") {
    *out = OptimizationPreset::kBase;
  } else if (text == "null") {
    *out = OptimizationPreset::kNullSyscall;
  } else if (text == "syncvars") {
    *out = OptimizationPreset::kSyncVars;
  } else if (text == "optimized") {
    *out = OptimizationPreset::kOptimized;
  } else {
    return false;
  }
  return true;
}

bool ParseMode(const std::string& text, KivatiMode* out) {
  if (text == "prevention") {
    *out = KivatiMode::kPrevention;
  } else if (text == "bug-finding" || text == "bugfinding") {
    *out = KivatiMode::kBugFinding;
  } else {
    return false;
  }
  return true;
}

namespace {

// The record's fields without the surrounding braces, shared by the plain
// object form (ToJson — sweep rows) and the enveloped report (RunReportJson).
std::string RecordBodyJson(const RunRecord& record, bool include_wall_clock) {
  std::string out;
  AppendField(out, "label", record.label);
  AppendField(out, "app", record.app);
  AppendField(out, "config",
              record.vanilla ? std::string("vanilla") : std::string(ToString(record.preset)));
  AppendField(out, "mode", std::string(ToString(record.mode)));
  AppendField(out, "cores", static_cast<std::uint64_t>(record.cores));
  AppendField(out, "watchpoints", static_cast<std::uint64_t>(record.watchpoints));
  AppendField(out, "seed", record.seed);
  if (!record.error.empty()) {
    AppendField(out, "error", record.error, /*comma=*/false);
    return out;
  }
  AppendField(out, "cycles", static_cast<std::uint64_t>(record.cycles));
  AppendField(out, "virtual_seconds", record.virtual_seconds);
  AppendField(out, "instructions", record.instructions);
  AppendField(out, "completed", record.completed);
  AppendField(out, "deadlocked", record.deadlocked);
  AppendField(out, "hit_limit", record.hit_limit);
  AppendField(out, "violations", static_cast<std::uint64_t>(record.violations));
  AppendField(out, "violations_prevented", static_cast<std::uint64_t>(record.violations_prevented));
  AppendField(out, "unique_violating_ars", static_cast<std::uint64_t>(record.unique_violating_ars));
  AppendField(out, "false_positive_ars", static_cast<std::uint64_t>(record.false_positive_ars));
  if (!record.latencies.empty()) {
    out += "\"latencies\":[";
    for (std::size_t i = 0; i < record.latencies.size(); ++i) {
      if (i != 0) {
        out += ",";
      }
      out += std::to_string(record.latencies[i]);
    }
    out += "],";
  }
  if (record.hb_attached) {
    out += "\"hb\":{";
    AppendField(out, "races", static_cast<std::uint64_t>(record.hb_races));
    AppendField(out, "lockset_only", static_cast<std::uint64_t>(record.hb_lockset_only));
    AppendField(out, "accesses", record.hb_stats.accesses_observed);
    AppendField(out, "shadow_ops", record.hb_stats.shadow_ops);
    AppendField(out, "sync_ops", record.hb_stats.sync_ops);
    AppendField(out, "overhead_ops", record.hb_stats.overhead_ops, /*comma=*/false);
    out += "},";
  }
  if (include_wall_clock) {
    AppendField(out, "wall_ms", record.wall_ms);
  }
  out += "\"stats\":" + StatsJson(record.stats);
  return out;
}

}  // namespace

std::string ToJson(const RunRecord& record, bool include_wall_clock) {
  return "{" + RecordBodyJson(record, include_wall_clock) + "}";
}

std::string RunReportJson(const RunRecord& record, bool include_wall_clock) {
  return report::EnvelopePrefix({"kivati_run", 1}) +
         RecordBodyJson(record, include_wall_clock) + "}";
}

std::string SweepReportJson(const std::vector<RunRecord>& records, unsigned workers,
                            double total_wall_ms, bool include_wall_clock) {
  std::string out = report::EnvelopePrefix({"kivati_sweep", 2});
  AppendField(out, "runs_total", static_cast<std::uint64_t>(records.size()));
  if (include_wall_clock) {
    AppendField(out, "workers", static_cast<std::uint64_t>(workers));
    AppendField(out, "wall_ms", total_wall_ms);
  }
  out += "\"runs\":[\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    out += ToJson(records[i], include_wall_clock);
    if (i + 1 < records.size()) {
      out += ",";
    }
    out += "\n";
  }
  out += "]}\n";
  return out;
}

}  // namespace exp
}  // namespace kivati
