#include "exp/compare.h"

#include <chrono>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <unordered_set>

#include "common/report_envelope.h"

namespace kivati {
namespace exp {

using report::AppendField;

namespace {

// The addresses of the shared variables behind the workload's known-buggy
// ARs: the HB backend reports per address, Kivati per AR, so "did it find
// the bug" is judged in each backend's own unit over the same variables.
std::unordered_set<Addr> BuggyAddrs(const apps::App& app) {
  std::unordered_set<Addr> addrs;
  if (app.compiled == nullptr) {
    return addrs;
  }
  for (const ArId ar : app.workload.buggy_ars) {
    if (ar == 0 || ar > app.compiled->ar_infos.size()) {
      continue;
    }
    const auto it = app.compiled->global_addrs.find(app.compiled->ar_infos[ar - 1].variable);
    if (it != app.compiled->global_addrs.end()) {
      addrs.insert(it->second);
    }
  }
  return addrs;
}

CompareRow ClassifyRow(const RunSpec& spec, const apps::App& app,
                       const RunRecord& record) {
  CompareRow row;
  row.name = spec.label;
  if (!record.error.empty()) {
    row.error = record.error;
    return row;
  }
  row.has_known_bugs = !app.workload.buggy_ars.empty();

  row.kivati_violations = record.violations;
  std::set<ArId> violating_bug_ars;
  for (const ViolationRecord& v : record.violation_records) {
    if (app.workload.buggy_ars.count(v.ar_id) != 0) {
      violating_bug_ars.insert(v.ar_id);
    }
  }
  row.kivati_bug_ars = violating_bug_ars.size();
  row.kivati_found_bug = !violating_bug_ars.empty();
  row.kivati_false_positive_ars = record.false_positive_ars;
  row.kivati_overhead_ops =
      record.stats.kernel_entries_total() + record.stats.watchpoint_traps;

  const std::unordered_set<Addr> buggy_addrs = BuggyAddrs(app);
  std::set<Addr> race_addrs;
  std::set<Addr> race_bug_addrs;
  for (const detect::Finding& finding : record.hb_findings) {
    if (finding.kind != "hb-race") {
      continue;
    }
    race_addrs.insert(finding.addr);
    if (buggy_addrs.count(finding.addr) != 0) {
      race_bug_addrs.insert(finding.addr);
    }
  }
  row.hb_races = race_addrs.size();
  row.hb_bug_addrs = race_bug_addrs.size();
  row.hb_found_bug = !race_bug_addrs.empty();
  row.hb_false_positive_addrs = race_addrs.size() - race_bug_addrs.size();
  row.hb_lockset_only = record.hb_lockset_only;
  row.hb_accesses = record.hb_stats.accesses_observed;
  row.hb_overhead_ops = record.hb_stats.overhead_ops;
  return row;
}

}  // namespace

CompareReport RunCompare(const CompareOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  const int sources =
      !options.bugs.empty() + !options.app.empty() + !options.source_path.empty();
  if (sources > 1) {
    throw std::runtime_error("compare takes bugs, an app, or a source file — not several");
  }

  std::vector<RunSpec> specs;
  auto base_spec = [&]() {
    RunSpec spec;
    spec.scale = options.scale;
    spec.machine = options.machine;
    spec.budget = options.budget;
    spec.preset = options.preset;
    spec.mode = KivatiMode::kBugFinding;
    spec.pause_ms = options.pause_ms;
    spec.hb_detector = true;
    return spec;
  };
  if (!options.app.empty()) {
    RunSpec spec = base_spec();
    spec.app = options.app;
    spec.label = options.app;
    specs.push_back(std::move(spec));
  } else if (!options.source_path.empty()) {
    RunSpec spec = base_spec();
    spec.source_path = options.source_path;
    spec.threads = options.threads;
    spec.label = options.source_path;
    specs.push_back(std::move(spec));
  } else {
    std::vector<std::string> bugs =
        options.bugs.empty() ? CorpusBugNames() : options.bugs;
    for (const std::string& bug : bugs) {
      RunSpec spec = base_spec();
      spec.bug = bug;
      spec.label = bug;
      specs.push_back(std::move(spec));
    }
  }

  // Resolve every workload up front (throws on unknown names before any run
  // starts) and pin it as prebuilt so classification below sees exactly the
  // App each engine executed.
  std::vector<std::shared_ptr<const apps::App>> resolved;
  resolved.reserve(specs.size());
  for (RunSpec& spec : specs) {
    resolved.push_back(ResolveApp(spec));
    spec.prebuilt = resolved.back();
    spec.app.clear();
    spec.source_path.clear();
    spec.bug.clear();
  }

  ExperimentRunner runner;
  const std::vector<RunRecord> records = runner.RunAll(specs);

  CompareReport report;
  report.seed = options.machine.seed;
  for (std::size_t i = 0; i < records.size(); ++i) {
    report.rows.push_back(ClassifyRow(specs[i], *resolved[i], records[i]));
    const CompareRow& row = report.rows.back();
    if (!row.error.empty()) {
      continue;
    }
    ++report.rows_total;
    if (row.has_known_bugs) {
      ++report.rows_with_bugs;
      report.kivati_bugs_found += row.kivati_found_bug ? 1 : 0;
      report.hb_bugs_found += row.hb_found_bug ? 1 : 0;
    }
    report.kivati_false_positives += row.kivati_false_positive_ars;
    report.hb_false_positives += row.hb_false_positive_addrs;
    report.hb_lockset_only += row.hb_lockset_only;
    report.kivati_overhead_ops += row.kivati_overhead_ops;
    report.hb_overhead_ops += row.hb_overhead_ops;
    report.hb_accesses += row.hb_accesses;
  }
  if (report.hb_accesses > 0) {
    report.kivati_ops_per_access =
        static_cast<double>(report.kivati_overhead_ops) / static_cast<double>(report.hb_accesses);
    report.hb_ops_per_access =
        static_cast<double>(report.hb_overhead_ops) / static_cast<double>(report.hb_accesses);
  }
  if (report.kivati_overhead_ops > 0) {
    report.overhead_ratio = static_cast<double>(report.hb_overhead_ops) /
                            static_cast<double>(report.kivati_overhead_ops);
  }
  report.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  return report;
}

std::string CompareReportJson(const CompareReport& report, bool include_wall_clock) {
  std::string out = report::EnvelopePrefix({"kivati_compare", 1});
  AppendField(out, "seed", report.seed);
  AppendField(out, "rows_total", static_cast<std::uint64_t>(report.rows_total));
  AppendField(out, "rows_with_bugs", static_cast<std::uint64_t>(report.rows_with_bugs));
  AppendField(out, "kivati_bugs_found", static_cast<std::uint64_t>(report.kivati_bugs_found));
  AppendField(out, "hb_bugs_found", static_cast<std::uint64_t>(report.hb_bugs_found));
  AppendField(out, "kivati_false_positives",
              static_cast<std::uint64_t>(report.kivati_false_positives));
  AppendField(out, "hb_false_positives", static_cast<std::uint64_t>(report.hb_false_positives));
  AppendField(out, "hb_lockset_only", static_cast<std::uint64_t>(report.hb_lockset_only));
  AppendField(out, "kivati_overhead_ops", report.kivati_overhead_ops);
  AppendField(out, "hb_overhead_ops", report.hb_overhead_ops);
  AppendField(out, "hb_accesses", report.hb_accesses);
  AppendField(out, "kivati_ops_per_access", report.kivati_ops_per_access);
  AppendField(out, "hb_ops_per_access", report.hb_ops_per_access);
  AppendField(out, "overhead_ratio", report.overhead_ratio);
  if (include_wall_clock) {
    AppendField(out, "wall_ms", report.wall_ms);
  }
  out += "\"rows\":[\n";
  for (std::size_t i = 0; i < report.rows.size(); ++i) {
    const CompareRow& row = report.rows[i];
    std::string line = "{";
    AppendField(line, "name", row.name);
    if (!row.error.empty()) {
      AppendField(line, "error", row.error, /*comma=*/false);
    } else {
      AppendField(line, "has_known_bugs", row.has_known_bugs);
      AppendField(line, "kivati_found_bug", row.kivati_found_bug);
      AppendField(line, "kivati_violations", static_cast<std::uint64_t>(row.kivati_violations));
      AppendField(line, "kivati_bug_ars", static_cast<std::uint64_t>(row.kivati_bug_ars));
      AppendField(line, "kivati_false_positive_ars",
                  static_cast<std::uint64_t>(row.kivati_false_positive_ars));
      AppendField(line, "kivati_overhead_ops", row.kivati_overhead_ops);
      AppendField(line, "hb_found_bug", row.hb_found_bug);
      AppendField(line, "hb_races", static_cast<std::uint64_t>(row.hb_races));
      AppendField(line, "hb_bug_addrs", static_cast<std::uint64_t>(row.hb_bug_addrs));
      AppendField(line, "hb_false_positive_addrs",
                  static_cast<std::uint64_t>(row.hb_false_positive_addrs));
      AppendField(line, "hb_lockset_only", static_cast<std::uint64_t>(row.hb_lockset_only));
      AppendField(line, "hb_accesses", row.hb_accesses);
      AppendField(line, "hb_overhead_ops", row.hb_overhead_ops, /*comma=*/false);
    }
    line += "}";
    out += line;
    if (i + 1 < report.rows.size()) {
      out += ",";
    }
    out += "\n";
  }
  out += "]}\n";
  return out;
}

std::string FormatCompareTable(const CompareReport& report) {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%-18s | %-28s | %s\n", "workload",
                "kivati (watchpoints)", "hb oracle (per-access)");
  out += buf;
  out += std::string(18, '-') + "-+-" + std::string(28, '-') + "-+-" +
         std::string(40, '-') + "\n";
  for (const CompareRow& row : report.rows) {
    if (!row.error.empty()) {
      std::snprintf(buf, sizeof(buf), "%-18s | error: %s\n", row.name.c_str(),
                    row.error.c_str());
      out += buf;
      continue;
    }
    const char* kivati_bug =
        row.has_known_bugs ? (row.kivati_found_bug ? "FOUND" : "miss ") : "  -  ";
    const char* hb_bug =
        row.has_known_bugs ? (row.hb_found_bug ? "FOUND" : "miss ") : "  -  ";
    std::snprintf(buf, sizeof(buf),
                  "%-18s | %s viol=%-4zu fp=%-3zu | %s races=%-3zu fp=%-3zu "
                  "lockset_only=%-3zu accesses=%llu\n",
                  row.name.c_str(), kivati_bug, row.kivati_violations,
                  row.kivati_false_positive_ars, hb_bug, row.hb_races,
                  row.hb_false_positive_addrs, row.hb_lockset_only,
                  static_cast<unsigned long long>(row.hb_accesses));
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "\nbugs found: kivati %zu/%zu, hb %zu/%zu; false positives: "
                "kivati %zu, hb %zu (+%zu lockset-only)\n",
                report.kivati_bugs_found, report.rows_with_bugs, report.hb_bugs_found,
                report.rows_with_bugs, report.kivati_false_positives,
                report.hb_false_positives, report.hb_lockset_only);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "overhead: kivati %.4f ops/access, hb %.4f ops/access "
                "(ratio %.1fx over %llu shared accesses)\n",
                report.kivati_ops_per_access, report.hb_ops_per_access,
                report.overhead_ratio,
                static_cast<unsigned long long>(report.hb_accesses));
  out += buf;
  return out;
}

}  // namespace exp
}  // namespace kivati
