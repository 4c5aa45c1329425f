// Side-by-side detector-backend comparison (kivati compare).
//
// Runs each selected workload ONCE with both oracles observing the same
// deterministic execution: Kivati's watchpoint pipeline (the engine itself)
// and the happens-before/lockset detector attached to the trace hub
// (RunSpec::hb_detector). Because the HB backend judges the synchronization
// structure rather than the observed interleaving's timing, one execution
// suffices to compare what each technology reports and what it would have
// cost: bugs found, false positives, and simulated per-access overhead —
// the paper's §5 argument (always-on watchpoint detection vs instrumenting
// every shared access) reduced to numbers.
#ifndef KIVATI_EXP_COMPARE_H_
#define KIVATI_EXP_COMPARE_H_

#include <optional>
#include <string>
#include <vector>

#include "exp/runner.h"

namespace kivati {
namespace exp {

struct CompareOptions {
  // Workload selection — corpus bug names (empty + no app/source = the full
  // Table-6 corpus), or one registered app / mini-C source file.
  std::vector<std::string> bugs;
  std::string app;
  std::string source_path;
  // Threads a source file starts, as (function, argument); empty = main:0.
  std::vector<std::pair<std::string, std::uint64_t>> threads;

  apps::LoadScale scale;
  MachineConfig machine;
  std::optional<Cycles> budget;
  // Kivati runs in bug-finding mode (log and continue) so both backends see
  // the run to completion; the pause is off by default to keep the
  // comparison about detection, not perturbation.
  double pause_ms = 0.0;
  OptimizationPreset preset = OptimizationPreset::kOptimized;
};

// One workload's two-backend outcome.
struct CompareRow {
  std::string name;

  // Kivati backend.
  std::size_t kivati_violations = 0;     // raw violation reports
  std::size_t kivati_bug_ars = 0;        // violating ARs that are known bugs
  std::size_t kivati_false_positive_ars = 0;
  bool kivati_found_bug = false;
  std::uint64_t kivati_overhead_ops = 0;  // kernel crossings + traps

  // Happens-before backend.
  std::size_t hb_races = 0;              // deduped racy addresses reported
  std::size_t hb_bug_addrs = 0;          // racy addresses that are known bugs
  std::size_t hb_false_positive_addrs = 0;
  std::size_t hb_lockset_only = 0;       // raw-Eraser-only findings
  bool hb_found_bug = false;
  std::uint64_t hb_accesses = 0;
  std::uint64_t hb_overhead_ops = 0;     // shadow + sync operations

  // Whether the workload has known injected bugs at all (the false-positive
  // corpus rows don't; "found" is vacuously false there).
  bool has_known_bugs = false;

  std::string error;  // non-empty if the run failed
};

struct CompareReport {
  std::vector<CompareRow> rows;
  std::uint64_t seed = 0;

  // Aggregates over non-error rows.
  std::size_t rows_total = 0;
  std::size_t rows_with_bugs = 0;
  std::size_t kivati_bugs_found = 0;
  std::size_t hb_bugs_found = 0;
  std::size_t kivati_false_positives = 0;  // summed FP ARs
  std::size_t hb_false_positives = 0;      // summed FP addresses
  std::size_t hb_lockset_only = 0;
  std::uint64_t kivati_overhead_ops = 0;
  std::uint64_t hb_overhead_ops = 0;
  std::uint64_t hb_accesses = 0;
  // Simulated work per shared access for each backend, and their quotient —
  // how many times more per-access work the always-on oracle performs.
  double kivati_ops_per_access = 0.0;
  double hb_ops_per_access = 0.0;
  double overhead_ratio = 0.0;

  double wall_ms = 0.0;
};

// Executes the comparison through ExperimentRunner (deterministic given the
// options). Throws std::runtime_error for unknown bug/app names.
CompareReport RunCompare(const CompareOptions& options);

// Envelope document: {"kind":"kivati_compare","schema_version":1,...}.
std::string CompareReportJson(const CompareReport& report,
                              bool include_wall_clock = true);

// Human-readable side-by-side table.
std::string FormatCompareTable(const CompareReport& report);

}  // namespace exp
}  // namespace kivati

#endif  // KIVATI_EXP_COMPARE_H_
