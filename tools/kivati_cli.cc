// kivati — command-line front end to the Kivati toolchain.
//
//   kivati annotate FILE            show the atomic regions the static
//                                   annotator finds (add --disasm for the
//                                   annotated machine code, --json for a
//                                   machine-readable table)
//   kivati analyze FILE [options]   whole-module conflict & lockset analysis:
//   kivati analyze --app NAME       classify every AR (watch-required /
//                                   lock-protected / no-remote-writer) and
//                                   print the ranked report (--json for the
//                                   machine-readable form; docs/analysis.md)
//   kivati run FILE [options]       compile, run under Kivati, and report
//   kivati run --bug NAME [options] violations and statistics; --bug runs a
//                                   Table-6 corpus bug instead of a file
//   kivati train FILE [options]     iterate runs, growing a whitelist from
//                                   the benign violations found
//   kivati sweep [FILE] [options]   run a grid of independent runs (apps ×
//                                   presets × modes × seeds × machines) on a
//                                   worker pool and emit a JSON report
//                                   (docs/sweeping.md)
//   kivati replay FILE [options]    re-run a recorded schedule (a repro
//                                   artifact from --record-schedule) and
//                                   verify the execution matches; exit 3 on
//                                   divergence (docs/replay.md)
//   kivati shrink FILE [options]    minimize a recorded schedule while it
//                                   still reproduces its target violation
//                                   (delta debugging; docs/replay.md)
//   kivati fuzz FILE [options]      coverage-guided schedule fuzzing: explore
//   kivati fuzz --bug NAME [opts]   interleavings with PCT / bounded-preempt
//                                   strategies until coverage plateaus,
//                                   auto-shrink every discovered violation
//                                   into a replayable repro artifact, and
//                                   emit a JSON fuzz report (docs/fuzzing.md)
//   kivati compare [FILE] [opts]    run workloads once under BOTH detector
//   kivati compare --bug NAME       backends — Kivati's watchpoints and the
//   kivati compare --app NAME       happens-before/lockset oracle — and
//                                   report bugs found, false positives and
//                                   simulated per-access overhead side by
//                                   side; default is the whole Table-6 bug
//                                   corpus, --multivar selects the
//                                   multi-variable corpus instead (--json
//                                   for the machine-readable report;
//                                   docs/detectors.md); a FILE starts the
//                                   --threads list, as for run (default
//                                   main:0)
//   kivati bench-interp [options]   interpreter throughput benchmark:
//                                   simulated Mcycles/s per app × config,
//                                   the block engine and the
//                                   per-instruction loop side by side
//                                   (docs/performance.md; feeds
//                                   BENCH_interp.json and CI's perf-smoke)
//
// Options for run/train:
//   --threads f[:arg][,f[:arg]...]  threads to start (default: main:0)
//   --mode prevention|bug-finding   usage mode (default prevention)
//   --preset base|null|syncvars|optimized   Table-3 configuration (default
//                                   optimized; syncvars/optimized also
//                                   whitelist sync-variable regions)
//   --vanilla                       run without Kivati protection
//   --cores N                       simulated cores (default 2)
//   --watchpoints N                 watchpoint registers per core (default 4)
//   --seed N                        scheduler seed (default 1)
//   --max-cycles N                  virtual cycle budget (default 200M)
//   --whitelist FILE                load AR whitelist from FILE
//   --save-whitelist FILE           (train) write the trained whitelist
//   --iterations N                  (train) training iterations (default 8)
//   --pause-ms X                    bug-finding pause length (default 20)
//   --interprocedural               annotator: regions spanning calls
//   --precise-aliasing              annotator: alias/element precision
//   --no-prune                      keep annotations the conflict analysis
//                                   proves unviolable (default: drop them)
//   --no-correlate                  skip correlated-variable inference and
//                                   multi-variable region fusion
//                                   (docs/correlation.md)
//   --no-block-translate            disable basic-block translation (fused
//                                   superinstructions with hoisted
//                                   watchpoint checks) and run the
//                                   per-instruction loop, the oracle the
//                                   default engine must match byte for
//                                   byte (docs/performance.md)
//   --verbose                       print every violation record
//   --hb                            (run) attach the happens-before/lockset
//                                   oracle to the same execution and report
//                                   its findings too (docs/detectors.md)
//   --json FILE                     (run) also write the run as a JSON
//                                   RunRecord; '-' writes to stdout
//   --trace-out FILE                (run) write the structured event trace;
//                                   *.json gets Chrome trace_event format,
//                                   anything else JSONL (docs/tracing.md)
//   --trace-events k1,k2,...        event kinds to record (default: all)
//   --trace-limit N                 event ring-buffer capacity (default 65536)
//   --record-schedule FILE          (run) record every scheduling decision
//                                   and save a repro artifact to FILE
//
// Options for replay:
//   --json FILE                     write the replayed run as a JSON
//                                   RunRecord; '-' writes to stdout
//   --verbose                       print every violation record
//
// Options for shrink:
//   --out FILE                      where to write the minimized artifact
//                                   (default: INPUT with a .min.json suffix)
//   --max-runs N                    candidate-run budget (default 300)
//   --json FILE                     machine-readable shrink summary; '-'
//                                   writes to stdout
//   --verbose                       log every accepted reduction
//
// Options for fuzz (plus the run config/single-run options; --seed is the
// fuzz root seed, --mode defaults to bug-finding, and --max-cycles defaults
// to 10M — bug workloads run to their budget, so candidates stay cheap):
//   --schedules N                   candidate-schedule budget (default 256)
//   --plateau N                     stop after N consecutive schedules with
//                                   no new coverage (default 64)
//   --strategy mix|pct|preempt      schedule generation: mix alternates PCT
//                                   and bounded preemption (default mix)
//   --pct-depth N                   PCT priority-change points (default 3)
//   --preempt-bound N               preemptions per schedule (default 3)
//   --pause-prob X                  PCT bug-finding pause probability
//                                   (default 0.5)
//   --shrink-runs N                 per-discovery shrink budget (default 300)
//   --artifacts DIR                 save each discovery's shrunk repro
//                                   artifact under DIR
//   --jobs N  /  -j N               worker threads (default: all host cores)
//   --json FILE                     write the fuzz report ('-' = stdout)
//
// Options for analyze:
//   --threads f[:arg][,...]         thread roots for the conflict analysis
//                                   (default: assume every function may run
//                                   on two concurrent threads — sound)
//   --app NAME                      analyze a registered app instead of FILE
//                                   (--app-workers scales its thread roots)
//   --json                          machine-readable report on stdout; the
//                                   human report moves to stderr
//
// Options for sweep (plus --mode-independent ones above):
//   --apps a,b,...                  registered apps to sweep (nss, vlc,
//                                   webstone, tpcw, specomp); or pass FILE
//   --presets p1,p2,...             configurations (default: optimized)
//   --modes m1,m2,...               modes (default: prevention)
//   --seeds 1,2,5..8                seeds; '..' expands inclusive ranges
//   --cores 2,4                     simulated core counts (default: 2)
//   --watchpoints 4,8               watchpoint counts (default: 4)
//   --with-vanilla                  add an unprotected baseline per cell
//   --jobs N  /  -j N               worker threads (default: all host cores)
//   --json FILE                     write the sweep report ('-' = stdout)
//   --app-workers N                 app thread-count scale (default 4)
//   --app-iterations N              app iteration scale (default 250)
//   --record-schedule FILE          re-run the sweep's first violating spec
//                                   with recording on and save its repro
//                                   artifact to FILE
//
// Options for bench-interp:
//   --apps a,b,...                  registered apps (default: nss,vlc)
//   --configs c1,c2,...             vanilla and/or presets (default:
//                                   vanilla,base,optimized)
//   --repeats N                     timed repeats per cell after one
//                                   untimed warmup, median wins (default 3)
//   --block-only / --fast-only      measure just one engine (default:
//                                   both — block, and fast, the
//                                   per-instruction loop it must match)
//   --cores N[,N...]                simulated core counts, one row per
//                                   count as with sweep (default 2)
//   --seed/--watchpoints/--max-cycles/--app-workers/
//   --app-iterations                as for run/sweep
//   --json FILE                     machine-readable report ('-' = stdout)
//
// Every option may also be spelled --option=value. Numeric options are
// parsed strictly: the whole value must be a number in the documented range.
// An unknown option or a bad value exits 2 and prints the command's option
// table to stderr.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/report_envelope.h"
#include "compile/compiler.h"
#include "core/engine.h"
#include "core/trainer.h"
#include "exp/compare.h"
#include "exp/fuzz.h"
#include "exp/optparse.h"
#include "exp/repro.h"
#include "exp/run_record.h"
#include "exp/interp_bench.h"
#include "exp/run_spec.h"
#include "exp/runner.h"
#include "exp/shrink.h"
#include "exp/spec_grid.h"
#include "hw/debug_registers.h"
#include "isa/disasm.h"
#include "trace/event_log.h"
#include "trace/report.h"

namespace kivati {
namespace {

struct CliOptions {
  std::string command;
  std::string file;
  std::vector<std::pair<std::string, std::uint64_t>> threads;
  KivatiMode mode = KivatiMode::kPrevention;
  OptimizationPreset preset = OptimizationPreset::kOptimized;
  bool vanilla = false;
  bool disasm = false;
  bool verbose = false;
  bool no_prune = false;
  bool no_correlate = false;    // skip correlated-variable fusion
  bool compare_multivar = false;  // compare --multivar (multi-variable corpus)
  bool json_to_stdout = false;  // annotate/analyze --json (bare flag)
  std::string app;              // analyze --app NAME
  unsigned cores = 2;
  unsigned watchpoints = 4;
  std::uint64_t seed = 1;
  std::optional<Cycles> max_cycles;  // run/train default 200M below
  std::string whitelist_path;
  std::string save_whitelist_path;
  int iterations = 8;
  double pause_ms = 20.0;
  AnnotateOptions annotator;
  std::string json_path;
  std::string trace_out_path;
  std::string trace_events;
  std::size_t trace_limit = 65536;
  std::string bug;                    // run --bug NAME (corpus bug workload)
  bool hb = false;                    // run --hb (attach the HB oracle)
  std::vector<std::string> compare_bugs;  // compare --bug NAME (repeatable)
  std::string record_schedule_path;   // run/sweep --record-schedule FILE
  std::string out_path;               // shrink --out FILE
  std::size_t max_runs = 300;         // shrink candidate budget

  // Fuzz (docs/fuzzing.md).
  std::size_t fuzz_schedules = 256;
  std::size_t fuzz_plateau = 64;
  std::string fuzz_strategy = "mix";
  unsigned pct_depth = 3;
  unsigned preempt_bound = 3;
  double pause_probability = 0.5;
  std::size_t shrink_runs = 300;      // fuzz per-discovery shrink budget
  std::string artifact_dir;           // fuzz --artifacts DIR

  // Sweep grid dimensions.
  std::vector<std::string> apps;
  std::vector<OptimizationPreset> presets;
  std::vector<KivatiMode> modes;
  std::vector<std::uint64_t> seeds;
  std::vector<unsigned> cores_list;
  std::vector<unsigned> watchpoints_list;
  bool with_vanilla = false;
  unsigned jobs = 0;  // 0 = all host cores
  int app_workers = 4;
  int app_iterations = 250;

  // run/train/sweep/fuzz: the per-instruction loop without block translation.
  bool no_block_translate = false;

  // bench-interp.
  std::vector<std::string> bench_configs;
  unsigned repeats = 3;
  bool block_only = false;
  bool fast_only = false;
};

[[noreturn]] void Fail(const std::string& message) {
  std::fprintf(stderr, "kivati: %s\n", message.c_str());
  std::exit(2);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    Fail("cannot open '" + path + "'");
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Strict thread-list parser: f or f:ARG items, ARG a whole unsigned integer.
std::string ParseThreadsSpec(const std::string& spec,
                             std::vector<std::pair<std::string, std::uint64_t>>* out) {
  std::vector<std::pair<std::string, std::uint64_t>> threads;
  std::stringstream stream(spec);
  std::string item;
  while (std::getline(stream, item, ',')) {
    const std::size_t colon = item.find(':');
    const std::string name = item.substr(0, colon);
    if (name.empty()) {
      return "--threads: empty thread function in '" + spec + "'";
    }
    std::uint64_t arg = 0;
    if (colon != std::string::npos &&
        !exp::ParseU64(item.substr(colon + 1), &arg)) {
      return "--threads: '" + item.substr(colon + 1) + "' is not a valid argument in '" +
             item + "'";
    }
    threads.emplace_back(name, arg);
  }
  if (threads.empty()) {
    return "--threads: no threads in '" + spec + "'";
  }
  *out = std::move(threads);
  return {};
}

// Splits a comma-separated list (no expansion, no empties).
std::string SplitCsv(const std::string& text, std::vector<std::string>* out) {
  std::vector<std::string> items;
  std::stringstream stream(text);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (item.empty()) {
      return "empty item in '" + text + "'";
    }
    items.push_back(item);
  }
  if (items.empty()) {
    return "empty list";
  }
  *out = std::move(items);
  return {};
}

// --- Option tables -----------------------------------------------------------
//
// One declarative table per command, assembled from shared blocks. Handlers
// write straight into CliOptions; validation (type, whole-token, range)
// happens in the table so no command ever sees a silently garbled value.

void AddAnnotatorOptions(exp::OptionTable& table, CliOptions& options) {
  table.Flag("--interprocedural", &options.annotator.interprocedural,
             "annotator: regions spanning calls");
  table.Flag("--precise-aliasing", &options.annotator.precise_aliasing,
             "annotator: alias/element precision");
  table.Flag("--no-prune", &options.no_prune,
             "keep annotations the conflict analysis proves unviolable");
  table.Flag("--no-correlate", &options.no_correlate,
             "skip correlated-variable inference and multi-variable fusion");
}

// --bug NAME, checked against the corpus; `accept` stores the name.
void AddBugOption(exp::OptionTable& table, const std::string& help,
                  std::function<void(const std::string&)> accept) {
  table.Value("--bug", help, [accept = std::move(accept)](const std::string& value) {
    if (exp::FindCorpusBug(value) == nullptr) {
      std::string known;
      for (const std::string& name : exp::CorpusBugNames()) {
        known += (known.empty() ? "" : ", ") + name;
      }
      return "--bug: unknown bug '" + value + "' (known: " + known + ")";
    }
    accept(value);
    return std::string();
  });
}

void AddPresetOption(exp::OptionTable& table, CliOptions& options) {
  table.Value("--preset", "base|null|syncvars|optimized", [&options](const std::string& value) {
    return exp::ParsePreset(value, &options.preset)
               ? std::string()
               : "unknown preset '" + value + "'";
  });
}

void AddMaxCyclesOption(exp::OptionTable& table, CliOptions& options) {
  table.Value("--max-cycles", "virtual cycle budget", [&options](const std::string& value) {
    std::uint64_t parsed = 0;
    if (!exp::ParseU64(value, &parsed) || parsed == 0) {
      return "--max-cycles: '" + value + "' is not a positive integer";
    }
    options.max_cycles = parsed;
    return std::string();
  });
}

// --jobs N and its short spelling -j N.
void AddJobsOptions(exp::OptionTable& table, CliOptions& options) {
  table.Unsigned("--jobs", &options.jobs, "worker threads (default: host cores)", 1, 1024);
  table.Value("-j", "worker threads", [&options](const std::string& value) {
    std::uint64_t parsed = 0;
    if (!exp::ParseU64(value, &parsed) || parsed == 0 || parsed > 1024) {
      return "-j: '" + value + "' is not a worker count in [1, 1024]";
    }
    options.jobs = static_cast<unsigned>(parsed);
    return std::string();
  });
}

// --apps a,b,...: every name must be a registered app.
void AddAppsOption(exp::OptionTable& table, CliOptions& options, const std::string& help) {
  table.Value("--apps", help, [&options](const std::string& value) {
    std::vector<std::string> apps;
    const std::string error = SplitCsv(value, &apps);
    if (!error.empty()) {
      return "--apps: " + error;
    }
    for (const std::string& app : apps) {
      bool known = false;
      for (const std::string& name : exp::RegisteredApps()) {
        known = known || name == app;
      }
      if (!known) {
        return "--apps: unknown app '" + app + "'";
      }
    }
    options.apps = std::move(apps);
    return std::string();
  });
}

void AddAppScaleOptions(exp::OptionTable& table, CliOptions& options) {
  table.Int("--app-workers", &options.app_workers, "app thread-count scale", 1,
            exp::kMaxAppWorkers);
  table.Int("--app-iterations", &options.app_iterations, "app iteration scale", 1,
            exp::kMaxAppIterations);
}

void AddConfigOptions(exp::OptionTable& table, CliOptions& options) {
  table.Value("--mode", "prevention|bug-finding", [&options](const std::string& value) {
    return exp::ParseMode(value, &options.mode)
               ? std::string()
               : "unknown mode '" + value + "'";
  });
  AddPresetOption(table, options);
  table.Flag("--vanilla", &options.vanilla, "run without Kivati protection");
  AddMaxCyclesOption(table, options);
  table.String("--whitelist", &options.whitelist_path, "load AR whitelist from FILE");
  table.Double("--pause-ms", &options.pause_ms, "bug-finding pause length", 0.0,
               exp::kMaxPauseMs);
  table.Flag("--no-block-translate", &options.no_block_translate,
             "run the per-instruction loop without basic-block translation "
             "(must be byte-identical)");
  AddAnnotatorOptions(table, options);
}

// --threads f[:arg][,...]: the threads a source FILE starts.
void AddThreadsOption(exp::OptionTable& table, CliOptions& options, const std::string& help) {
  table.Value("--threads", help, [&options](const std::string& value) {
    return ParseThreadsSpec(value, &options.threads);
  });
}

void AddSingleRunOptions(exp::OptionTable& table, CliOptions& options) {
  AddThreadsOption(table, options, "f[:arg][,f[:arg]...]");
  table.Unsigned("--cores", &options.cores, "simulated cores", 1, exp::kMaxCores);
  table.Unsigned("--watchpoints", &options.watchpoints, "watchpoint registers per core", 1,
                 kMaxWatchpointCount);
  table.U64("--seed", &options.seed, "scheduler seed");
  table.Flag("--verbose", &options.verbose, "print every violation record");
}

exp::OptionTable RunTable(CliOptions& options) {
  exp::OptionTable table;
  AddConfigOptions(table, options);
  AddSingleRunOptions(table, options);
  AddBugOption(table, "corpus bug to run (e.g. NSS-329072)",
               [&options](const std::string& bug) { options.bug = bug; });
  table.String("--record-schedule", &options.record_schedule_path,
               "record the schedule and save a repro artifact to FILE");
  table.Flag("--hb", &options.hb,
             "attach the happens-before/lockset oracle (docs/detectors.md)");
  table.String("--json", &options.json_path, "write the run as JSON ('-' = stdout)");
  table.String("--trace-out", &options.trace_out_path, "write the structured event trace");
  table.String("--trace-events", &options.trace_events, "event kinds to record");
  table.Size("--trace-limit", &options.trace_limit, "event ring-buffer capacity", 1);
  return table;
}

exp::OptionTable CompareTable(CliOptions& options) {
  exp::OptionTable table;
  AddBugOption(table, "corpus bug to compare (repeatable; default: all)",
               [&options](const std::string& bug) { options.compare_bugs.push_back(bug); });
  table.String("--app", &options.app, "compare over a registered app (nss, vlc, ...)");
  AddThreadsOption(table, options, "f[:arg][,...] (FILE compares)");
  AddPresetOption(table, options);
  AddMaxCyclesOption(table, options);
  table.Unsigned("--cores", &options.cores, "simulated cores", 1, exp::kMaxCores);
  table.Unsigned("--watchpoints", &options.watchpoints, "watchpoint registers per core", 1,
                 kMaxWatchpointCount);
  table.U64("--seed", &options.seed, "scheduler seed");
  AddAppScaleOptions(table, options);
  table.Flag("--multivar", &options.compare_multivar,
             "compare over the multi-variable bug corpus (apps::MultiVarBugCorpus)");
  AddAnnotatorOptions(table, options);
  table.String("--json", &options.json_path, "write the comparison report ('-' = stdout)");
  return table;
}

exp::OptionTable ReplayTable(CliOptions& options) {
  exp::OptionTable table;
  table.String("--json", &options.json_path, "write the replayed run as JSON ('-' = stdout)");
  table.Flag("--verbose", &options.verbose, "print every violation record");
  return table;
}

exp::OptionTable ShrinkTable(CliOptions& options) {
  exp::OptionTable table;
  table.String("--out", &options.out_path, "where to write the minimized artifact");
  table.Size("--max-runs", &options.max_runs, "candidate-run budget", 1);
  table.String("--json", &options.json_path, "machine-readable shrink summary ('-' = stdout)");
  table.Flag("--verbose", &options.verbose, "log every accepted reduction");
  return table;
}

exp::OptionTable FuzzTable(CliOptions& options) {
  exp::OptionTable table;
  AddConfigOptions(table, options);
  AddSingleRunOptions(table, options);
  AddBugOption(table, "corpus bug to fuzz (e.g. NSS-329072)",
               [&options](const std::string& bug) { options.bug = bug; });
  table.Size("--schedules", &options.fuzz_schedules, "candidate-schedule budget", 1);
  table.Size("--plateau", &options.fuzz_plateau,
             "stop after N schedules with no new coverage", 1);
  table.Value("--strategy", "mix|pct|preempt", [&options](const std::string& value) {
    FuzzStrategyKind kind;
    if (value != "mix" && !ParseStrategyKind(value, &kind)) {
      return "--strategy: unknown strategy '" + value + "' (mix, pct, preempt)";
    }
    options.fuzz_strategy = value;
    return std::string();
  });
  table.Unsigned("--pct-depth", &options.pct_depth, "PCT priority-change points", 0, 1024);
  table.Unsigned("--preempt-bound", &options.preempt_bound, "preemptions per schedule", 0,
                 1024);
  table.Double("--pause-prob", &options.pause_probability, "pause probability", 0.0, 1.0);
  table.Size("--shrink-runs", &options.shrink_runs, "per-discovery shrink budget", 1);
  table.String("--artifacts", &options.artifact_dir, "save shrunk repro artifacts under DIR");
  AddJobsOptions(table, options);
  table.String("--json", &options.json_path, "write the fuzz report ('-' = stdout)");
  return table;
}

exp::OptionTable TrainTable(CliOptions& options) {
  exp::OptionTable table;
  AddConfigOptions(table, options);
  AddSingleRunOptions(table, options);
  table.String("--save-whitelist", &options.save_whitelist_path, "write the trained whitelist");
  table.Int("--iterations", &options.iterations, "training iterations", 1, 1'000'000);
  return table;
}

exp::OptionTable AnnotateTable(CliOptions& options) {
  exp::OptionTable table;
  table.Flag("--disasm", &options.disasm, "print the annotated machine code");
  table.Flag("--json", &options.json_to_stdout,
             "annotation table as JSON on stdout (human table moves to stderr)");
  AddAnnotatorOptions(table, options);
  return table;
}

exp::OptionTable AnalyzeTable(CliOptions& options) {
  exp::OptionTable table;
  AddThreadsOption(table, options, "thread roots f[:arg][,...]");
  table.Value("--app", "registered app to analyze", [&options](const std::string& value) {
    for (const std::string& name : exp::RegisteredApps()) {
      if (name == value) {
        options.app = value;
        return std::string();
      }
    }
    return "--app: unknown app '" + value + "'";
  });
  table.Flag("--json", &options.json_to_stdout,
             "conflict report as JSON on stdout (human report moves to stderr)");
  AddAppScaleOptions(table, options);
  AddAnnotatorOptions(table, options);
  return table;
}

// Parses a comma-separated integer list ('..' expands ranges) whose every
// value lies in [min, max]; returns the error message or "".
std::string UnsignedList(const std::string& name, const std::string& value, unsigned min,
                         unsigned max, std::vector<unsigned>* out) {
  std::vector<std::uint64_t> parsed;
  if (!exp::ParseU64List(value, &parsed)) {
    return name + ": '" + value + "' is not an integer list";
  }
  std::vector<unsigned> values;
  for (const std::uint64_t v : parsed) {
    if (v < min || v > max) {
      return name + ": " + std::to_string(v) + " is out of range [" + std::to_string(min) +
             ", " + std::to_string(max) + "]";
    }
    values.push_back(static_cast<unsigned>(v));
  }
  *out = std::move(values);
  return std::string();
}

exp::OptionTable SweepTable(CliOptions& options) {
  exp::OptionTable table;
  AddConfigOptions(table, options);
  AddThreadsOption(table, options, "f[:arg][,...] (FILE sweeps)");
  AddAppsOption(table, options, "registered apps to sweep");
  table.Value("--presets", "configurations to sweep", [&options](const std::string& value) {
    std::vector<std::string> items;
    const std::string error = SplitCsv(value, &items);
    if (!error.empty()) {
      return "--presets: " + error;
    }
    std::vector<OptimizationPreset> presets;
    for (const std::string& item : items) {
      OptimizationPreset preset;
      if (!exp::ParsePreset(item, &preset)) {
        return "--presets: unknown preset '" + item + "'";
      }
      presets.push_back(preset);
    }
    options.presets = std::move(presets);
    return std::string();
  });
  table.Value("--modes", "modes to sweep", [&options](const std::string& value) {
    std::vector<std::string> items;
    const std::string error = SplitCsv(value, &items);
    if (!error.empty()) {
      return "--modes: " + error;
    }
    std::vector<KivatiMode> modes;
    for (const std::string& item : items) {
      KivatiMode mode;
      if (!exp::ParseMode(item, &mode)) {
        return "--modes: unknown mode '" + item + "'";
      }
      modes.push_back(mode);
    }
    options.modes = std::move(modes);
    return std::string();
  });
  table.Value("--seeds", "seed list; '..' expands ranges", [&options](const std::string& value) {
    return exp::ParseU64List(value, &options.seeds)
               ? std::string()
               : "--seeds: '" + value + "' is not a seed list";
  });
  table.Value("--cores", "core counts to sweep", [&options](const std::string& value) {
    return UnsignedList("--cores", value, 1, exp::kMaxCores, &options.cores_list);
  });
  table.Value("--watchpoints", "watchpoint counts to sweep",
              [&options](const std::string& value) {
                return UnsignedList("--watchpoints", value, 1, kMaxWatchpointCount,
                                     &options.watchpoints_list);
              });
  table.Flag("--with-vanilla", &options.with_vanilla, "add unprotected baselines");
  AddJobsOptions(table, options);
  table.String("--json", &options.json_path, "write the sweep report ('-' = stdout)");
  table.String("--record-schedule", &options.record_schedule_path,
               "save a repro artifact for the first violating spec");
  AddAppScaleOptions(table, options);
  return table;
}

exp::OptionTable BenchInterpTable(CliOptions& options) {
  exp::OptionTable table;
  AddAppsOption(table, options, "registered apps to bench");
  table.Value("--configs", "vanilla and/or presets", [&options](const std::string& value) {
    std::vector<std::string> configs;
    const std::string error = SplitCsv(value, &configs);
    if (!error.empty()) {
      return "--configs: " + error;
    }
    for (const std::string& config : configs) {
      OptimizationPreset preset;
      if (config != "vanilla" && !exp::ParsePreset(config, &preset)) {
        return "--configs: unknown config '" + config +
               "' (vanilla, base, null, syncvars, optimized)";
      }
    }
    options.bench_configs = std::move(configs);
    return std::string();
  });
  table.Unsigned("--repeats", &options.repeats, "wall-time repeats per cell", 1, 1000);
  table.U64("--seed", &options.seed, "scheduler seed");
  table.Value("--cores", "core counts to bench", [&options](const std::string& value) {
    return UnsignedList("--cores", value, 1, exp::kMaxCores, &options.cores_list);
  });
  table.Unsigned("--watchpoints", &options.watchpoints, "watchpoint registers per core", 1,
                 kMaxWatchpointCount);
  AddMaxCyclesOption(table, options);
  AddAppScaleOptions(table, options);
  table.Flag("--block-only", &options.block_only, "measure only the block engine");
  table.Flag("--fast-only", &options.fast_only, "measure only the per-instruction loop");
  table.String("--json", &options.json_path, "machine-readable report ('-' = stdout)");
  return table;
}

CliOptions ParseArgs(int argc, char** argv) {
  CliOptions options;
  if (argc < 2) {
    Fail("usage: kivati annotate|analyze|run|train|sweep|replay|shrink|fuzz|compare|"
         "bench-interp [FILE] [options] (see the header comment)");
  }
  options.command = argv[1];
  // Fuzzing explores interleavings; pausing threads inside atomic regions is
  // how the paper widens violation windows, so bug-finding is the default.
  if (options.command == "fuzz") {
    options.mode = KivatiMode::kBugFinding;
  }
  int first_option = 2;
  const bool needs_file = options.command == "annotate" || options.command == "train" ||
                          options.command == "replay" || options.command == "shrink";
  if (needs_file) {
    if (argc < 3 || argv[2][0] == '-') {
      Fail("usage: kivati " + options.command + " FILE [options]");
    }
    options.file = argv[2];
    first_option = 3;
  } else if (options.command == "sweep" || options.command == "analyze" ||
             options.command == "run" || options.command == "fuzz" ||
             options.command == "compare") {
    // These take an optional source FILE; --apps / --app / --bug is the
    // alternative workload source.
    if (argc >= 3 && argv[2][0] != '-') {
      options.file = argv[2];
      first_option = 3;
    }
  }

  exp::OptionTable table;
  if (options.command == "annotate") {
    table = AnnotateTable(options);
  } else if (options.command == "analyze") {
    table = AnalyzeTable(options);
  } else if (options.command == "run") {
    table = RunTable(options);
  } else if (options.command == "train") {
    table = TrainTable(options);
  } else if (options.command == "sweep") {
    table = SweepTable(options);
  } else if (options.command == "replay") {
    table = ReplayTable(options);
  } else if (options.command == "shrink") {
    table = ShrinkTable(options);
  } else if (options.command == "fuzz") {
    table = FuzzTable(options);
  } else if (options.command == "compare") {
    table = CompareTable(options);
  } else if (options.command == "bench-interp") {
    table = BenchInterpTable(options);
  } else {
    Fail("unknown command '" + options.command + "'");
  }
  const std::string error = table.Parse(argc, argv, first_option);
  if (!error.empty()) {
    std::fprintf(stderr, "kivati: %s\noptions for %s:\n%s", error.c_str(),
                 options.command.c_str(), table.Help().c_str());
    std::exit(2);
  }
  if (options.command == "run" || options.command == "fuzz") {
    if (options.file.empty() && options.bug.empty()) {
      Fail("usage: kivati " + options.command + " FILE [options] | kivati " + options.command +
           " --bug NAME [options]");
    }
    if (!options.file.empty() && !options.bug.empty()) {
      Fail(options.command + " takes either a source FILE or --bug, not both");
    }
  }
  // analyze without --threads keeps its sound every-function-concurrent
  // fallback instead of the single-run main:0 default.
  if (options.threads.empty() && options.command != "analyze") {
    options.threads.emplace_back("main", 0);
  }
  return options;
}

// The annotator configuration that --interprocedural, --precise-aliasing,
// --no-prune and --no-correlate select.
FrontendOptions Frontend(const CliOptions& options) {
  FrontendOptions frontend;
  frontend.annotator = options.annotator;
  frontend.prune = !options.no_prune;
  frontend.correlate = !options.no_correlate;
  return frontend;
}

// The registered-app scale: --app-workers, --app-iterations and Frontend.
apps::LoadScale AppScale(const CliOptions& options) {
  return {options.app_workers, options.app_iterations, Frontend(options)};
}

// The RunSpec implied by the single-run (run/train) options.
exp::RunSpec SpecFromOptions(const CliOptions& options) {
  exp::RunSpec spec;
  if (!options.bug.empty()) {
    spec.bug = options.bug;
  } else {
    spec.source_path = options.file;
    spec.threads = options.threads;
  }
  spec.scale.frontend = Frontend(options);
  spec.machine.num_cores = options.cores;
  spec.machine.watchpoints_per_core = options.watchpoints;
  spec.machine.seed = options.seed;
  spec.machine.block_translate = !options.no_block_translate;
  spec.vanilla = options.vanilla;
  spec.preset = options.preset;
  spec.mode = options.mode;
  spec.pause_ms = options.pause_ms;
  spec.whitelist_path = options.whitelist_path;
  spec.budget = options.max_cycles.value_or(200'000'000);
  spec.hb_detector = options.hb;
  return spec;
}

int Annotate(const CliOptions& options) {
  CompileOptions compile_options;
  compile_options.frontend = Frontend(options);
  const CompiledProgram compiled = CompileSource(ReadFile(options.file), compile_options);
  // With --json the machine-readable table owns stdout; the human table
  // joins any diagnostics on stderr (same convention as `run --json -`).
  FILE* human = options.json_to_stdout ? stderr : stdout;
  std::fprintf(human, "%zu atomic region(s):\n", compiled.num_ars);
  for (const ArDebugInfo& info : compiled.ar_infos) {
    std::string correlated;
    if (info.group > 0) {
      correlated = "  [set " + std::to_string(info.group);
      if (info.synthesized) {
        correlated += " synthesized";
      }
      correlated += " joint ";
      correlated += ToString(info.joint_types);
      correlated += " with";
      for (const std::string& member : info.correlated) {
        correlated += " " + member;
      }
      correlated += "]";
    }
    std::fprintf(human, "  AR %-4u %-24s variable '%s'  line %-4d watches %-10s %d end(s)%s%s%s\n",
                 info.id, (info.function + "()").c_str(), info.variable.c_str(), info.line,
                 ToString(info.watch), info.num_ends,
                 compiled.sync_ars.contains(info.id) ? "  [sync var]" : "",
                 compiled.conflict.pruned.contains(info.id) ? "  [pruned]" : "",
                 correlated.c_str());
  }
  if (options.json_to_stdout) {
    std::string json = report::EnvelopePrefix({"kivati_annotate", 1});
    json += "\"source\":\"" + report::EscapeJson(options.file) + "\",";
    json += "\"ars_total\":" + std::to_string(compiled.num_ars) + ",\"ars\":[\n";
    for (const ArDebugInfo& info : compiled.ar_infos) {
      json += "{\"id\":" + std::to_string(info.id);
      json += ",\"function\":\"" + report::EscapeJson(info.function) + "\"";
      json += ",\"variable\":\"" + report::EscapeJson(info.variable) + "\"";
      json += ",\"line\":" + std::to_string(info.line);
      json += ",\"first_access\":\"";
      json += ToString(info.first_type);
      json += "\",\"watch\":\"";
      json += ToString(info.watch);
      json += "\",\"ends\":" + std::to_string(info.num_ends);
      json += ",\"sync\":";
      json += compiled.sync_ars.contains(info.id) ? "true" : "false";
      json += ",\"pruned\":";
      json += compiled.conflict.pruned.contains(info.id) ? "true" : "false";
      // Correlated-variable columns (analysis/correlation.h): 0 / empty /
      // None on every AR the fusion pass left alone.
      json += ",\"group\":" + std::to_string(info.group);
      json += ",\"joint\":\"";
      json += ToString(info.joint_types);
      json += "\",\"synthesized\":";
      json += info.synthesized ? "true" : "false";
      json += ",\"correlated\":[";
      for (std::size_t i = 0; i < info.correlated.size(); ++i) {
        json += std::string(i > 0 ? "," : "") + "\"" + report::EscapeJson(info.correlated[i]) +
                "\"";
      }
      json += "]}";
      json += info.id < compiled.num_ars ? ",\n" : "\n";
    }
    json += "]}\n";
    std::fputs(json.c_str(), stdout);
  }
  if (options.disasm) {
    std::fprintf(human, "\n%s", DisassembleProgram(compiled.program).c_str());
  }
  return 0;
}

int Analyze(const CliOptions& options) {
  if (options.file.empty() == options.app.empty()) {
    Fail("analyze takes either a source FILE or --app NAME");
  }
  std::shared_ptr<const CompiledProgram> compiled;
  if (!options.app.empty()) {
    compiled = exp::MakeRegisteredApp(options.app, AppScale(options))->compiled;
  } else {
    CompileOptions compile_options;
    compile_options.frontend = Frontend(options);
    // --threads entries become the conflict analysis's thread roots.
    compile_options.roots = ThreadRoots(options.threads);
    auto program = std::make_shared<CompiledProgram>(
        CompileSource(ReadFile(options.file), compile_options));
    for (const auto& [function, count] : compile_options.roots) {
      (void)count;
      if (program->program.FindFunction(function) == nullptr) {
        Fail("no function '" + function + "' in " + options.file);
      }
    }
    compiled = std::move(program);
  }
  std::string human = FormatConflictReport(compiled->conflict, compiled->ar_infos);
  // The correlated-sets section (analysis/correlation.h). With
  // --no-correlate the pass never ran; say so rather than print an empty
  // report that reads as "nothing correlates".
  if (options.no_correlate) {
    human += "\ncorrelated sets: skipped (--no-correlate)\n";
  } else {
    human += "\n" + FormatCorrelationReport(compiled->correlation);
  }
  if (options.json_to_stdout) {
    std::fputs(human.c_str(), stderr);
    std::string json = ConflictReportJson(compiled->conflict, compiled->ar_infos);
    // Splice the correlation object into the envelope (it ends "]}\n").
    const std::size_t closing = json.rfind('}');
    json.insert(closing, ",\"correlation\":" + CorrelationReportJson(compiled->correlation));
    std::fputs(json.c_str(), stdout);
  } else {
    std::fputs(human.c_str(), stdout);
  }
  return 0;
}

void WriteJsonOutput(const std::string& path, const std::string& json) {
  if (path == "-") {
    std::fputs(json.c_str(), stdout);
    return;
  }
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    Fail("cannot write '" + path + "'");
  }
  out << json;
  if (!out) {
    Fail("error writing '" + path + "'");
  }
}

// Human report + optional JSON RunRecord, shared by run and replay.
// `schedule_note` tags recorded/replayed runs in the stats summary.
int ReportRun(const CliOptions& options, const exp::RunSpec& spec, exp::BuiltRun& built,
              const RunResult& result, double wall_ms, const std::string& schedule_note) {
  Engine& engine = *built.engine;
  // Keep stdout pure JSON under `--json -`: the human report moves to stderr.
  FILE* human = options.json_path == "-" ? stderr : stdout;
  std::fprintf(human, "run: %llu cycles, %llu instructions, %s\n",
               static_cast<unsigned long long>(result.cycles),
               static_cast<unsigned long long>(result.instructions),
               result.all_done      ? "completed"
               : result.deadlocked  ? "DEADLOCKED"
                                    : "hit cycle budget");
  if (!spec.vanilla) {
    const double seconds = engine.machine().costs().ToSeconds(result.cycles);
    std::fprintf(human, "%s",
                 FormatStatsSummary(engine.trace().stats(), seconds, schedule_note).c_str());
    const std::shared_ptr<const CompiledProgram> compiled = built.app->compiled;
    const ArSymbolizer symbolizer = [compiled](ArId ar) -> std::string {
      if (compiled == nullptr || ar == kInvalidAr || ar == 0 || ar > compiled->ar_infos.size()) {
        return {};
      }
      const ArDebugInfo& info = compiled->ar_infos[ar - 1];
      return info.variable + " in " + info.function + "()";
    };
    std::fprintf(human, "%s", FormatViolationReport(engine.trace(), symbolizer).c_str());
    if (options.verbose) {
      for (const ViolationRecord& v : engine.trace().violations()) {
        std::fprintf(human, "  %s\n", ToString(v).c_str());
      }
    }
  }
  if (built.hb != nullptr) {
    const detect::DetectorStats& hb_stats = built.hb->stats();
    std::fprintf(human,
                 "hb oracle: %zu race(s), %zu lockset-only, %llu shared access(es), "
                 "%llu shadow op(s), %llu sync op(s)\n",
                 built.hb->hb_races(), built.hb->lockset_only(),
                 static_cast<unsigned long long>(hb_stats.accesses_observed),
                 static_cast<unsigned long long>(hb_stats.shadow_ops),
                 static_cast<unsigned long long>(hb_stats.sync_ops));
    if (options.verbose) {
      for (const detect::Finding& finding : built.hb->findings()) {
        std::fprintf(human, "  %s\n", detect::ToString(finding).c_str());
      }
    }
  }
  if (!options.json_path.empty()) {
    exp::RunRecord record = exp::MakeRecord(spec, *built.app, engine, result, built.hb.get());
    record.wall_ms = wall_ms;
    WriteJsonOutput(options.json_path, exp::RunReportJson(record) + "\n");
  }
  return result.deadlocked ? 1 : 0;
}

int Run(const CliOptions& options) {
  exp::RunSpec spec = SpecFromOptions(options);
  spec.record_schedule = !options.record_schedule_path.empty();
  exp::BuiltRun built = exp::BuildEngine(spec);
  Engine& engine = *built.engine;
  if (!options.trace_out_path.empty()) {
    std::string error;
    const auto mask = ParseEventKindMask(options.trace_events, &error);
    if (!mask.has_value()) {
      Fail("--trace-events: " + error);
    }
    engine.trace().events().Enable(options.trace_limit, *mask);
  }
  const auto start = std::chrono::steady_clock::now();
  const RunResult result = engine.Run(spec.budget);
  const double wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
          .count();
  if (!options.trace_out_path.empty()) {
    const EventLog& events = engine.trace().events();
    std::ofstream out(options.trace_out_path, std::ios::trunc);
    if (!out) {
      Fail("cannot write '" + options.trace_out_path + "'");
    }
    const bool chrome = options.trace_out_path.size() >= 5 &&
                        options.trace_out_path.rfind(".json") ==
                            options.trace_out_path.size() - 5;
    out << (chrome ? events.ToChromeTrace() : events.ToJsonl());
    if (!out) {
      Fail("error writing '" + options.trace_out_path + "'");
    }
    std::fprintf(stderr, "trace: %zu event(s) written to %s (%llu emitted, %llu dropped)\n",
                 events.size(), options.trace_out_path.c_str(),
                 static_cast<unsigned long long>(events.emitted()),
                 static_cast<unsigned long long>(events.dropped()));
  }

  std::string schedule_note;
  if (spec.record_schedule) {
    const ScheduleTrace& trace = *engine.recorded_schedule();
    exp::SaveRepro(exp::MakeReproArtifact(spec, trace, engine.trace().violations()),
                   options.record_schedule_path);
    schedule_note = "recorded " + std::to_string(trace.decisions.size()) +
                    " decision(s) to " + options.record_schedule_path;
  }
  return ReportRun(options, spec, built, result, wall_ms, schedule_note);
}

int Compare(const CliOptions& options) {
  exp::CompareOptions compare_options;
  compare_options.bugs = options.compare_bugs;
  if (options.compare_multivar) {
    // --multivar selects the multi-variable corpus (appends to any explicit
    // --bug selections).
    for (const std::string& name : exp::MultiVarBugNames()) {
      compare_options.bugs.push_back(name);
    }
  }
  compare_options.app = options.app;
  compare_options.source_path = options.file;
  compare_options.threads = options.threads;
  compare_options.scale = AppScale(options);
  compare_options.machine.num_cores = options.cores;
  compare_options.machine.watchpoints_per_core = options.watchpoints;
  compare_options.machine.seed = options.seed;
  compare_options.budget = options.max_cycles;
  compare_options.preset = options.preset;
  const exp::CompareReport report = exp::RunCompare(compare_options);
  // Same stdout discipline as run --json -: the table moves to stderr.
  FILE* human = options.json_path == "-" ? stderr : stdout;
  std::fputs(exp::FormatCompareTable(report).c_str(), human);
  if (!options.json_path.empty()) {
    WriteJsonOutput(options.json_path, exp::CompareReportJson(report));
    if (options.json_path != "-") {
      std::printf("report written to %s\n", options.json_path.c_str());
    }
  }
  return 0;
}

int Replay(const CliOptions& options) {
  const exp::ReproArtifact artifact = exp::LoadRepro(options.file);
  exp::RunSpec spec = artifact.spec;
  auto trace = std::make_shared<const ScheduleTrace>(artifact.trace);
  spec.replay_schedule = trace;
  const bool strict = !trace->shrunk;  // BuildEngine downgrades shrunk traces
  try {
    exp::BuiltRun built = exp::BuildEngine(spec);
    const auto start = std::chrono::steady_clock::now();
    const RunResult result = built.engine->Run(spec.budget);
    const double wall_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
            .count();
    if (strict) {
      // A replayed run that ends with recorded decisions unconsumed stopped
      // short of the recording — that is a divergence too.
      built.engine->schedule_controller()->VerifyFullyConsumed();
    }
    const std::string note = std::string("replayed from ") + options.file + " (" +
                             (strict ? "strict" : "loose/shrunk") + ", " +
                             std::to_string(trace->decisions.size()) + " decision(s))";
    return ReportRun(options, spec, built, result, wall_ms, note);
  } catch (const ScheduleDivergenceError& e) {
    std::fprintf(stderr, "kivati: replay of '%s' diverged: %s\n", options.file.c_str(),
                 e.what());
    return 3;
  }
}

int Shrink(const CliOptions& options) {
  const exp::ReproArtifact artifact = exp::LoadRepro(options.file);
  exp::ShrinkOptions shrink_options;
  shrink_options.max_runs = options.max_runs;
  if (options.verbose) {
    shrink_options.progress = [](const std::string& line) {
      std::fprintf(stderr, "shrink: %s\n", line.c_str());
    };
  }
  const auto start = std::chrono::steady_clock::now();
  const exp::ShrinkResult result = exp::ShrinkSchedule(artifact, shrink_options);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  const double runs_per_sec = wall_s > 0.0 ? static_cast<double>(result.runs) / wall_s : 0.0;

  std::string out_path = options.out_path;
  if (out_path.empty()) {
    // trace.json -> trace.min.json; anything else gets .min.json appended.
    out_path = options.file;
    const std::string suffix = ".json";
    if (out_path.size() > suffix.size() &&
        out_path.compare(out_path.size() - suffix.size(), suffix.size(), suffix) == 0) {
      out_path.resize(out_path.size() - suffix.size());
    }
    out_path += ".min.json";
  }
  if (result.reproduced) {
    exp::ReproArtifact shrunk = artifact;
    shrunk.trace = result.trace;
    exp::SaveRepro(shrunk, out_path);
  }

  FILE* human = options.json_path == "-" ? stderr : stdout;
  if (result.reproduced) {
    std::fprintf(human,
                 "shrink: %zu -> %zu decision(s) in %zu run(s) (%.1f runs/s)%s; saved to %s\n",
                 result.original_decisions, result.trace.decisions.size(), result.runs,
                 runs_per_sec, result.budget_exhausted ? " (run budget exhausted)" : "",
                 out_path.c_str());
  } else {
    std::fprintf(human,
                 "shrink: the recorded trace does not reproduce the target violation "
                 "under loose replay; nothing written\n");
  }
  if (!options.json_path.empty()) {
    std::string json = report::EnvelopePrefix({"kivati_shrink", 1});
    json += "\"input\":\"" + report::EscapeJson(options.file) + "\",";
    json += "\"reproduced\":" + std::string(result.reproduced ? "true" : "false") + ",";
    json += "\"original_decisions\":" + std::to_string(result.original_decisions) + ",";
    json += "\"decisions\":" + std::to_string(result.trace.decisions.size()) + ",";
    json += "\"runs\":" + std::to_string(result.runs) + ",";
    {
      char buf[48];
      std::snprintf(buf, sizeof(buf), "\"runs_per_sec\":%.1f,", runs_per_sec);
      json += buf;
    }
    json += "\"budget_exhausted\":" + std::string(result.budget_exhausted ? "true" : "false");
    if (result.reproduced) {
      json += ",\"out\":\"" + report::EscapeJson(out_path) + "\"";
    }
    json += "}\n";
    WriteJsonOutput(options.json_path, json);
  }
  return result.reproduced ? 0 : 1;
}

int FuzzCommand(const CliOptions& options) {
  exp::RunSpec spec = SpecFromOptions(options);
  // Corpus bug workloads run to their cycle budget; the single-run default
  // of 200M cycles would make each candidate cost ~10s of wall clock. 10M
  // is the replay-test budget and ample for every Table-6 bug to fire.
  spec.budget = options.max_cycles.value_or(10'000'000);
  exp::FuzzOptions fuzz;
  fuzz.max_schedules = options.fuzz_schedules;
  fuzz.plateau = options.fuzz_plateau;
  fuzz.seed = options.seed;
  fuzz.strategy = options.fuzz_strategy;
  fuzz.pct_depth = options.pct_depth;
  fuzz.preempt_bound = options.preempt_bound;
  fuzz.pause_probability = options.pause_probability;
  fuzz.workers = options.jobs;
  fuzz.shrink_max_runs = options.shrink_runs;
  fuzz.artifact_dir = options.artifact_dir;
  if (options.verbose) {
    fuzz.progress = [](const std::string& line) {
      std::fprintf(stderr, "fuzz: %s\n", line.c_str());
    };
  }
  const exp::FuzzReport report = exp::Fuzz(spec, fuzz);

  // Keep stdout pure JSON under `--json -`.
  FILE* human = options.json_path == "-" ? stderr : stdout;
  std::fprintf(human, "fuzz: %zu/%zu schedule(s) (%s), coverage %zu, %zu violating run(s), "
                      "%zu unique violation(s)\n",
               report.schedules_run, report.max_schedules,
               report.stopped_on_plateau ? "coverage plateau" : "schedule budget",
               report.coverage_points, report.schedules_with_violations,
               report.discoveries.size());
  for (const exp::FuzzDiscovery& d : report.discoveries) {
    std::fprintf(human,
                 "  AR %u %s @0x%llx: schedule %zu (%s seed %llu), shrunk %zu -> %zu "
                 "decision(s), replay %s%s%s\n",
                 d.target.ar, d.target.pattern.c_str(),
                 static_cast<unsigned long long>(d.target.addr), d.schedule_index,
                 d.strategy.c_str(), static_cast<unsigned long long>(d.strategy_seed),
                 d.trace_decisions, d.shrunk_decisions, d.replay_ok ? "ok" : "FAILED",
                 d.artifact_path.empty() ? "" : ", saved ",
                 d.artifact_path.c_str());
  }
  for (const std::string& error : report.errors) {
    std::fprintf(stderr, "fuzz: ERROR %s\n", error.c_str());
  }
  if (!options.json_path.empty()) {
    WriteJsonOutput(options.json_path, exp::FuzzReportJson(report));
    if (options.json_path != "-") {
      std::fprintf(human, "report written to %s\n", options.json_path.c_str());
    }
  }
  return report.errors.empty() ? 0 : 1;
}

int BenchInterp(const CliOptions& options) {
  if (options.block_only && options.fast_only) {
    Fail("bench-interp takes at most one of --block-only / --fast-only");
  }
  exp::InterpBenchSpec spec;
  spec.apps = options.apps.empty() ? std::vector<std::string>{"nss", "vlc"} : options.apps;
  spec.configs = options.bench_configs.empty()
                     ? std::vector<std::string>{"vanilla", "base", "optimized"}
                     : options.bench_configs;
  spec.repeats = options.repeats;
  spec.seed = options.seed;
  spec.watchpoints = options.watchpoints;
  spec.max_cycles = options.max_cycles;
  spec.scale = AppScale(options);
  spec.include_block = !options.fast_only;
  spec.include_fast = !options.block_only;

  // Progress (and the human table) on stderr when stdout carries the JSON.
  FILE* human = options.json_path == "-" ? stderr : stdout;
  const auto progress = [human](const exp::InterpBenchEntry& e) {
    std::fprintf(human, "%-44s %-9s %12llu cycles %9.1f ms %9.2f Mcyc/s %9.2f MIPS\n",
                 e.label.c_str(), e.engine.c_str(),
                 static_cast<unsigned long long>(e.cycles), e.median_wall_ms,
                 e.mcycles_per_sec, e.mips);
  };
  // One grid per core count; the labels carry cN.
  std::vector<exp::InterpBenchEntry> entries;
  for (const unsigned cores :
       options.cores_list.empty() ? std::vector<unsigned>{2} : options.cores_list) {
    spec.cores = cores;
    const auto part = exp::RunInterpBench(spec, progress);
    entries.insert(entries.end(), part.begin(), part.end());
  }
  if (!options.json_path.empty()) {
    WriteJsonOutput(options.json_path, exp::InterpBenchJson(entries));
    if (options.json_path != "-") {
      std::fprintf(human, "report written to %s\n", options.json_path.c_str());
    }
  }
  return 0;
}

int TrainCommand(const CliOptions& options) {
  const exp::RunSpec spec = SpecFromOptions(options);
  const std::shared_ptr<const apps::App> app = exp::ResolveApp(spec);
  const EngineOptions engine_options = exp::MakeEngineOptions(spec);
  if (!engine_options.kivati.has_value()) {
    Fail("train requires Kivati (drop --vanilla)");
  }
  TrainingOptions training;
  training.machine = engine_options.machine;
  training.kivati = *engine_options.kivati;
  training.whitelist_sync_vars = engine_options.whitelist_sync_vars;
  training.iterations = options.iterations;
  const TrainingResult result = Train(app->workload, training);
  std::printf("false positives per iteration:");
  for (const std::size_t fp : result.false_positives) {
    std::printf(" %zu", fp);
  }
  std::printf("\nwhitelist: %zu AR(s)\n", result.whitelist.size());
  if (!options.save_whitelist_path.empty()) {
    if (!result.whitelist.SaveToFile(options.save_whitelist_path)) {
      Fail("cannot write '" + options.save_whitelist_path + "'");
    }
    std::printf("saved to %s\n", options.save_whitelist_path.c_str());
  }
  return 0;
}

int Sweep(const CliOptions& options) {
  exp::SpecGrid grid;
  if (!options.file.empty()) {
    if (!options.apps.empty()) {
      Fail("sweep takes either a source FILE or --apps, not both");
    }
    grid.base.source_path = options.file;
    grid.base.threads = options.threads;
  } else if (!options.apps.empty()) {
    grid.apps = options.apps;
  } else {
    Fail("sweep needs --apps or a source FILE");
  }
  grid.base.scale = AppScale(options);
  grid.base.machine.block_translate = !options.no_block_translate;
  grid.base.pause_ms = options.pause_ms;
  grid.base.whitelist_path = options.whitelist_path;
  grid.base.budget = options.max_cycles;
  grid.base.preset = options.preset;
  grid.base.mode = options.mode;
  grid.base.vanilla = options.vanilla;
  grid.seeds = options.seeds;
  grid.presets = options.presets;
  grid.modes = options.modes;
  grid.cores = options.cores_list;
  grid.watchpoints = options.watchpoints_list;
  grid.include_vanilla = options.with_vanilla;
  const std::vector<exp::RunSpec> specs = grid.Expand();
  if (specs.empty()) {
    Fail("sweep grid is empty");
  }

  exp::RunnerOptions runner_options;
  runner_options.workers = options.jobs;
  runner_options.progress = [](const exp::RunRecord& record, std::size_t done,
                               std::size_t total) {
    if (!record.error.empty()) {
      std::fprintf(stderr, "[%zu/%zu] %s: ERROR %s\n", done, total, record.label.c_str(),
                   record.error.c_str());
      return;
    }
    std::fprintf(stderr, "[%zu/%zu] %s: %llu cycles, %zu violation(s), %.0f ms\n", done, total,
                 record.label.c_str(), static_cast<unsigned long long>(record.cycles),
                 record.violations, record.wall_ms);
  };
  exp::ExperimentRunner runner(runner_options);

  const auto start = std::chrono::steady_clock::now();
  const std::vector<exp::RunRecord> records = runner.RunAll(specs);
  const double wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
          .count();

  std::size_t errors = 0;
  for (const exp::RunRecord& record : records) {
    errors += record.error.empty() ? 0 : 1;
  }
  // Keep stdout pure JSON under `--json -`: the human summary joins the
  // progress lines on stderr in that case.
  std::fprintf(options.json_path == "-" ? stderr : stdout,
               "sweep: %zu run(s) on %u worker(s) in %.0f ms (%zu error(s))\n", records.size(),
               runner.workers(), wall_ms, errors);
  if (!options.record_schedule_path.empty()) {
    // Re-run the first violating spec (in spec order) with recording on —
    // runs are deterministic, so the re-run reproduces the sweep's result —
    // and save its schedule as a repro artifact.
    bool recorded = false;
    for (std::size_t i = 0; i < records.size(); ++i) {
      if (!records[i].error.empty() || records[i].violations == 0) {
        continue;
      }
      exp::RunSpec spec = specs[i];
      spec.record_schedule = true;
      exp::BuiltRun rerun = exp::BuildEngine(spec);
      rerun.engine->Run(spec.budget);
      exp::SaveRepro(exp::MakeReproArtifact(spec, *rerun.engine->recorded_schedule(),
                                            rerun.engine->trace().violations()),
                     options.record_schedule_path);
      std::fprintf(stderr, "record-schedule: %s (%zu violation(s)) -> %s\n",
                   records[i].label.c_str(), records[i].violations,
                   options.record_schedule_path.c_str());
      recorded = true;
      break;
    }
    if (!recorded) {
      std::fprintf(stderr, "record-schedule: no violating run in this sweep; nothing saved\n");
    }
  }
  if (!options.json_path.empty()) {
    WriteJsonOutput(options.json_path,
                    exp::SweepReportJson(records, runner.workers(), wall_ms));
    if (options.json_path != "-") {
      std::printf("report written to %s\n", options.json_path.c_str());
    }
  }
  return errors == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
  const CliOptions options = ParseArgs(argc, argv);
  try {
    if (options.command == "annotate") {
      return Annotate(options);
    }
    if (options.command == "analyze") {
      return Analyze(options);
    }
    if (options.command == "run") {
      return Run(options);
    }
    if (options.command == "train") {
      return TrainCommand(options);
    }
    if (options.command == "sweep") {
      return Sweep(options);
    }
    if (options.command == "replay") {
      return Replay(options);
    }
    if (options.command == "shrink") {
      return Shrink(options);
    }
    if (options.command == "fuzz") {
      return FuzzCommand(options);
    }
    if (options.command == "compare") {
      return Compare(options);
    }
    if (options.command == "bench-interp") {
      return BenchInterp(options);
    }
  } catch (const std::exception& e) {
    Fail(e.what());
  }
  Fail("unknown command '" + options.command + "'");
}

}  // namespace
}  // namespace kivati

int main(int argc, char** argv) { return kivati::Main(argc, argv); }
