// RunSpec: a declarative, self-contained description of one Kivati run.
//
// The paper's entire evaluation (§4) is a grid of independent deterministic
// runs — application × configuration × mode × seed. A RunSpec captures one
// cell of that grid as plain data: where the workload comes from (a
// registered Table-2 application, a mini-C source file, or a pre-built App),
// the simulated machine, the Kivati configuration, the seed and the cycle
// budget. BuildEngine() is the single entry point that turns a RunSpec into
// a ready-to-run Engine; the CLI's run/train commands, the bench suite and
// the parallel ExperimentRunner all construct runs through it instead of
// hand-assembling the CliOptions -> Workload -> EngineOptions -> Engine
// pipeline.
#ifndef KIVATI_EXP_RUN_SPEC_H_
#define KIVATI_EXP_RUN_SPEC_H_

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "apps/bugs.h"
#include "apps/workloads.h"
#include "core/engine.h"
#include "detect/hb_detector.h"

namespace kivati {
namespace exp {

// Inclusive upper bounds on the RunSpec fields that size a run; each lower
// bound is 1, watchpoints run 1..kMaxWatchpointCount and the pause length
// 0..kMaxPauseMs. The CLI's option tables and the repro-artifact reader
// (repro.h) both enforce them, so a saved artifact cannot ask for a run
// the command line would refuse.
inline constexpr unsigned kMaxCores = 256;             // machine.num_cores
inline constexpr int kMaxAppWorkers = 256;             // scale.workers
inline constexpr int kMaxAppIterations = 100'000'000;  // scale.iterations
inline constexpr double kMaxPauseMs = 1e9;             // pause_ms

struct RunSpec {
  // Display / report label; defaults to the workload name plus the
  // configuration suffix (see SpecGrid).
  std::string label;

  // Workload source — exactly one of the four:
  std::string app;          // registered application name ("nss", "vlc", ...)
  std::string source_path;  // mini-C program compiled on resolve
  std::string bug;          // corpus bug, "APP-ID" (e.g. "NSS-329072")
  std::shared_ptr<const apps::App> prebuilt;

  // Optional prebuilt ProgramImage for the resolved workload's program.
  // Harnesses that run one workload many times (sweeps, the shrinker) set
  // this so every Engine shares the image instead of re-copying the program
  // and re-translating it per run (docs/performance.md). Must match the
  // resolved workload; leave null otherwise.
  std::shared_ptr<const ProgramImage> image;

  // Threads to start for source_path workloads: (function, r0 argument).
  // Registered apps and prebuilt workloads bring their own thread list.
  std::vector<std::pair<std::string, std::uint64_t>> threads;

  // Scale knobs for registered apps. Its annotator configuration
  // (scale.frontend) compiles every workload source but a prebuilt one.
  apps::LoadScale scale;

  // Simulated machine (cores, watchpoints, scheduler seed, cost model).
  MachineConfig machine;

  // Kivati configuration. vanilla=true runs without protection.
  bool vanilla = false;
  OptimizationPreset preset = OptimizationPreset::kOptimized;
  KivatiMode mode = KivatiMode::kPrevention;
  double pause_ms = 20.0;

  // Full configuration override for the ablation harnesses (individual
  // optimization toggles, custom timeouts). When set, preset/mode/pause_ms
  // are ignored — the override is the whole Kivati configuration.
  std::optional<KivatiConfig> config_override;

  // Whitelist file loaded once at build time (the trained-whitelist flow).
  std::string whitelist_path;
  // Absent -> derived from the preset (SyncVars and Optimized whitelist the
  // annotator's sync-variable regions, Table 3).
  std::optional<bool> whitelist_sync_vars;

  // Cycle budget; absent -> the workload's default.
  std::optional<Cycles> budget;

  // Collect SYS_MARK values with this tag into the record (0 = none).
  std::int64_t latency_tag = 0;

  // Attach the happens-before/lockset oracle (src/detect, docs/detectors.md)
  // to the run's trace hub. The detector subscribes to access-level events,
  // which sends every instruction touching shared data through the
  // per-instruction access-list path — the "instrument every shared access"
  // cost model Kivati is compared against (kivati compare); leave off for
  // performance runs.
  bool hb_detector = false;

  // Schedule record/replay (docs/replay.md) and guided fuzzing
  // (docs/fuzzing.md). At most one of the three: capture a ScheduleTrace
  // during the run (RunRecord::schedule), drive the scheduler from a
  // previously recorded trace, or drive it from a fuzz strategy (which also
  // records, so guided runs fill RunRecord::schedule too). Shrunk traces
  // replay loosely regardless of `replay_strict`.
  bool record_schedule = false;
  std::shared_ptr<const ScheduleTrace> replay_schedule;
  bool replay_strict = true;
  std::shared_ptr<const GuidedSchedule> guided_schedule;
};

// Names of the registered Table-2 performance applications, in row order.
const std::vector<std::string>& RegisteredApps();

// Canonical names of the Table-6 corpus bugs ("NSS-329072", ...), in row
// order, and the lookup behind RunSpec::bug (case-insensitive; accepts
// "APP-ID", "APP:ID" or "APP ID"). Lookup returns nullptr when unknown.
std::vector<std::string> CorpusBugNames();
// Names of the multi-variable corpus bugs (apps::MultiVarBugCorpus), same
// "APP-ID" format. FindCorpusBug resolves names from both corpora.
std::vector<std::string> MultiVarBugNames();
const apps::BugInfo* FindCorpusBug(const std::string& name);

// Builds one registered application. Throws std::runtime_error for an
// unknown name.
std::shared_ptr<const apps::App> MakeRegisteredApp(const std::string& name,
                                                   const apps::LoadScale& scale);

// Resolves the spec's workload source, compiling if necessary. Throws
// std::runtime_error on unknown app names, unreadable files, parse errors
// or missing thread entry functions.
std::shared_ptr<const apps::App> ResolveApp(const RunSpec& spec);

// Engine options implied by the spec (machine + Kivati config + whitelist).
// Throws std::runtime_error if the whitelist file cannot be read.
EngineOptions MakeEngineOptions(const RunSpec& spec);

// Whether the spec whitelists sync-var ARs (explicit override or preset).
bool WhitelistsSyncVars(const RunSpec& spec);

// A resolved, constructed run, ready for engine->Run().
struct BuiltRun {
  std::shared_ptr<const apps::App> app;
  EngineOptions options;
  std::unique_ptr<Engine> engine;
  // Present when the spec asked for the HB oracle; attached to the engine's
  // trace hub. Declared after `engine` so it detaches (destruction order)
  // while the hub is still alive.
  std::unique_ptr<detect::HbLocksetDetector> hb;
};

// The single run-construction entry point. The second overload reuses an
// already-resolved App (the runner resolves each unique app once per sweep).
BuiltRun BuildEngine(const RunSpec& spec);
BuiltRun BuildEngine(const RunSpec& spec, std::shared_ptr<const apps::App> app);

}  // namespace exp
}  // namespace kivati

#endif  // KIVATI_EXP_RUN_SPEC_H_
