// Top-level public API: assemble a machine, optionally protect it with
// Kivati, run a workload, inspect the results.
//
// Typical use:
//
//   kivati::Workload w = kivati::apps::MakeNssWorkload(...);
//   kivati::EngineOptions opts;
//   opts.kivati = kivati::KivatiConfig::PresetFor(
//       kivati::OptimizationPreset::kOptimized, kivati::KivatiMode::kPrevention);
//   kivati::Engine engine(w, opts);
//   auto result = engine.Run();
//   for (const auto& v : engine.trace().violations()) { ... }
#ifndef KIVATI_CORE_ENGINE_H_
#define KIVATI_CORE_ENGINE_H_

#include <memory>
#include <optional>

#include "core/workload.h"
#include "runtime/kivati_runtime.h"
#include "sched/fuzz_strategy.h"
#include "sched/machine.h"

namespace kivati {

struct EngineOptions {
  MachineConfig machine;
  // Absent -> vanilla run (no Kivati protection, annotations are no-ops).
  std::optional<KivatiConfig> kivati;
  // Adds the workload's sync-var ARs to the whitelist (optimization 4 /
  // Table 3's "SyncVars" configuration).
  bool whitelist_sync_vars = false;
};

class Engine {
 public:
  // `image` optionally shares a prebuilt ProgramImage for workload.program
  // (it must have been built from that same program); null builds a private
  // one. Harnesses running the same workload many times — sweep grids, the
  // shrinker's ddmin candidates — pass a shared image to skip the per-run
  // program copy and block translation (docs/performance.md).
  Engine(const Workload& workload, EngineOptions options,
         std::shared_ptr<const ProgramImage> image = nullptr);

  // Runs until the workload completes or `max_cycles` (defaulting to the
  // workload's budget) elapses.
  RunResult Run(std::optional<Cycles> max_cycles = std::nullopt);

  Machine& machine() { return machine_; }
  Trace& trace() { return machine_.trace(); }
  const Trace& trace() const { return const_cast<Machine&>(machine_).trace(); }

  // Null for vanilla runs.
  KivatiRuntime* runtime() { return runtime_.get(); }

  // --- Schedule record/replay (docs/replay.md) -----------------------------
  // At most one of the three may be enabled, before the first Run call.
  // Records every scheduling decision; read the trace back after Run.
  void RecordSchedule();
  // Drives the scheduler from `trace`. Strict replay verifies each decision
  // and throws ScheduleDivergenceError on mismatch; loose replay treats the
  // trace as a choice stream (shrunk traces).
  void ReplaySchedule(std::shared_ptr<const ScheduleTrace> trace, bool strict);
  // Drives the scheduler from a fuzz strategy (docs/fuzzing.md) while
  // recording the decisions, so recorded_schedule() is strict-replayable.
  void GuideSchedule(std::shared_ptr<const GuidedSchedule> guided);
  // Null unless RecordSchedule/ReplaySchedule/GuideSchedule was called.
  const ScheduleController* schedule_controller() const { return sched_ctl_.get(); }
  // The recorded trace (null unless recording).
  const ScheduleTrace* recorded_schedule() const;

 private:
  Cycles default_max_;
  Machine machine_;
  std::unique_ptr<KivatiRuntime> runtime_;
  std::unique_ptr<SchedStrategy> strategy_;  // guided mode
  std::unique_ptr<ScheduleController> sched_ctl_;
  std::shared_ptr<const ScheduleTrace> replay_trace_;  // keeps the trace alive
};

}  // namespace kivati

#endif  // KIVATI_CORE_ENGINE_H_
