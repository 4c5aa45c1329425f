#include "exp/runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

#include "exp/spec_grid.h"

namespace kivati {
namespace exp {
namespace {

double ElapsedMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

RunRecord MakeRecord(const RunSpec& spec, const apps::App& app, Engine& engine,
                     const RunResult& result, const detect::HbLocksetDetector* hb) {
  RunRecord record;
  record.label = spec.label.empty() ? SpecLabel(spec) : spec.label;
  record.app = app.workload.name;
  record.vanilla = spec.vanilla;
  record.preset = spec.preset;
  record.mode = spec.config_override.has_value() ? spec.config_override->mode : spec.mode;
  record.cores = spec.machine.num_cores;
  record.watchpoints = spec.machine.watchpoints_per_core;
  record.seed = spec.machine.seed;
  record.cycles = result.cycles;
  record.virtual_seconds = spec.machine.costs.ToSeconds(result.cycles);
  record.instructions = result.instructions;
  record.completed = result.all_done;
  record.deadlocked = result.deadlocked;
  record.hit_limit = result.hit_limit;
  const Trace& trace = engine.trace();
  record.stats = trace.stats();
  record.violations = trace.violations().size();
  std::size_t prevented = 0;
  for (const ViolationRecord& v : trace.violations()) {
    prevented += v.prevented ? 1 : 0;
  }
  record.violations_prevented = prevented;
  record.violation_records.assign(trace.violations().begin(), trace.violations().end());
  record.unique_violating_ars = trace.UniqueViolatingArs();
  record.false_positive_ars = trace.UniqueViolatingArsExcluding(app.workload.buggy_ars);
  if (spec.latency_tag != 0) {
    for (const MarkEvent& mark : trace.marks()) {
      if (mark.tag == spec.latency_tag) {
        record.latencies.push_back(mark.value);
      }
    }
  }
  if (hb != nullptr) {
    record.hb_attached = true;
    record.hb_races = hb->hb_races();
    record.hb_lockset_only = hb->lockset_only();
    record.hb_stats = hb->stats();
    record.hb_findings = hb->findings();
  }
  return record;
}

RunRecord Execute(const RunSpec& spec) {
  const auto start = std::chrono::steady_clock::now();
  try {
    BuiltRun run = BuildEngine(spec);
    const RunResult result = run.engine->Run(spec.budget);
    RunRecord record = MakeRecord(spec, *run.app, *run.engine, result, run.hb.get());
    if (const ScheduleTrace* trace = run.engine->recorded_schedule()) {
      record.schedule = std::make_shared<const ScheduleTrace>(*trace);
    }
    record.wall_ms = ElapsedMs(start);
    return record;
  } catch (const std::exception& e) {
    RunRecord record;
    record.label = spec.label.empty() ? SpecLabel(spec) : spec.label;
    record.app = !spec.app.empty()           ? spec.app
                 : !spec.source_path.empty() ? spec.source_path
                                             : spec.bug;
    record.vanilla = spec.vanilla;
    record.preset = spec.preset;
    record.mode = spec.mode;
    record.cores = spec.machine.num_cores;
    record.watchpoints = spec.machine.watchpoints_per_core;
    record.seed = spec.machine.seed;
    record.error = e.what();
    record.wall_ms = ElapsedMs(start);
    return record;
  }
}

ExperimentRunner::ExperimentRunner(RunnerOptions options) : options_(std::move(options)) {
  workers_ = options_.workers != 0 ? options_.workers : std::thread::hardware_concurrency();
  if (workers_ == 0) {
    workers_ = 1;
  }
}

std::vector<RunRecord> ExperimentRunner::RunAll(const std::vector<RunSpec>& specs) {
  // Resolve each unique registered app once; every spec that names it shares
  // the immutable compiled App and its ProgramImage (program + block
  // translation), so engines across the sweep skip the per-run program copy
  // and translation. Source-file and prebuilt specs pass through
  // untouched.
  struct CachedApp {
    std::shared_ptr<const apps::App> app;
    std::shared_ptr<const ProgramImage> image;
  };
  std::vector<RunSpec> resolved = specs;
  std::map<std::pair<std::string, apps::LoadScale>, CachedApp> cache;
  for (RunSpec& spec : resolved) {
    if (spec.app.empty() || spec.prebuilt != nullptr) {
      continue;
    }
    // Label by the registered name, as Execute does, before the name goes.
    if (spec.label.empty()) {
      spec.label = SpecLabel(spec);
    }
    // Keyed on the whole scale: every field of it is a factory input.
    auto [it, inserted] = cache.try_emplace(std::pair(spec.app, spec.scale));
    if (inserted) {
      it->second.app = MakeRegisteredApp(spec.app, spec.scale);
      it->second.image = MakeProgramImage(it->second.app->workload.program);
    }
    spec.prebuilt = it->second.app;
    if (spec.image == nullptr) {
      spec.image = it->second.image;
    }
    spec.app.clear();
  }

  std::vector<RunRecord> records(resolved.size());
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::mutex progress_mutex;

  auto worker = [&]() {
    while (true) {
      const std::size_t i = next.fetch_add(1);
      if (i >= resolved.size()) {
        return;
      }
      records[i] = Execute(resolved[i]);
      const std::size_t finished = done.fetch_add(1) + 1;
      if (options_.progress) {
        const std::lock_guard<std::mutex> lock(progress_mutex);
        options_.progress(records[i], finished, resolved.size());
      }
    }
  };

  const unsigned pool = static_cast<unsigned>(
      std::min<std::size_t>(workers_, resolved.empty() ? 1 : resolved.size()));
  if (pool <= 1) {
    worker();
    return records;
  }
  std::vector<std::thread> threads;
  threads.reserve(pool);
  for (unsigned t = 0; t < pool; ++t) {
    threads.emplace_back(worker);
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  return records;
}

}  // namespace exp
}  // namespace kivati
