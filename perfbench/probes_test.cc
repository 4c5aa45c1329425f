// The probes must not change what they measure: on one cell per benchmark
// workload, a run with HookProbe and SinkProbe installed must produce a
// RunRecord (without wall clock) and a ScheduleTrace byte-identical to the
// same run without them, and the probes must actually have seen the calls.
//
// Build and run: python3 perfbench/run.py --test
#include <cstdio>
#include <memory>
#include <string>

#include "exp/repro.h"
#include "exp/run_record.h"
#include "exp/runner.h"
#include "probes.h"

namespace {

namespace exp = kivati::exp;

struct Output {
  std::string record;
  std::string schedule;
  perfbench::HookCounts hooks;
  perfbench::CallTimer sink;
};

Output RunCell(const exp::RunSpec& spec, bool probed) {
  exp::BuiltRun run = exp::BuildEngine(spec);
  perfbench::RunProbes probes;
  if (probed) {
    probes.Install(run);
  }
  const kivati::RunResult result = run.engine->Run(spec.budget);
  const exp::RunRecord record = exp::MakeRecord(spec, *run.app, *run.engine, result, run.hb.get());
  Output out;
  out.record = exp::ToJson(record, /*include_wall_clock=*/false);
  out.schedule = exp::ToJson(
      exp::MakeReproArtifact(spec, *run.engine->recorded_schedule(), record.violation_records));
  out.hooks = probes.hook_counts();
  out.sink = probes.sink_events();
  return out;
}

int failures = 0;

void Check(bool ok, const std::string& cell, const char* what) {
  if (!ok) {
    std::printf("FAIL %s: %s\n", cell.c_str(), what);
    ++failures;
  }
}

void TestCell(const std::string& name, exp::RunSpec spec, bool expect_sink) {
  if (spec.guided_schedule == nullptr) {
    spec.record_schedule = true;
  }
  const int failures_before = failures;
  const Output plain = RunCell(spec, false);
  const Output probed = RunCell(spec, true);
  Check(plain.record == probed.record, name, "RunRecord JSON differs");
  Check(plain.schedule == probed.schedule, name, "ScheduleTrace differs");
  std::uint64_t hook_calls = probed.hooks.kernel_entries;
  for (const perfbench::CallTimer& t : probed.hooks.timed) {
    hook_calls += t.calls;
  }
  Check(hook_calls > 0, name, "hook probe saw no calls");
  Check((probed.sink.calls > 0) == expect_sink, name, "sink probe event count");
  std::printf("%s %s: %llu hook call(s), %llu sink event(s)\n",
              failures == failures_before ? "ok  " : "FAIL",
              name.c_str(), static_cast<unsigned long long>(hook_calls),
              static_cast<unsigned long long>(probed.sink.calls));
}

}  // namespace

int main() {
  try {
    exp::RunSpec grid_c2;
    grid_c2.app = "nss";
    grid_c2.preset = kivati::OptimizationPreset::kBase;
    TestCell("grid-c2 nss/base/c2", grid_c2, false);

    exp::RunSpec grid_wide;
    grid_wide.app = "nss";
    grid_wide.scale.iterations = 30;
    grid_wide.machine.num_cores = 4;
    TestCell("grid-wide nss/optimized/c4", grid_wide, false);

    exp::RunSpec hunt;
    hunt.bug = "NSS-329072";
    hunt.mode = kivati::KivatiMode::kBugFinding;
    hunt.budget = 2'000'000;
    kivati::GuidedSchedule guided;
    guided.seed = 7;
    hunt.guided_schedule = std::make_shared<const kivati::GuidedSchedule>(guided);
    TestCell("bughunt NSS-329072 guided", hunt, false);

    exp::RunSpec compare;
    compare.bug = "MySQL-38883";
    compare.mode = kivati::KivatiMode::kBugFinding;
    compare.pause_ms = 0.0;
    compare.budget = 10'000'000;
    compare.hb_detector = true;
    TestCell("compare MySQL-38883 +hb", compare, true);
  } catch (const std::exception& e) {
    std::printf("FAIL: %s\n", e.what());
    return 1;
  }
  return failures == 0 ? 0 : 1;
}
