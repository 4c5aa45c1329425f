// ExperimentRunner: execute many RunSpecs concurrently.
//
// Each Engine is single-threaded and fully deterministic given its spec, so
// a sweep is embarrassingly parallel: a fixed-size pool of host threads
// claims specs from a shared index and writes records into per-spec slots.
// Nothing is shared between runs except immutable state: each unique
// registered app, keyed on its name and its whole LoadScale (annotator
// configuration included), is resolved once, up front, and its machines
// share one ProgramImage (the program, its rollback lookups and its
// translation; sched/machine.h). So results are byte-identical to a serial
// execution of the same spec list — tests/exp_test.cc holds the project to
// that.
#ifndef KIVATI_EXP_RUNNER_H_
#define KIVATI_EXP_RUNNER_H_

#include <functional>

#include "exp/run_record.h"
#include "exp/run_spec.h"

namespace kivati {
namespace exp {

// Executes one spec start-to-finish (resolve, build, run, record). Errors
// are captured in RunRecord::error rather than thrown.
RunRecord Execute(const RunSpec& spec);

// Builds the record for an externally driven run (the CLI's `run` command
// owns the Engine so it can also print reports and write traces). Pass the
// run's HB detector (BuiltRun::hb) to fill the record's hb_* summary.
RunRecord MakeRecord(const RunSpec& spec, const apps::App& app, Engine& engine,
                     const RunResult& result,
                     const detect::HbLocksetDetector* hb = nullptr);

struct RunnerOptions {
  // 0 -> std::thread::hardware_concurrency().
  unsigned workers = 0;
  // Called after each finished run, serialized under an internal mutex.
  std::function<void(const RunRecord& record, std::size_t done, std::size_t total)> progress;
};

class ExperimentRunner {
 public:
  explicit ExperimentRunner(RunnerOptions options = {});

  // Runs every spec; records come back in spec order regardless of worker
  // count or completion order.
  std::vector<RunRecord> RunAll(const std::vector<RunSpec>& specs);

  unsigned workers() const { return workers_; }

 private:
  RunnerOptions options_;
  unsigned workers_;
};

}  // namespace exp
}  // namespace kivati

#endif  // KIVATI_EXP_RUNNER_H_
