// Shared plumbing for the synthetic application suite (paper Table 2).
//
// Each application is a mini-C program modelling the sharing patterns of the
// paper's real workload: lock-protected state (sync variables), unprotected
// benign races (the false-positive sources), spin-wait communication
// (required violations), compute phases, and — in the bug workloads —
// faithful reproductions of the reported atomicity-violation bugs.
#ifndef KIVATI_APPS_COMMON_H_
#define KIVATI_APPS_COMMON_H_

#include <compare>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "compile/compiler.h"
#include "core/workload.h"

namespace kivati {
namespace apps {

// A workload together with its compilation artifacts (global addresses and
// AR debug info, used by experiment harnesses).
struct App {
  Workload workload;
  // Everything the compiler produced but the program: `compiled->program`
  // is empty, and workload.program holds the one copy.
  std::shared_ptr<const CompiledProgram> compiled;
  std::string source;  // the mini-C text `compiled` was compiled from
};

// Scale knobs common to the performance workloads. Defaults are sized so a
// full Table-3 sweep runs in seconds of host time while still executing
// hundreds of thousands of annotations.
struct LoadScale {
  int workers = 4;
  int iterations = 250;
  // Annotator configuration the workload is compiled with.
  FrontendOptions frontend;

  auto operator<=>(const LoadScale&) const = default;
};

// All AR ids whose shared variable is named `variable` (any function).
std::unordered_set<ArId> ArsOnVariable(const CompiledProgram& compiled,
                                       const std::string& variable);

// Compiles `source` with `frontend` into an App whose workload runs
// `threads` ((function, r0 argument) pairs), which are also the conflict
// analysis's thread roots (ThreadRoots). The workload takes the program, the
// memory initializers, the sync-var ARs and the conflict verdict counts.
App CompileApp(std::string name, std::string source, const FrontendOptions& frontend,
               std::vector<std::pair<std::string, std::uint64_t>> threads);

// Assembles an App: compiles `source`, creates `workers` threads running
// `worker_function` with ids 0..workers-1, wires up memory initialization,
// sync-var ARs and the buggy-AR set (ARs on any variable in `buggy_vars`).
App AssembleApp(const std::string& name, const std::string& source,
                const std::string& worker_function, int workers,
                const std::vector<std::string>& buggy_vars = {},
                Cycles default_max_cycles = 400'000'000,
                const FrontendOptions& frontend = {});

}  // namespace apps
}  // namespace kivati

#endif  // KIVATI_APPS_COMMON_H_
