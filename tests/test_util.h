// Shared helpers for Kivati tests: hand-assembled program fragments and
// deterministic machine configurations.
#ifndef KIVATI_TESTS_TEST_UTIL_H_
#define KIVATI_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/workload.h"
#include "isa/program.h"
#include "sched/machine.h"

namespace kivati {
namespace testing {

// A busy loop of roughly 2 * `iterations` instructions using `scratch`.
inline void EmitDelay(ProgramBuilder& b, std::int64_t iterations, RegId scratch = 7) {
  b.LoadImm(scratch, iterations);
  const auto loop = b.NewLabel();
  b.Bind(loop);
  b.AddI(scratch, scratch, -1);
  b.Bnz(scratch, loop);
}

// Deterministic single-core machine: round-robin with a fixed quantum makes
// every interleaving reproducible, and a single core needs no cross-core
// watchpoint synchronization.
inline MachineConfig SingleCoreConfig(Cycles quantum = 2000) {
  MachineConfig config;
  config.num_cores = 1;
  config.policy = SchedPolicy::kRoundRobin;
  config.quantum = quantum;
  config.seed = 42;
  return config;
}

// The conflict analysis's thread roots for `workload`: each distinct thread
// function with the number of threads started on it.
inline std::vector<std::pair<std::string, int>> ThreadRoots(const Workload& workload) {
  std::vector<std::pair<std::string, int>> roots;
  for (const auto& [function, arg] : workload.threads) {
    const auto it = std::find_if(roots.begin(), roots.end(),
                                 [&](const auto& root) { return root.first == function; });
    if (it == roots.end()) {
      roots.emplace_back(function, 1);
    } else {
      ++it->second;
    }
  }
  return roots;
}

inline MachineConfig DualCoreConfig(std::uint64_t seed = 42) {
  MachineConfig config;
  config.num_cores = 2;
  config.policy = SchedPolicy::kRoundRobin;
  config.quantum = 2000;
  config.seed = seed;
  return config;
}

}  // namespace testing
}  // namespace kivati

#endif  // KIVATI_TESTS_TEST_UTIL_H_
