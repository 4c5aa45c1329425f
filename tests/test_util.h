// Shared helpers for Kivati tests: hand-assembled program fragments and
// deterministic machine configurations.
#ifndef KIVATI_TESTS_TEST_UTIL_H_
#define KIVATI_TESTS_TEST_UTIL_H_

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
