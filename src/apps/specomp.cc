#include <algorithm>
#include <string>

#include "apps/workloads.h"

namespace kivati {
namespace apps {
namespace {

// Models a SPEC OMP kernel: two threads (the paper's machine has two cores)
// alternate data-parallel phases over disjoint halves of a shared array,
// separated by a spin barrier. The barrier's generation flag is the paper's
// Figure-5 pattern: a waiter holds an open AR over the flag while spinning,
// so the releasing write is a *required* violation resolved only by the
// suspension timeout — unless the flag is whitelisted as a sync variable.
std::string SpecOmpSource(int threads, int phases, int chunk, int inner) {
  return std::string(R"(
    sync int omp_bar_lock;
    sync int omp_arrived;
    sync int omp_generation;
    sync int omp_reduce_lock;
    int omp_data[)" + std::to_string(threads * chunk) + R"(];
    int omp_result;
    int omp_progress[8];
    int omp_master_state;

    void omp_barrier(int id) {
      int gen = omp_generation;
      lock(omp_bar_lock);
      omp_arrived = omp_arrived + 1;
      int last = 0;
      if (omp_arrived == )" + std::to_string(threads) + R"() {
        last = 1;
      }
      unlock(omp_bar_lock);
      if (last == 1) {
        omp_arrived = 0;
        omp_generation = gen + 1;
      }
      if (last == 0) {
        while (omp_generation == gen);
      }
    }

    void omp_update_element(int idx, int p) {
      int v = omp_data[idx];
      // Stencil-style local compute on the element.
      int acc = v + p;
      for (int r = 0; r < )" + std::to_string(inner) + R"(; r = r + 1) {
        acc = acc * 29 + r;
      }
      omp_data[idx] = acc;
    }

    void omp_lead_in(int id, int base, int p) {
      // The phase leader additionally holds the master state while it works
      // through the first block of elements; during this window five
      // regions contend for four registers, so some go unmonitored
      // (Table 8/9's exhaustion).
      omp_master_state = p;
      for (int k = 0; k < 28; k = k + 1) {
        omp_update_element(base + k, p);
      }
      omp_master_state = p + 1;
    }

    void omp_run_phase(int id, int base, int p) {
      // Progress slot written at phase entry and read at phase exit: the
      // region spans the whole sweep and holds a watchpoint per thread.
      omp_progress[id] = p;
      int start = 0;
      if (id == 0) {
        omp_lead_in(id, base, p);
        start = 28;
      }
      for (int k = start; k < )" + std::to_string(chunk) + R"(; k = k + 1) {
        omp_update_element(base + k, p);
      }
      omp_progress[id] = p + 1;
    }

    int omp_peek_progress(int peer) {
      // Work-stealing heuristic: a single unpaired read of the peer's
      // progress slot, racing the peer's own (write..read..write) region.
      return omp_progress[peer];
    }

    void omp_worker(int id) {
      int base = id * )" + std::to_string(chunk) + R"(;
      for (int p = 0; p < )" + std::to_string(phases) + R"(; p = p + 1) {
        omp_run_phase(id, base, p);
        int peer_done = omp_peek_progress(1 - id);
        omp_barrier(id);
      }
      // Final reduction under a lock.
      int sum = 0;
      for (int k = 0; k < )" + std::to_string(chunk) + R"(; k = k + 1) {
        sum = sum + omp_data[base + k];
      }
      lock(omp_reduce_lock);
      omp_result = omp_result + sum;
      unlock(omp_reduce_lock);
    }
  )");
}

}  // namespace

App MakeSpecOmp(const LoadScale& scale) {
  const int threads = 2;  // both cores, as in the paper
  const int phases = std::max(2, scale.iterations / 80);
  const int chunk = 224;
  const int inner = 250;
  return AssembleApp("SPEC OMP", SpecOmpSource(threads, phases, chunk, inner), "omp_worker",
                     threads, {}, 400'000'000, scale.frontend);
}

std::vector<App> AllPerformanceApps(const LoadScale& scale) {
  std::vector<App> apps;
  apps.push_back(MakeNss(scale));
  apps.push_back(MakeVlc(scale));
  apps.push_back(MakeWebstone(scale));
  apps.push_back(MakeTpcw(scale));
  apps.push_back(MakeSpecOmp(scale));
  return apps;
}

}  // namespace apps
}  // namespace kivati
