#include "exp/shrink.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

namespace kivati {
namespace exp {
namespace {

// Runs one candidate decision list under loose replay and reports whether
// the target violation appears. The engine runs in slices so a reproducing
// candidate exits as soon as the violation fires instead of draining the
// full cycle budget.
class CandidateRunner {
 public:
  CandidateRunner(const ReproArtifact& artifact)
      : base_(artifact.spec), target_(artifact.target), seed_(artifact.trace.seed) {
    base_.record_schedule = false;
    base_.replay_schedule = nullptr;
    base_.guided_schedule = nullptr;
    app_ = ResolveApp(base_);
    // Every ddmin candidate builds a fresh Engine for the same program;
    // share one ProgramImage so candidates skip the per-run program copy
    // and block translation.
    base_.image = MakeProgramImage(app_->workload.program);
    budget_ = base_.budget.value_or(app_->workload.default_max_cycles);
    // Slice width: coarse enough that the slicing loop is cheap, fine
    // enough that early exit saves most of a non-terminating candidate.
    slice_ = std::max<Cycles>(budget_ / 64, 1);
  }

  // Runs the candidate and returns the cycle at which the target violation
  // fired, or nullopt if it never did.
  std::optional<Cycles> Reproduces(std::vector<SchedDecision> decisions) {
    auto trace = std::make_shared<ScheduleTrace>();
    trace->seed = seed_;
    trace->shrunk = true;  // loose replay
    trace->decisions = std::move(decisions);
    RunSpec spec = base_;
    spec.replay_schedule = std::move(trace);
    BuiltRun run = BuildEngine(spec, app_);
    std::size_t checked = 0;
    for (Cycles limit = slice_;; limit += slice_) {
      const RunResult result = run.engine->Run(std::min(limit, budget_));
      const auto& violations = run.engine->trace().violations();
      for (; checked < violations.size(); ++checked) {
        if (MatchesTarget(target_, violations[checked])) {
          return violations[checked].when;
        }
      }
      if (!result.hit_limit || limit >= budget_) {
        return std::nullopt;
      }
    }
  }

  // Caps the per-candidate cycle budget. Once the verification run shows the
  // target firing at cycle T, non-reproducing candidates need not drain the
  // spec's full budget — anything that has not fired well past T is treated
  // as a failed reproduction.
  void LimitBudget(Cycles cap) {
    budget_ = std::min(budget_, cap);
    slice_ = std::max<Cycles>(budget_ / 64, 1);
  }

 private:
  RunSpec base_;
  ReproTarget target_;
  std::uint64_t seed_;
  std::shared_ptr<const apps::App> app_;
  Cycles budget_ = 0;
  Cycles slice_ = 1;
};

}  // namespace

ShrinkResult ShrinkSchedule(const ReproArtifact& artifact, const ShrinkOptions& options) {
  if (!artifact.has_target) {
    throw std::runtime_error("repro artifact records no violation to shrink against");
  }
  ShrinkResult result;
  result.original_decisions = artifact.trace.decisions.size();
  result.trace.seed = artifact.trace.seed;
  result.trace.shrunk = true;

  CandidateRunner runner(artifact);
  const auto say = [&](const std::string& line) {
    if (options.progress) {
      options.progress(line);
    }
  };
  std::vector<SchedDecision> current = artifact.trace.decisions;
  const auto budget_left = [&]() { return result.runs < options.max_runs; };
  const auto try_candidate = [&](const std::vector<SchedDecision>& candidate) {
    ++result.runs;
    return runner.Reproduces(candidate).has_value();
  };

  // 1. The full decision list must reproduce under loose replay; otherwise
  // the violation depends on more than the recorded nondeterminism (it
  // should not) and shrinking would chase noise.
  ++result.runs;
  const std::optional<Cycles> fired_at = runner.Reproduces(current);
  if (!fired_at.has_value()) {
    result.trace.decisions = std::move(current);
    return result;
  }
  result.reproduced = true;
  // Candidates whose interleaving still triggers the bug do so in the same
  // cycle neighborhood; give them 4x headroom plus slack, so failing
  // candidates stop early instead of draining the full run budget.
  runner.LimitBudget(*fired_at * 4 + 1'000'000);
  say("target fires at cycle " + std::to_string(*fired_at));

  // 2. Shortest reproducing prefix. P(len) is monotone in practice:
  // decisions recorded after the violation fired cannot matter.
  std::size_t lo = 0;
  std::size_t hi = current.size();
  while (lo < hi && budget_left()) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (try_candidate({current.begin(), current.begin() + static_cast<std::ptrdiff_t>(mid)})) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  if (hi < current.size()) {
    say("prefix " + std::to_string(current.size()) + " -> " + std::to_string(hi));
    current.resize(hi);
  }

  // 3. ddmin: delete chunks the reproduction survives, halving the chunk
  // size on a full fruitless sweep, to a 1-minimal fixpoint. Convergence is
  // tracked explicitly: `budget_exhausted` means the budget cut the search
  // short, not that the last candidate happened to land on run #max_runs —
  // a sweep that completes on exactly the final allowed run still converged.
  std::size_t chunk = std::max<std::size_t>(current.size() / 2, 1);
  bool converged = false;
  while (!current.empty() && budget_left()) {
    bool removed_any = false;
    std::size_t start = 0;
    while (start < current.size() && budget_left()) {
      const std::size_t end = std::min(start + chunk, current.size());
      std::vector<SchedDecision> candidate;
      candidate.reserve(current.size() - (end - start));
      candidate.insert(candidate.end(), current.begin(),
                       current.begin() + static_cast<std::ptrdiff_t>(start));
      candidate.insert(candidate.end(), current.begin() + static_cast<std::ptrdiff_t>(end),
                       current.end());
      if (try_candidate(candidate)) {
        say("drop [" + std::to_string(start) + "," + std::to_string(end) + ") -> " +
            std::to_string(candidate.size()));
        current = std::move(candidate);
        removed_any = true;
        // Keep the same start: the next chunk slid into this position.
      } else {
        start = end;
      }
    }
    if (chunk == 1 && !removed_any) {
      // 1-minimal only if the fruitless sweep actually covered every
      // position; a sweep the budget cut short proves nothing.
      converged = start >= current.size();
      break;
    }
    if (chunk > 1) {
      chunk = std::max<std::size_t>(chunk / 2, 1);
    }
  }
  if (current.empty()) {
    converged = true;  // nothing left to delete: trivially 1-minimal
  }
  result.budget_exhausted = !converged;

  result.trace.decisions = std::move(current);
  return result;
}

}  // namespace exp
}  // namespace kivati
