// End-to-end benchmark of the kivati simulator (perfbench/README.md).
//
//   perfbench --workload grid-c2|grid-wide|bughunt|compare --seed N
//             --seconds S --trace 0|1 [--out DIR]
//
// Each workload is a closed loop: min(4, nproc) workers, each taking the next
// job when its last one finishes, for at least S seconds of host time and
// whole passes over the workload's job list. Jobs are generated from the
// seed alone. The benchmark times everything from outside the program: it
// wraps its own calls into the public API (ResolveApp, MakeProgramImage,
// BuildEngine, Engine::Run, MakeRecord, Fuzz, LoadRepro) and, in the traced
// run, installs the forwarding probes of probes.h.
//
// --trace 0 measures the end-to-end metrics. --trace 1 runs an untraced
// phase of S/2 seconds, then exactly the same jobs again traced, checks both
// simulated the same, and reports the per-layer metrics plus the tracing
// overhead. Either way job 0 is rerun on one worker and must match.
//
// Human-readable lines go first; the last line of stdout is one JSON object
// {"correct","attempted","failed","metrics"}. The full report (every metric,
// host or sim) and, when traced, the spans as a Chrome trace are written
// under --out.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "exp/fuzz.h"
#include "exp/repro.h"
#include "exp/run_record.h"
#include "exp/runner.h"
#include "probes.h"

namespace perfbench {
namespace {

namespace exp = kivati::exp;

double Ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

// Nearest-rank percentile, p in (0, 1].
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(values.size())));
  return values[std::max<std::size_t>(rank, 1) - 1];
}

double Ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

// Independent seeds from the workload seed. They depend on a job's cell
// (index modulo the pass size), never on its pass, so every pass repeats
// identical work.
std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t k) {
  std::uint64_t state = seed ^ (0x9e3779b97f4a7c15ull * (k + 1));
  return kivati::SplitMix64(state);
}

// ---------------------------------------------------------------------------
// Job results
// ---------------------------------------------------------------------------

// One run the benchmark drove itself, timed from spec to record.
struct TimedRun {
  std::size_t cell = 0;  // job index modulo the pass size
  unsigned cores = 0;
  double ms = 0.0;          // BuildEngine + Run + MakeRecord + JSON
  std::int64_t run_ns = 0;  // Engine::Run alone
  std::uint64_t instructions = 0;
};

// Simulated counts summed over a job's runs; deterministic per job.
struct SimCounts {
  std::uint64_t instructions = 0;
  std::uint64_t cycles = 0;
  std::uint64_t watchpoint_traps = 0;
  std::uint64_t remote_suspensions = 0;
  std::uint64_t suspension_timeouts = 0;
  std::uint64_t ars_missed = 0;
  std::uint64_t fast_path_hits = 0;
  std::uint64_t hb_accesses = 0;

  void Add(const exp::RunRecord& r) {
    instructions += r.instructions;
    cycles += r.cycles;
    watchpoint_traps += r.stats.watchpoint_traps;
    remote_suspensions += r.stats.remote_suspensions;
    suspension_timeouts += r.stats.suspension_timeouts;
    ars_missed += r.stats.ars_missed;
    fast_path_hits += r.stats.fast_path_begin + r.stats.fast_path_end + r.stats.fast_path_clear;
    hb_accesses += r.hb_stats.accesses_observed;
  }
  void Add(const SimCounts& o) {
    instructions += o.instructions;
    cycles += o.cycles;
    watchpoint_traps += o.watchpoint_traps;
    remote_suspensions += o.remote_suspensions;
    suspension_timeouts += o.suspension_timeouts;
    ars_missed += o.ars_missed;
    fast_path_hits += o.fast_path_hits;
    hb_accesses += o.hb_accesses;
  }
};

struct JobResult {
  // Deterministic output of the job (RunRecord JSON without wall clock, the
  // Fuzz report). RunPhase keeps only its digest, compared across phases.
  std::string output;
  std::size_t digest = 0;
  std::string error;        // exception text or failed check
  std::uint64_t engine_runs = 0;
  std::vector<TimedRun> runs;
  SimCounts sim;
  double ms = 0.0;

  exp::RunRecord record;    // grid and compare jobs
  exp::FuzzReport fuzz;     // bughunt jobs
  std::int64_t fuzz_ns = 0;    // the Fuzz call
  std::int64_t shrink_ns = 0;  // ... of which shrinking and its replay check
  std::size_t reproduced = 0;  // discoveries whose shrunk trace replayed

  // Traced phase only.
  SpanLog spans;
  HookCounts hooks;
  CallTimer sink;
};

// One spec run: BuildEngine, Engine::Run, MakeRecord and its JSON, each in
// a span when `log` is set, with the probes installed.
exp::RunRecord RunOne(const exp::RunSpec& spec, SpanLog* log, JobResult& job) {
  const auto start = Clock::now();
  exp::BuiltRun run;
  RunProbes probes;
  {
    ScopedSpan span(log, "core.build");
    run = exp::BuildEngine(spec);
  }
  if (log != nullptr) {
    probes.Install(run);
  }
  static const char* const kRunSpan[] = {"sched.run.c0", "sched.run.c1", "sched.run.c2",
                                         "sched.run.c3", "sched.run.c4", "sched.run.c5",
                                         "sched.run.c6", "sched.run.c7", "sched.run.c8"};
  const unsigned cores = spec.machine.num_cores;
  kivati::RunResult result;
  std::int64_t run_ns = 0;
  {
    ScopedSpan span(log, kRunSpan[std::min(cores, 8u)]);
    const std::int64_t run_start = NowNs();
    result = run.engine->Run(spec.budget);
    run_ns = NowNs() - run_start;
    if (log != nullptr) {
      const HookCounts hooks = probes.hook_counts();
      const CallTimer sink = probes.sink_events();
      log->AddCollapsed("kernel.hooks", hooks.timed_ns());
      log->AddCollapsed("detect.hb", sink.ns);
      job.hooks.Add(hooks);
      job.sink.calls += sink.calls;
      job.sink.ns += sink.ns;
    }
  }
  exp::RunRecord record;
  {
    ScopedSpan span(log, "exp.record");
    record = exp::MakeRecord(spec, *run.app, *run.engine, result, run.hb.get());
    job.output += exp::ToJson(record, /*include_wall_clock=*/false);
  }
  job.runs.push_back({0, cores, SecondsSince(start) * 1e3, run_ns, result.instructions});
  job.sim.Add(record);
  ++job.engine_runs;
  return record;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  bool sim = false;  // deterministic simulated quantity, not host time
};

// Workload-level results: metrics only this workload has, and checks.
struct Summary {
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
  std::size_t checks = 0;
  std::vector<std::string> failures;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Basic blocks translated by the last Setup.
  std::size_t blocks() const { return blocks_; }
  // Resolves every app the jobs use and builds their ProgramImages. Called
  // several times; the last result is kept.
  virtual void Setup(SpanLog* log) = 0;
  // Jobs in one pass over the workload's list; job i is pass i / pass_size.
  virtual std::size_t pass_size() const = 0;
  virtual JobResult Run(std::size_t index, SpanLog* log) = 0;
  // Workload-specific metrics and checks over the timed phase's jobs.
  virtual Summary Summarize(const std::vector<JobResult>& jobs, double elapsed_s) const = 0;

 protected:
  std::size_t blocks_ = 0;
};

struct Prepared {
  std::shared_ptr<const kivati::apps::App> app;
  std::shared_ptr<const kivati::ProgramImage> image;
};

// Resolves one workload (the frontend: parse, analysis, codegen) and builds
// its image. Traced set-up also times the image's two halves on their own.
Prepared Prepare(const exp::RunSpec& spec, SpanLog* log, std::size_t* blocks) {
  Prepared p;
  {
    ScopedSpan span(log, "apps.build");
    p.app = exp::ResolveApp(spec);
  }
  {
    ScopedSpan span(log, "exec.image");
    p.image = kivati::MakeProgramImage(p.app->workload.program);
  }
  if (log != nullptr) {
    {
      ScopedSpan span(log, "isa.rollback");
      const kivati::RollbackTable table(p.app->workload.program);
    }
    ScopedSpan span(log, "exec.translate");
    const kivati::exec::BlockTranslation translation(p.app->workload.program);
    *blocks += translation.num_blocks();
  }
  return p;
}

// The Table-3 grid: registered apps x configurations x core counts.
class GridWorkload : public Workload {
 public:
  struct Config {
    const char* name;
    bool vanilla;
    kivati::OptimizationPreset preset;
  };

  GridWorkload(std::uint64_t seed, std::vector<unsigned> cores, std::vector<Config> configs,
               int iterations)
      : seed_(seed), cores_(std::move(cores)), configs_(std::move(configs)) {
    scale_.iterations = iterations;
    for (std::size_t a = 0; a < exp::RegisteredApps().size(); ++a) {
      for (unsigned c : cores_) {
        for (std::size_t k = 0; k < configs_.size(); ++k) {
          cells_.push_back({a, c, k});
        }
      }
    }
  }

  void Setup(SpanLog* log) override {
    prepared_.clear();
    blocks_ = 0;
    for (const std::string& name : exp::RegisteredApps()) {
      exp::RunSpec spec;
      spec.app = name;
      spec.scale = scale_;
      prepared_.push_back(Prepare(spec, log, &blocks_));
    }
  }

  std::size_t pass_size() const override { return cells_.size(); }

  JobResult Run(std::size_t index, SpanLog* log) override {
    const Cell& cell = cells_[index % cells_.size()];
    const Config& config = configs_[cell.config];
    exp::RunSpec spec;
    spec.label = exp::RegisteredApps()[cell.app] + "/" + config.name + "/c" +
                 std::to_string(cell.cores);
    spec.prebuilt = prepared_[cell.app].app;
    spec.image = prepared_[cell.app].image;
    spec.scale = scale_;
    spec.machine.num_cores = cell.cores;
    // One machine seed for every cell, so sim_overhead_pct compares armed
    // and vanilla cells under the same seed.
    spec.machine.seed = DeriveSeed(seed_, 0);
    spec.vanilla = config.vanilla;
    spec.preset = config.preset;
    JobResult job;
    job.record = RunOne(spec, log, job);
    if (!job.record.completed) {
      job.error = spec.label + " did not complete";
    }
    return job;
  }

  Summary Summarize(const std::vector<JobResult>& jobs, double /*elapsed_s*/) const override {
    // Pass 0 only, so the figures are a deterministic function of the seed.
    Summary s;
    auto overhead = [&](const char* config_name, unsigned only_cores) {
      double log_sum = 0.0;
      int n = 0;
      for (std::size_t i = 0; i < cells_.size(); ++i) {
        const Cell& cell = cells_[i];
        if (configs_[cell.config].name != std::string(config_name) ||
            (only_cores != 0 && cell.cores != only_cores)) {
          continue;
        }
        for (std::size_t j = 0; j < cells_.size(); ++j) {
          const Cell& base = cells_[j];
          if (base.app == cell.app && base.cores == cell.cores && configs_[base.config].vanilla &&
              jobs[i].record.cycles != 0 && jobs[j].record.cycles != 0) {
            log_sum += std::log(static_cast<double>(jobs[i].record.cycles) /
                                static_cast<double>(jobs[j].record.cycles));
            ++n;
          }
        }
      }
      return n == 0 ? 0.0 : (std::exp(log_sum / n) - 1.0) * 100.0;
    };
    s.metrics.push_back({"sim_overhead_pct", overhead("optimized", 0), "%", true});
    for (unsigned c : cores_) {
      s.metrics.push_back({"sim_overhead_pct.c" + std::to_string(c), overhead("optimized", c),
                           "%", true});
    }
    for (const Config& config : configs_) {
      if (config.name == std::string("base")) {
        s.metrics.push_back({"sim_overhead_pct.base", overhead("base", 0), "%", true});
      }
    }
    s.notes.push_back(
        "reference: the paper's Table 3 measures a 19% optimized-prevention geomean on real "
        "hardware (2-core Core 2 Duo); the simulator's cost model is otherwise unvalidated");
    return s;
  }

 private:
  struct Cell {
    std::size_t app;
    unsigned cores;
    std::size_t config;
  };

  std::uint64_t seed_;
  std::vector<unsigned> cores_;
  std::vector<Config> configs_;
  kivati::apps::LoadScale scale_;
  std::vector<Cell> cells_;
  std::vector<Prepared> prepared_;
};

// Fuzz -> shrink -> replay-verify, then load the saved repro and replay it.
class HuntWorkload : public Workload {
 public:
  HuntWorkload(std::uint64_t seed, std::filesystem::path artifacts)
      : seed_(seed), artifacts_(std::move(artifacts)) {}

  // Short-shrink single-variable and multi-variable bugs. Apache-25520 is
  // left out: its shrink uses up any budget (209 s at the CLI default).
  static constexpr const char* kBugs[] = {"NSS-329072", "NSS-270689", "MySQL-38883",
                                         "NSS-88331"};
  static constexpr kivati::Cycles kBudget = 2'000'000;
  static constexpr std::size_t kSchedules = 6;
  static constexpr std::size_t kShrinkRuns = 40;

  void Setup(SpanLog* log) override {
    prepared_.clear();
    blocks_ = 0;
    for (const char* bug : kBugs) {
      exp::RunSpec spec;
      spec.bug = bug;
      prepared_.push_back(Prepare(spec, log, &blocks_));
    }
  }

  std::size_t pass_size() const override { return std::size(kBugs); }

  JobResult Run(std::size_t index, SpanLog* log) override {
    const std::size_t b = index % std::size(kBugs);
    exp::RunSpec spec;
    spec.bug = kBugs[b];
    spec.budget = kBudget;
    spec.mode = kivati::KivatiMode::kBugFinding;
    spec.machine.seed = DeriveSeed(seed_, b);

    JobResult job;
    exp::FuzzOptions options;
    options.max_schedules = kSchedules;
    options.plateau = kSchedules;
    options.seed = DeriveSeed(seed_ + 1, b);
    options.workers = 1;
    options.shrink_max_runs = kShrinkRuns;
    options.artifact_dir = (artifacts_ / ("job-" + std::to_string(index))).string();
    // Fuzz reports each discovery's shrink through its progress messages:
    // "..., shrinking" before ShrinkSchedule and "  shrunk ..." after the
    // replay check. Candidate time is the Fuzz call minus those intervals.
    std::int64_t shrink_start = 0;
    int shrink_span = -1;
    options.progress = [&](const std::string& line) {
      if (line.size() >= 9 && line.compare(line.size() - 9, 9, "shrinking") == 0) {
        shrink_start = NowNs();
        shrink_span = log != nullptr ? log->Open("exp.shrink") : -1;
      } else if (line.rfind("  shrunk", 0) == 0) {
        job.shrink_ns += NowNs() - shrink_start;
        if (log != nullptr) {
          log->Close(shrink_span);
        }
      }
    };
    const auto start = Clock::now();
    {
      ScopedSpan span(log, "exp.fuzz");
      const std::int64_t fuzz_start = NowNs();
      job.fuzz = exp::Fuzz(spec, options);
      job.fuzz_ns = NowNs() - fuzz_start;
    }
    // The artifact paths name the job; the rest of the report is the same
    // in every pass.
    exp::FuzzReport report = job.fuzz;
    for (exp::FuzzDiscovery& d : report.discoveries) {
      d.artifact_path.clear();
    }
    job.output = exp::FuzzReportJson(report, /*include_wall_clock=*/false);
    job.engine_runs = job.fuzz.schedules_run;
    for (const exp::FuzzDiscovery& d : job.fuzz.discoveries) {
      job.engine_runs += d.shrink_runs + 1;  // + Fuzz's own replay check
      if (!d.replay_ok) {
        job.error = "discovery AR " + std::to_string(d.target.ar) + " did not replay";
        continue;
      }
      ScopedSpan span(log, "exp.replay");
      const exp::ReproArtifact artifact = exp::LoadRepro(d.artifact_path);
      exp::RunSpec replay = artifact.spec;
      replay.bug.clear();
      replay.prebuilt = prepared_[b].app;
      replay.image = prepared_[b].image;
      replay.replay_schedule = std::make_shared<const kivati::ScheduleTrace>(artifact.trace);
      const exp::RunRecord record = RunOne(replay, log, job);
      if (std::any_of(record.violation_records.begin(), record.violation_records.end(),
                      [&](const kivati::ViolationRecord& v) {
                        return exp::MatchesTarget(artifact.target, v);
                      })) {
        ++job.reproduced;
      } else {
        job.error = "repro for AR " + std::to_string(d.target.ar) + " missed its target";
      }
    }
    job.ms = SecondsSince(start) * 1e3;
    return job;
  }

  Summary Summarize(const std::vector<JobResult>& jobs, double /*elapsed_s*/) const override {
    Summary s;
    std::size_t schedules = 0;
    std::int64_t candidate_ns = 0;
    std::vector<double> repro_s;
    for (const JobResult& job : jobs) {
      schedules += job.fuzz.schedules_run;
      candidate_ns += job.fuzz_ns - job.shrink_ns;
      if (job.reproduced > 0) {
        repro_s.push_back(job.ms / 1e3);
      }
    }
    std::size_t reproduced = 0;
    for (std::size_t i = 0; i < pass_size(); ++i) {
      reproduced += jobs[i].reproduced > 0 ? 1 : 0;
    }
    s.metrics.push_back(
        {"schedules_per_s", Ratio(static_cast<double>(schedules), Ms(candidate_ns) / 1e3), "1/s"});
    s.metrics.push_back({"repro_s", Median(repro_s), "s"});
    s.metrics.push_back({"bugs_reproduced", static_cast<double>(reproduced), "count", true});
    // Every listed bug is found, shrunk and replayed under any seed: a
    // campaign that finds nothing is a failure, not a fast campaign.
    ++s.checks;
    if (reproduced != std::size(kBugs)) {
      s.failures.push_back("reproduced " + std::to_string(reproduced) + " of " +
                           std::to_string(std::size(kBugs)) + " bugs");
    }
    s.notes.push_back("repro_s: median over " + std::to_string(repro_s.size()) +
                      " campaign(s); shrink budget capped at " + std::to_string(kShrinkRuns) +
                      " runs, cycle budget " + std::to_string(kBudget));
    return s;
  }

 private:
  std::uint64_t seed_;
  std::filesystem::path artifacts_;
  std::vector<Prepared> prepared_;
};

// Kivati plus the HB/lockset oracle over the whole corpus, as kivati compare
// runs it, at a fixed cycle budget.
class CompareWorkload : public Workload {
 public:
  static constexpr kivati::Cycles kBudget = 10'000'000;
  // Seed-independent convictions over the corpus: the HB oracle judges the
  // synchronization structure, so it convicts every bug under any schedule,
  // and Kivati convicts every multi-variable bug. Kivati's single-variable
  // count depends on the schedule (3-6 of 11 over seeds 2-7).
  static constexpr std::size_t kExpectedHb = 15;
  static constexpr std::size_t kExpectedKivatiMultiVar = 4;

  explicit CompareWorkload(std::uint64_t seed) : seed_(seed) {
    bugs_ = exp::CorpusBugNames();
    const std::vector<std::string> multi = exp::MultiVarBugNames();
    multivar_from_ = bugs_.size();
    bugs_.insert(bugs_.end(), multi.begin(), multi.end());
  }

  void Setup(SpanLog* log) override {
    prepared_.clear();
    buggy_addrs_.clear();
    blocks_ = 0;
    for (const std::string& bug : bugs_) {
      exp::RunSpec spec;
      spec.bug = bug;
      prepared_.push_back(Prepare(spec, log, &blocks_));
      buggy_addrs_.push_back(BuggyAddrs(*prepared_.back().app));
    }
  }

  std::size_t pass_size() const override { return bugs_.size(); }

  JobResult Run(std::size_t index, SpanLog* log) override {
    const std::size_t b = index % bugs_.size();
    exp::RunSpec spec;
    spec.label = bugs_[b];
    spec.prebuilt = prepared_[b].app;
    spec.image = prepared_[b].image;
    spec.machine.seed = DeriveSeed(seed_, 0);
    spec.budget = kBudget;
    spec.mode = kivati::KivatiMode::kBugFinding;
    spec.pause_ms = 0.0;
    spec.hb_detector = true;
    JobResult job;
    job.record = RunOne(spec, log, job);
    return job;
  }

  Summary Summarize(const std::vector<JobResult>& jobs, double elapsed_s) const override {
    Summary s;
    std::size_t kivati = 0;
    std::size_t kivati_multi = 0;
    std::size_t hb = 0;
    for (std::size_t i = 0; i < bugs_.size(); ++i) {
      const exp::RunRecord& r = jobs[i].record;
      const auto& buggy_ars = prepared_[i].app->workload.buggy_ars;
      const bool k = std::any_of(
          r.violation_records.begin(), r.violation_records.end(),
          [&](const kivati::ViolationRecord& v) { return buggy_ars.count(v.ar_id) != 0; });
      const bool h = std::any_of(
          r.hb_findings.begin(), r.hb_findings.end(), [&](const kivati::detect::Finding& f) {
            return f.kind == "hb-race" && buggy_addrs_[i].count(f.addr) != 0;
          });
      kivati += k ? 1 : 0;
      kivati_multi += k && i >= multivar_from_ ? 1 : 0;
      hb += h ? 1 : 0;
    }
    std::uint64_t accesses = 0;
    for (const JobResult& job : jobs) {
      accesses += job.sim.hb_accesses;
    }
    s.metrics.push_back({"hb_accesses_per_s", Ratio(static_cast<double>(accesses), elapsed_s),
                         "1/s"});
    s.metrics.push_back({"bugs_convicted_hb", static_cast<double>(hb), "count", true});
    s.metrics.push_back({"bugs_convicted_kivati", static_cast<double>(kivati), "count", true});
    s.checks += 2;
    if (hb != kExpectedHb) {
      s.failures.push_back("HB convicted " + std::to_string(hb) + " bug(s), expected " +
                           std::to_string(kExpectedHb));
    }
    if (kivati_multi != kExpectedKivatiMultiVar) {
      s.failures.push_back("Kivati convicted " + std::to_string(kivati_multi) +
                           " multi-variable bug(s), expected " +
                           std::to_string(kExpectedKivatiMultiVar));
    }
    return s;
  }

 private:
  // Addresses of the shared variables behind the known-buggy ARs: the HB
  // backend reports per address (the same rule as kivati compare).
  static std::unordered_set<kivati::Addr> BuggyAddrs(const kivati::apps::App& app) {
    std::unordered_set<kivati::Addr> addrs;
    if (app.compiled == nullptr) {
      return addrs;
    }
    for (const kivati::ArId ar : app.workload.buggy_ars) {
      if (ar == 0 || ar > app.compiled->ar_infos.size()) {
        continue;
      }
      const auto it = app.compiled->global_addrs.find(app.compiled->ar_infos[ar - 1].variable);
      if (it != app.compiled->global_addrs.end()) {
        addrs.insert(it->second);
      }
    }
    return addrs;
  }

  std::uint64_t seed_;
  std::vector<std::string> bugs_;
  std::size_t multivar_from_ = 0;
  std::vector<Prepared> prepared_;
  std::vector<std::unordered_set<kivati::Addr>> buggy_addrs_;
};

// ---------------------------------------------------------------------------
// The closed loop
// ---------------------------------------------------------------------------

struct Phase {
  std::vector<JobResult> jobs;  // by job index
  std::vector<unsigned> worker_of;
  double elapsed_s = 0.0;
  double idle_tail_ms = 0.0;  // worker time idle while the last jobs finish
};

// Runs jobs 0..count-1, or, without a count, keeps claiming jobs until
// `seconds` have passed, stopping only between passes: every measurement
// then covers whole passes, so where the deadline falls cannot change the
// mix of cheap and expensive jobs.
Phase RunPhase(Workload& workload, unsigned workers, std::optional<std::size_t> count,
               double seconds, bool traced) {
  std::mutex mutex;
  std::size_t next = 0;  // guarded by mutex
  std::vector<std::pair<std::size_t, JobResult>> done;  // guarded by mutex
  std::vector<unsigned> owners;                          // guarded by mutex
  std::vector<double> finished(workers, 0.0);
  const auto start = Clock::now();
  auto claim = [&]() -> std::optional<std::size_t> {
    const std::lock_guard<std::mutex> lock(mutex);
    if (count.has_value() ? next >= *count
                          : next % workload.pass_size() == 0 && next > 0 &&
                                SecondsSince(start) >= seconds) {
      return std::nullopt;
    }
    return next++;
  };
  auto worker = [&](unsigned w) {
    while (const std::optional<std::size_t> index = claim()) {
      SpanLog spans;
      JobResult job;
      try {
        ScopedSpan root(traced ? &spans : nullptr, "job");
        job = workload.Run(*index, traced ? &spans : nullptr);
      } catch (const std::exception& e) {
        job = JobResult{};
        job.error = e.what();
      }
      job.spans = std::move(spans);
      for (TimedRun& r : job.runs) {
        r.cell = *index % workload.pass_size();
      }
      // Keep what the job retains small and independent of how many jobs
      // ran, so peak_rss_mb measures the program, not this bookkeeping:
      // summaries read records from pass 0 only.
      job.digest = std::hash<std::string>{}(job.output);
      job.output = {};
      if (*index >= workload.pass_size()) {
        job.record = {};
      }
      const std::lock_guard<std::mutex> lock(mutex);
      done.emplace_back(*index, std::move(job));
      owners.push_back(w);
    }
    finished[w] = SecondsSince(start);
  };
  std::vector<std::thread> threads;
  for (unsigned w = 0; w < workers; ++w) {
    threads.emplace_back(worker, w);
  }
  for (std::thread& t : threads) {
    t.join();
  }
  Phase phase;
  phase.elapsed_s = SecondsSince(start);
  for (double f : finished) {
    phase.idle_tail_ms += (phase.elapsed_s - f) * 1e3;
  }
  phase.jobs.resize(done.size());
  phase.worker_of.resize(done.size());
  for (std::size_t i = 0; i < done.size(); ++i) {
    const std::size_t index = done[i].first;
    phase.jobs[index] = std::move(done[i].second);
    phase.worker_of[index] = owners[i];
  }
  return phase;
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

std::string Number(double value) {
  if (!std::isfinite(value)) {
    value = 0.0;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16.6f %-8s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.sim ? "sim" : "host");
  }
}

// Per-name totals over spans: duration, self time (duration minus direct
// children), and count.
struct SpanTotals {
  std::map<std::string, std::int64_t> ns;
  std::map<std::string, std::int64_t> self_ns;
  std::map<std::string, std::uint64_t> count;

  void Add(const SpanLog& log) {
    const std::vector<Span>& spans = log.spans();
    std::vector<std::int64_t> children(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) {
        children[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const std::int64_t d = spans[i].end_ns - spans[i].start_ns;
      ns[spans[i].name] += d;
      self_ns[spans[i].name] += d - children[i];
      ++count[spans[i].name];
    }
  }
  std::int64_t Ns(const std::string& name) const {
    const auto it = ns.find(name);
    return it == ns.end() ? 0 : it->second;
  }
  std::int64_t SelfNs(const std::string& name) const {
    const auto it = self_ns.find(name);
    return it == self_ns.end() ? 0 : it->second;
  }
  std::uint64_t Count(const std::string& name) const {
    const auto it = count.find(name);
    return it == count.end() ? 0 : it->second;
  }
};

std::vector<Metric> LayerMetrics(const std::vector<SpanLog>& setup_logs, std::size_t blocks,
                                 const Phase& untraced, const Phase& traced,
                                 std::size_t pass_size) {
  std::vector<Metric> m;
  // Set-up layers: median over the set-up repetitions.
  auto setup_ms = [&](const char* name) {
    std::vector<double> per_rep;
    for (const SpanLog& log : setup_logs) {
      SpanTotals t;
      t.Add(log);
      per_rep.push_back(Ms(t.Ns(name)));
    }
    return Median(per_rep);
  };
  m.push_back({"apps.build_ms", setup_ms("apps.build"), "ms"});
  m.push_back({"isa.rollback_ms", setup_ms("isa.rollback"), "ms"});
  m.push_back({"exec.translate_ms", setup_ms("exec.translate"), "ms"});
  m.push_back({"exec.blocks", static_cast<double>(blocks), "count", true});

  SpanTotals spans;
  HookCounts hooks;
  CallTimer sink;
  std::size_t runs = 0;
  std::map<unsigned, std::uint64_t> instr_by_cores;
  std::size_t schedules = 0;
  std::size_t discoveries = 0;
  for (const JobResult& job : traced.jobs) {
    spans.Add(job.spans);
    hooks.Add(job.hooks);
    sink.calls += job.sink.calls;
    sink.ns += job.sink.ns;
    runs += job.runs.size();
    for (const TimedRun& r : job.runs) {
      instr_by_cores[r.cores] += r.instructions;
    }
    schedules += job.fuzz.schedules_run;
    discoveries += job.fuzz.discoveries.size();
  }
  // Deterministic counts come from pass 0 alone, which every phase runs.
  HookCounts pass_hooks;
  SimCounts pass_sim;
  std::uint64_t pass_events = 0;
  std::size_t pass_schedules = 0, novel = 0, shrink_runs = 0, decisions = 0, kept = 0;
  for (std::size_t i = 0; i < pass_size; ++i) {
    const JobResult& job = traced.jobs[i];
    pass_hooks.Add(job.hooks);
    pass_events += job.sink.calls;
    pass_sim.Add(job.sim);
    pass_schedules += job.fuzz.schedules_run;
    novel += job.fuzz.coverage_curve.size();
    for (const exp::FuzzDiscovery& d : job.fuzz.discoveries) {
      shrink_runs += d.shrink_runs;
      decisions += d.trace_decisions;
      kept += d.shrunk_decisions;
    }
  }
  const double per_run = runs == 0 ? 0.0 : 1.0 / static_cast<double>(runs);

  m.push_back({"core.build_ms", Ms(spans.Ns("core.build")) * per_run, "ms"});
  std::int64_t run_ns = 0;
  std::int64_t run_self_ns = 0;
  for (unsigned c = 0; c <= 8; ++c) {
    run_ns += spans.Ns("sched.run.c" + std::to_string(c));
    run_self_ns += spans.SelfNs("sched.run.c" + std::to_string(c));
  }
  m.push_back({"sched.run_self_ms", Ms(run_self_ns) * per_run, "ms"});
  for (unsigned c : {1u, 2u, 4u, 8u}) {
    m.push_back({"sched.ns_per_instr.c" + std::to_string(c),
                 Ratio(static_cast<double>(spans.SelfNs("sched.run.c" + std::to_string(c))),
                       static_cast<double>(instr_by_cores[c])),
                 "ns"});
  }
  m.push_back({"sched.instructions", static_cast<double>(pass_sim.instructions), "count", true});
  m.push_back({"sched.cycles", static_cast<double>(pass_sim.cycles), "count", true});

  for (int h = 0; h < kTimedHooks; ++h) {
    const std::string name = std::string("kernel.") + kTimedHookNames[h];
    m.push_back({name + ".calls", static_cast<double>(pass_hooks.timed[h].calls), "count", true});
    m.push_back({name + ".ms", Ms(hooks.timed[h].ns) * per_run, "ms"});
  }
  m.push_back({"kernel.timeout.calls", static_cast<double>(pass_hooks.timeouts), "count", true});
  m.push_back({"kernel.entry.calls", static_cast<double>(pass_hooks.kernel_entries), "count",
               true});
  m.push_back({"kernel.idle_noop.calls", static_cast<double>(pass_hooks.idle_queries), "count",
               true});
  m.push_back({"kernel.idle_noop_ratio",
               Ratio(static_cast<double>(pass_hooks.idle_noop),
                     static_cast<double>(pass_hooks.idle_queries)),
               "fraction", true});
  m.push_back({"kernel.watchpoint_traps", static_cast<double>(pass_sim.watchpoint_traps), "count",
               true});
  m.push_back({"kernel.remote_suspensions", static_cast<double>(pass_sim.remote_suspensions),
               "count", true});
  m.push_back({"kernel.suspension_timeouts", static_cast<double>(pass_sim.suspension_timeouts),
               "count", true});
  m.push_back({"kernel.ars_missed", static_cast<double>(pass_sim.ars_missed), "count", true});
  m.push_back({"runtime.fast_path_hits", static_cast<double>(pass_sim.fast_path_hits), "count",
               true});

  m.push_back({"detect.hb.events", static_cast<double>(pass_events), "count", true});
  m.push_back({"detect.hb.ms", Ms(spans.Ns("detect.hb")) * per_run, "ms"});
  m.push_back({"detect.hb.ns_per_event",
               Ratio(static_cast<double>(sink.ns), static_cast<double>(sink.calls)), "ns"});
  m.push_back({"detect.hb_share",
               Ratio(static_cast<double>(spans.Ns("detect.hb")), static_cast<double>(run_ns)),
               "fraction"});

  m.push_back({"exp.record_ms", Ms(spans.Ns("exp.record")) * per_run, "ms"});
  m.push_back({"exp.fuzz.candidate_ms",
               Ratio(Ms(spans.SelfNs("exp.fuzz")), static_cast<double>(schedules)), "ms"});
  m.push_back({"exp.fuzz.novel_ratio",
               Ratio(static_cast<double>(novel), static_cast<double>(pass_schedules)), "fraction",
               true});
  m.push_back({"exp.shrink.runs", static_cast<double>(shrink_runs), "count", true});
  m.push_back({"exp.shrink.ms",
               Ratio(Ms(spans.Ns("exp.shrink")), static_cast<double>(discoveries)), "ms"});
  m.push_back({"exp.shrink.kept_ratio",
               Ratio(static_cast<double>(kept), static_cast<double>(decisions)), "fraction",
               true});
  m.push_back({"exp.replay.ms",
               Ratio(Ms(spans.Ns("exp.replay")), static_cast<double>(spans.Count("exp.replay"))),
               "ms"});
  m.push_back({"exp.runner.idle_tail_ms", untraced.idle_tail_ms, "ms"});
  m.push_back({"bench.trace_overhead_pct",
               (Ratio(traced.elapsed_s, untraced.elapsed_s) - 1.0) * 100.0, "%"});
  return m;
}

// Spans as a Chrome trace (chrome://tracing, Perfetto): one row per worker,
// each event tagged with its job (run id) and parent span.
void WriteSpans(const std::filesystem::path& path, const std::vector<SpanLog>& setup_logs,
                const Phase& traced) {
  std::ofstream out(path);
  out << "{\"traceEvents\":[\n";
  bool first = true;
  auto emit = [&](const SpanLog& log, long run, unsigned tid, std::int64_t origin) {
    const std::vector<Span>& spans = log.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                    "\"dur\":%.3f,\"args\":{\"run\":%ld,\"span\":%zu,\"parent\":%d}}",
                    first ? "" : ",\n", s.name, tid, static_cast<double>(s.start_ns - origin) / 1e3,
                    static_cast<double>(s.end_ns - s.start_ns) / 1e3, run, i, s.parent);
      out << buf;
      first = false;
    }
  };
  std::int64_t origin = 0;
  for (const SpanLog& log : setup_logs) {
    if (!log.spans().empty() && origin == 0) {
      origin = log.spans().front().start_ns;
    }
  }
  for (const SpanLog& log : setup_logs) {
    emit(log, -1, 0, origin);
  }
  for (std::size_t i = 0; i < traced.jobs.size(); ++i) {
    emit(traced.jobs[i].spans, static_cast<long>(i), traced.worker_of[i] + 1, origin);
  }
  out << "\n]}\n";
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path out = ".bench_build/results";
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      throw std::runtime_error("missing value for " + flag);
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out") {
      args.out = value;
    } else {
      throw std::runtime_error("unknown flag " + flag);
    }
  }
  return args;
}

std::unique_ptr<Workload> MakeWorkload(const Args& args) {
  using kivati::OptimizationPreset;
  if (args.workload == "grid-c2" || args.workload == "grid-wide") {
    const bool wide = args.workload == "grid-wide";
    std::vector<GridWorkload::Config> configs = {{"vanilla", true, OptimizationPreset::kOptimized}};
    if (!wide) {
      configs.push_back({"base", false, OptimizationPreset::kBase});
    }
    configs.push_back({"optimized", false, OptimizationPreset::kOptimized});
    // grid-wide runs the apps at a smaller scale: an 8-core cell at the
    // default scale takes seconds, too few runs per measurement.
    return std::make_unique<GridWorkload>(
        args.seed, wide ? std::vector<unsigned>{4, 8} : std::vector<unsigned>{1, 2},
        std::move(configs), wide ? 30 : kivati::apps::LoadScale{}.iterations);
  }
  if (args.workload == "bughunt") {
    return std::make_unique<HuntWorkload>(args.seed, args.out / "artifacts");
  }
  if (args.workload == "compare") {
    return std::make_unique<CompareWorkload>(args.seed);
  }
  throw std::runtime_error("unknown workload '" + args.workload +
                           "' (grid-c2, grid-wide, bughunt, compare)");
}

constexpr std::size_t kSetupReps = 11;
constexpr double kSetupSeconds = 1.0;

unsigned Workers() { return std::clamp(std::thread::hardware_concurrency(), 1u, 4u); }

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  std::filesystem::create_directories(args.out);
  std::unique_ptr<Workload> workload = MakeWorkload(args);

  // Set-up, repeated in two windows, one before the timed phase and one
  // after it. In each window the main thread is pinned to every CPU it may
  // use in turn, for an equal share of kSetupSeconds and at least kSetupReps
  // set-ups. On a shared host one CPU can run slowly for seconds at a time;
  // setup_s is the fastest set-up, so it needs one CPU in one window to be
  // unhindered.
  std::vector<double> setup_s;
  std::vector<SpanLog> setup_logs;
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      cpus.push_back(cpu);
    }
  }
  const double per_cpu_s = kSetupSeconds / static_cast<double>(cpus.size());
  auto set_up = [&] {
    for (const int cpu : cpus) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      sched_setaffinity(0, sizeof(one), &one);
      const auto start = Clock::now();
      for (std::size_t reps = 0; reps < kSetupReps || SecondsSince(start) < per_cpu_s; ++reps) {
        SpanLog* log = args.trace ? &setup_logs.emplace_back() : nullptr;
        const auto rep_start = Clock::now();
        workload->Setup(log);
        setup_s.push_back(SecondsSince(rep_start));
      }
    }
    // Workers inherit the main thread's mask.
    sched_setaffinity(0, sizeof(allowed), &allowed);
  };
  set_up();

  // The traced run splits its time between the untraced phase and the
  // traced repeat of the same jobs.
  const Phase timed = RunPhase(*workload, Workers(), std::nullopt,
                               args.trace ? args.seconds / 2 : args.seconds, false);
  set_up();
  Phase traced;
  if (args.trace) {
    traced = RunPhase(*workload, Workers(), timed.jobs.size(), 0.0, true);
  }

  // Output checks: job errors, timed vs traced, and job 0 rerun alone.
  std::size_t attempted = 0;
  std::vector<std::string> failures;
  auto check_jobs = [&](const Phase& phase, const char* what) {
    for (std::size_t i = 0; i < phase.jobs.size(); ++i) {
      ++attempted;
      if (!phase.jobs[i].error.empty()) {
        failures.push_back(std::string(what) + " job " + std::to_string(i) + ": " +
                           phase.jobs[i].error);
      }
    }
  };
  check_jobs(timed, "timed");
  // Every pass repeats the same work, so each job must equal its cell's
  // job in pass 0.
  const std::size_t pass_size = workload->pass_size();
  for (std::size_t i = pass_size; i < timed.jobs.size(); ++i) {
    ++attempted;
    if (timed.jobs[i].digest != timed.jobs[i % pass_size].digest) {
      failures.push_back("job " + std::to_string(i) + ": diverged from job " +
                         std::to_string(i % pass_size) + " of pass 0");
    }
  }
  if (args.trace) {
    check_jobs(traced, "traced");
    for (std::size_t i = 0; i < timed.jobs.size(); ++i) {
      ++attempted;
      if (traced.jobs[i].digest != timed.jobs[i].digest) {
        failures.push_back("job " + std::to_string(i) + ": traced run diverged from timed run");
      }
    }
  }
  ++attempted;
  try {
    if (std::hash<std::string>{}(workload->Run(0, nullptr).output) != timed.jobs[0].digest) {
      failures.push_back("job 0: one-worker rerun diverged from timed run");
    }
  } catch (const std::exception& e) {
    failures.push_back(std::string("job 0 rerun: ") + e.what());
  }
  const Summary summary = workload->Summarize(timed.jobs, timed.elapsed_s);
  attempted += summary.checks;
  failures.insert(failures.end(), summary.failures.begin(), summary.failures.end());

  // End-to-end metrics over the timed phase. The gated ones take each
  // cell's fastest repetition across passes: on a shared host the speed of a
  // core drifts by up to 2x within minutes, and the best of several
  // repetitions of the same deterministic work is what stays put.
  std::uint64_t engine_runs = 0;
  std::uint64_t instructions = 0;
  std::int64_t run_ns = 0;
  std::vector<double> run_ms;
  std::map<std::size_t, TimedRun> fastest_run;  // by Engine::Run time
  std::map<std::size_t, double> fastest_ms;      // by spec-to-record time
  for (const JobResult& job : timed.jobs) {
    engine_runs += job.engine_runs;
    for (const TimedRun& r : job.runs) {
      instructions += r.instructions;
      run_ns += r.run_ns;
      run_ms.push_back(r.ms);
      const auto it = fastest_run.find(r.cell);
      if (it == fastest_run.end() || r.run_ns < it->second.run_ns) {
        fastest_run[r.cell] = r;
      }
      const auto ms = fastest_ms.find(r.cell);
      fastest_ms[r.cell] = ms == fastest_ms.end() ? r.ms : std::min(ms->second, r.ms);
    }
  }
  std::uint64_t best_instructions = 0;
  std::int64_t best_run_ns = 0;
  for (const auto& [cell, r] : fastest_run) {
    best_instructions += r.instructions;
    best_run_ns += r.run_ns;
  }
  std::vector<double> best_ms;
  for (const auto& [cell, ms] : fastest_ms) {
    best_ms.push_back(ms);
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const std::vector<Metric> e2e = {
      {"setup_s", *std::min_element(setup_s.begin(), setup_s.end()), "s"},
      {"sim_mips_best",
       Ratio(static_cast<double>(best_instructions), static_cast<double>(best_run_ns) / 1e3),
       "Minstr/s"},
      {"run_ms_best_p50", Median(best_ms), "ms"},
      {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB"},
  };
  std::vector<Metric> extra = {
      {"runs_per_s", Ratio(static_cast<double>(engine_runs), timed.elapsed_s), "runs/s"},
      {"sim_mips", Ratio(static_cast<double>(instructions), static_cast<double>(run_ns) / 1e3),
       "Minstr/s"},
      {"run_ms_p50", Median(run_ms), "ms"},
  };
  if (run_ms.size() >= 100) {
    extra.push_back({"run_ms_p90", Percentile(run_ms, 0.9), "ms"});
  }
  extra.push_back({"error_rate",
                   Ratio(static_cast<double>(failures.size()), static_cast<double>(attempted)),
                   "fraction"});
  extra.insert(extra.end(), summary.metrics.begin(), summary.metrics.end());

  std::printf("perfbench %s: seed %llu, %u worker(s), %.1f s timed, %zu job(s), %llu engine "
              "run(s), %zu timed run(s)\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), Workers(),
              timed.elapsed_s, timed.jobs.size(), static_cast<unsigned long long>(engine_runs),
              run_ms.size());
  std::printf("set-up: %zu repetition(s) on %zu CPU(s), fastest %.3f ms, median %.3f ms\n",
              setup_s.size(), cpus.size(), e2e[0].value * 1e3, Median(setup_s) * 1e3);
  PrintTable("end-to-end (gated)", e2e);
  PrintTable("end-to-end (reported)", extra);
  for (const std::string& note : summary.notes) {
    std::printf("  note: %s\n", note.c_str());
  }
  std::vector<Metric> layers;
  if (args.trace) {
    layers = LayerMetrics(setup_logs, workload->blocks(), timed, traced, workload->pass_size());
    PrintTable("per-layer (traced run)", layers);
    WriteSpans(args.out / (args.workload + "-s" + std::to_string(args.seed) + "-spans.json"),
               setup_logs, traced);
  }
  for (const std::string& f : failures) {
    std::printf("  FAILED: %s\n", f.c_str());
  }

  const std::string head = "{\"correct\": " + std::string(failures.empty() ? "true" : "false") +
                           ", \"attempted\": " + std::to_string(attempted) +
                           ", \"failed\": " + std::to_string(failures.size()) + ", \"metrics\": ";
  std::vector<Metric> all = e2e;
  all.insert(all.end(), extra.begin(), extra.end());
  all.insert(all.end(), layers.begin(), layers.end());
  std::ofstream(args.out / (args.workload + "-s" + std::to_string(args.seed) + "-t" +
                            (args.trace ? "1" : "0") + ".json"))
      << head << MetricsJson(all) << "}\n";
  std::printf("%s%s}\n", head.c_str(), MetricsJson(args.trace ? layers : e2e).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
