// Block-engine transparency across the configuration space the round
// executor (exec/block_exec.cc) has special code for: core counts 1-8,
// idle cores parked with and without hooks, quantum expiries inside a
// round, trap-before delivery and watchpoint counts (which set the armed
// hull each fused memory op is tested against); and under schedule
// controllers and access-level sinks, which run fused (docs/performance.md,
// "Deopt triggers"): strict replay, loose (shrunk) replay, guided PCT and
// bounded-preemption fuzzing, and the happens-before oracle, at up to eight
// cores. The workloads are corpus bugs, registered apps and randomly
// generated mini-C programs (tests/program_generator.h). Each case runs once
// with block translation on and once on the per-instruction loop, the
// oracle, and must produce byte-identical RunRecord JSON (modulo wall
// clock), the same ScheduleTrace and the same access-event stream. The block
// side must actually have run fused.
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/common.h"
#include "exp/run_record.h"
#include "exp/run_spec.h"
#include "exp/runner.h"
#include "sched/fuzz_strategy.h"
#include "tests/program_generator.h"
#include "trace/event_log.h"
#include "trace/sink.h"

namespace kivati {
namespace {

enum class Mode { kPlain, kStrictReplay, kLooseReplay, kGuidedPct, kGuidedPreempt, kHbDetector };

const char* ModeName(Mode mode) {
  switch (mode) {
    case Mode::kPlain: return "plain";
    case Mode::kStrictReplay: return "strict_replay";
    case Mode::kLooseReplay: return "loose_replay";
    case Mode::kGuidedPct: return "guided_pct";
    case Mode::kGuidedPreempt: return "guided_preempt";
    case Mode::kHbDetector: return "hb_detector";
  }
  return "?";
}

struct Case {
  // A corpus bug ("APP-ID"), a registered app, or "gen<seed>" for a
  // generated program (with `program_seed` set).
  std::string workload;
  unsigned cores;
  Mode mode;
  TrapDelivery trap = TrapDelivery::kAfter;
  KivatiMode kivati = KivatiMode::kBugFinding;  // apps always run in prevention
  bool vanilla = false;
  OptimizationPreset preset = OptimizationPreset::kOptimized;  // apps only
  Cycles quantum = MachineConfig{}.quantum;
  unsigned watchpoints = MachineConfig{}.watchpoints_per_core;
  std::uint64_t program_seed = 0;  // ProgramGenerator seed; 0 = not generated
};

// Registered apps and generated programs run in prevention mode under a
// preset or vanilla; corpus bugs choose their usage mode.
bool IsApp(const Case& c) { return c.workload.find('-') == std::string::npos; }

// "MySQL-38883 c4 guided_pct", plus whatever departs from the defaults.
void PrintTo(const Case& c, std::ostream* os) {
  *os << c.workload << " c" << c.cores << " " << ModeName(c.mode);
  if (IsApp(c)) {
    *os << " " << (c.vanilla ? "vanilla" : exp::ToString(c.preset));
  } else if (c.kivati == KivatiMode::kPrevention) {
    *os << " prevention";
  }
  if (c.trap == TrapDelivery::kBefore) {
    *os << " trap-before";
  }
  if (c.quantum != MachineConfig{}.quantum) {
    *os << " q" << c.quantum;
  }
  if (c.watchpoints != MachineConfig{}.watchpoints_per_core) {
    *os << " w" << c.watchpoints;
  }
}

// The test-name form of PrintTo: "MySQL_38883_c4_guided_pct".
std::string CaseName(const Case& c) {
  std::ostringstream os;
  PrintTo(c, &os);
  std::string name = os.str();
  for (char& ch : name) {
    if (ch == '-' || ch == ' ') {
      ch = '_';
    }
  }
  return name;
}

exp::RunSpec BaseSpec(const Case& c) {
  exp::RunSpec spec;
  if (c.program_seed != 0) {
    // Three workers running one random program, as in property_test.
    spec.prebuilt = std::make_shared<const apps::App>(apps::AssembleApp(
        c.workload, testing::ProgramGenerator(c.program_seed).Generate(), "worker", 3));
    spec.vanilla = c.vanilla;
    spec.preset = c.preset;
    spec.mode = KivatiMode::kPrevention;
  } else if (IsApp(c)) {
    // Four workers, so eight cores leave idle ones: parked without hooks
    // (vanilla) and behind IdleSyncIsNoOp (optimized).
    spec.app = c.workload;
    spec.scale.workers = 4;
    spec.scale.iterations = 20;
    spec.vanilla = c.vanilla;
    spec.preset = c.preset;
    spec.mode = KivatiMode::kPrevention;
  } else {
    spec.bug = c.workload;
    spec.mode = c.kivati;
    spec.pause_ms = 50.0;
    // Every bug-finding case still violates and makes multi-way decisions
    // at this budget.
    spec.budget = 3'000'000;
  }
  spec.machine.seed = 17;
  spec.machine.num_cores = c.cores;
  spec.machine.trap_delivery = c.trap;
  spec.machine.quantum = c.quantum;
  spec.machine.watchpoints_per_core = c.watchpoints;
  return spec;
}

// Every access-level event, one line each.
struct AccessLog : TraceSink {
  std::vector<std::string> lines;
  std::uint32_t wants_mask() const override { return kAccessEventKinds; }
  void OnEvent(const TraceEvent& e) override {
    lines.push_back(std::to_string(e.when) + "/" + ToString(e.kind) + "/t" +
                    std::to_string(e.thread) + "/a" + std::to_string(e.addr) + "/pc" +
                    std::to_string(e.pc) + "/d" + std::to_string(e.detail) + "/v" +
                    std::to_string(e.value));
  }
};

struct Outcome {
  std::string json;
  // Recorded decisions (guided and recording runs) or the replayed trace.
  ScheduleTrace schedule;
  std::size_t decisions_consumed = 0;
  std::size_t checkpoints_consumed = 0;
  std::vector<std::string> events;
  std::uint64_t fused = 0;
};

Outcome RunOnce(exp::RunSpec spec, bool block_translate) {
  spec.machine.block_translate = block_translate;
  AccessLog log;
  exp::BuiltRun built = exp::BuildEngine(spec);
  if (spec.hb_detector) {
    built.engine->trace().hub().Attach(&log);
  }
  const RunResult result = built.engine->Run(spec.budget);
  Outcome out;
  out.json = exp::ToJson(exp::MakeRecord(spec, *built.app, *built.engine, result, built.hb.get()),
                         /*include_wall_clock=*/false);
  const ScheduleController* ctl = built.engine->schedule_controller();
  if (ctl != nullptr) {
    EXPECT_NO_THROW(ctl->VerifyFullyConsumed());
    out.schedule = ctl->trace();
    out.decisions_consumed = ctl->decisions_consumed();
    out.checkpoints_consumed = ctl->checkpoints_consumed();
  }
  out.events = std::move(log.lines);
  out.fused = built.engine->machine().fused_instructions();
  return out;
}

class FusedModesTest : public ::testing::TestWithParam<Case> {};

TEST_P(FusedModesTest, BlockMatchesPerInstruction) {
  const Case& c = GetParam();
  exp::RunSpec spec = BaseSpec(c);
  switch (c.mode) {
    case Mode::kPlain:
      break;
    case Mode::kStrictReplay:
    case Mode::kLooseReplay: {
      exp::RunSpec record = spec;
      record.record_schedule = true;
      record.machine.block_translate = false;
      const exp::RunRecord recorded = exp::Execute(record);
      ASSERT_TRUE(recorded.error.empty()) << recorded.error;
      ASSERT_NE(recorded.schedule, nullptr);
      auto trace = std::make_shared<ScheduleTrace>(*recorded.schedule);
      if (c.mode == Mode::kLooseReplay) {
        // A shrunk-style trace: every other decision, consumed as a loose
        // choice stream that falls back once exhausted.
        std::vector<SchedDecision> kept;
        for (std::size_t i = 0; i < trace->decisions.size(); i += 2) {
          kept.push_back(trace->decisions[i]);
        }
        trace->decisions = std::move(kept);
        trace->checkpoints.clear();
        trace->shrunk = true;
      }
      spec.replay_schedule = trace;
      break;
    }
    case Mode::kGuidedPct:
    case Mode::kGuidedPreempt: {
      auto guided = std::make_shared<GuidedSchedule>();
      guided->kind = c.mode == Mode::kGuidedPct ? FuzzStrategyKind::kPct
                                                : FuzzStrategyKind::kPreempt;
      guided->seed = 99;
      spec.guided_schedule = guided;
      break;
    }
    case Mode::kHbDetector:
      spec.hb_detector = true;
      spec.record_schedule = true;
      break;
  }

  const Outcome block = RunOnce(spec, /*block_translate=*/true);
  const Outcome ref = RunOnce(spec, /*block_translate=*/false);
  EXPECT_EQ(block.json, ref.json);
  EXPECT_EQ(block.schedule.decisions, ref.schedule.decisions);
  EXPECT_EQ(block.schedule.checkpoints, ref.schedule.checkpoints);
  EXPECT_EQ(block.decisions_consumed, ref.decisions_consumed);
  EXPECT_EQ(block.checkpoints_consumed, ref.checkpoints_consumed);
  EXPECT_EQ(block.events, ref.events);
  if (c.mode == Mode::kHbDetector) {
    EXPECT_FALSE(block.events.empty()) << "the oracle saw no shared access";
  }
  EXPECT_GT(block.fused, 0u) << "the block engine never engaged";
  EXPECT_EQ(ref.fused, 0u);
}

// The rounds must leave exactly the state the per-instruction loop has at
// the same pick, including the parked cores' closed-form clocks and the
// last core the hooks saw (executing_core(), which timeout handlers read
// outside any instruction). Stopping both engines at every multiple of an
// odd cycle step compares that state at hundreds of cycle-cap stops, where
// with four workers on eight cores the last core to act is a parked one.
TEST(FusedStopStateTest, CycleCapStopsMatchPerInstruction) {
  constexpr Cycles kStep = 997;
  for (const char* app : {"nss", "vlc"}) {
    for (const unsigned cores : {3u, 8u}) {
      for (const bool vanilla : {true, false}) {
        const Case c{.workload = app, .cores = cores, .mode = Mode::kPlain, .vanilla = vanilla};
        exp::RunSpec spec = BaseSpec(c);
        spec.machine.block_translate = true;
        exp::BuiltRun block = exp::BuildEngine(spec);
        spec.machine.block_translate = false;
        exp::BuiltRun ref = exp::BuildEngine(spec);
        Machine& mb = block.engine->machine();
        Machine& mr = ref.engine->machine();
        for (Cycles cap = kStep;; cap += kStep) {
          const RunResult a = block.engine->Run(cap);
          const RunResult b = ref.engine->Run(cap);
          const std::string where = CaseName(c) + " at cap " + std::to_string(cap);
          ASSERT_EQ(a.cycles, b.cycles) << where;
          ASSERT_EQ(a.instructions, b.instructions) << where;
          ASSERT_EQ(a.all_done, b.all_done) << where;
          ASSERT_EQ(mb.executing_core(), mr.executing_core()) << where;
          ASSERT_EQ(mb.num_threads(), mr.num_threads()) << where;
          for (ThreadId tid = 0; tid < mb.num_threads(); ++tid) {
            ASSERT_EQ(mb.thread(tid).pc, mr.thread(tid).pc) << where << " t" << tid;
            ASSERT_EQ(mb.thread(tid).cpu_cycles, mr.thread(tid).cpu_cycles) << where << " t" << tid;
          }
          if (a.all_done || a.deadlocked) {
            break;
          }
        }
        EXPECT_GT(mb.fused_instructions(), 0u) << CaseName(c);
      }
    }
  }
}

std::vector<Case> AllCases() {
  std::vector<Case> cases;
  for (const char* bug : {"NSS-329072", "MySQL-38883"}) {
    for (const unsigned cores : {1u, 2u, 4u}) {
      for (const Mode mode : {Mode::kStrictReplay, Mode::kLooseReplay, Mode::kGuidedPct,
                              Mode::kGuidedPreempt, Mode::kHbDetector}) {
        cases.push_back({bug, cores, mode});
      }
    }
    // Above four cores: a replaying and a guided controller, and the oracle.
    for (const Mode mode : {Mode::kStrictReplay, Mode::kGuidedPct, Mode::kHbDetector}) {
      cases.push_back({bug, 8, mode});
    }
    // No controller, in both usage modes, at every core count the round
    // executor treats alike.
    for (const unsigned cores : {1u, 2u, 3u, 4u, 8u}) {
      for (const KivatiMode kivati : {KivatiMode::kBugFinding, KivatiMode::kPrevention}) {
        cases.push_back({.workload = bug, .cores = cores, .mode = Mode::kPlain, .kivati = kivati});
      }
    }
  }
  // Vanilla, and both Table-3 presets: base takes a kernel crossing at
  // every annotation, optimized adds the fast path and whitelists
  // sync-variable regions.
  for (const char* app : {"nss", "vlc"}) {
    for (const unsigned cores : {1u, 2u, 3u, 4u, 8u}) {
      cases.push_back({.workload = app, .cores = cores, .mode = Mode::kPlain, .vanilla = true});
      for (const auto preset : {OptimizationPreset::kBase, OptimizationPreset::kOptimized}) {
        cases.push_back(
            {.workload = app, .cores = cores, .mode = Mode::kPlain, .preset = preset});
      }
    }
  }
  // Random mini-C programs: globals, arrays and a lock shared by three
  // workers, with reads, writes and branches the corpus does not shape.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (const unsigned cores : {1u, 2u, 4u, 8u}) {
      for (const bool vanilla : {true, false}) {
        cases.push_back({.workload = "gen" + std::to_string(seed), .cores = cores,
                         .mode = Mode::kPlain, .vanilla = vanilla, .program_seed = seed});
      }
    }
  }
  // Fewer and more watchpoint registers than x86's four: the armed hull
  // every fused memory op is tested against narrows and widens. TPC-W is
  // where the hull is loosest: some of its ops leave fused code although
  // no single armed slot overlaps them.
  for (const unsigned watchpoints : {2u, 8u}) {
    for (const char* app : {"tpcw", "nss"}) {
      cases.push_back({.workload = app, .cores = 2, .mode = Mode::kPlain,
                       .watchpoints = watchpoints});
    }
    for (const char* bug : {"NSS-329072", "MySQL-38883"}) {
      cases.push_back({.workload = bug, .cores = 2, .mode = Mode::kPlain,
                       .watchpoints = watchpoints});
    }
  }
  // Trap-before hardware cancels the trapping access instead of undoing it;
  // the oracle must still see exactly the committed accesses.
  cases.push_back({"NSS-329072", 2, Mode::kHbDetector, TrapDelivery::kBefore});
  cases.push_back({"NSS-329072", 8, Mode::kPlain, TrapDelivery::kBefore});
  // A quantum that is not a multiple of anything: expiries land mid-round.
  cases.push_back({.workload = "nss", .cores = 4, .mode = Mode::kPlain, .quantum = 97});
  // Generated programs under the short quantum, which forces a Reschedule
  // (run per instruction, outside the rounds) every 97 cycles; under a
  // strict and a loose replay and a guided controller; with fewer and more
  // watchpoint registers; and with trap-before delivery. Their calls push
  // each op's next_pc, and their returns look the target op up in the
  // program's PC table.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const std::string name = "gen" + std::to_string(seed);
    cases.push_back({.workload = name, .cores = 4, .mode = Mode::kPlain, .quantum = 97,
                     .program_seed = seed});
    for (const unsigned cores : {2u, 4u}) {
      for (const Mode mode : {Mode::kStrictReplay, Mode::kLooseReplay, Mode::kGuidedPct}) {
        cases.push_back({.workload = name, .cores = cores, .mode = mode, .program_seed = seed});
      }
      for (const unsigned watchpoints : {2u, 8u}) {
        cases.push_back({.workload = name, .cores = cores, .mode = Mode::kPlain,
                         .watchpoints = watchpoints, .program_seed = seed});
      }
      cases.push_back({.workload = name, .cores = cores, .mode = Mode::kPlain,
                       .trap = TrapDelivery::kBefore, .program_seed = seed});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(CorpusModes, FusedModesTest, ::testing::ValuesIn(AllCases()),
                         [](const ::testing::TestParamInfo<Case>& info) {
                           return CaseName(info.param);
                         });

}  // namespace
}  // namespace kivati
