// Block-engine transparency under schedule controllers and access-level
// sinks, which run fused (docs/performance.md, "Deopt triggers"): strict
// replay, loose (shrunk) replay, guided PCT and bounded-preemption fuzzing,
// and the happens-before oracle. Each case runs once with block translation
// on and once off, over two corpus bugs at 1, 2 and 4 cores plus one
// trap-before case, and must produce byte-identical RunRecord JSON (modulo
// wall clock), the same ScheduleTrace and the same access-event stream. The
// block side must actually have run fused.
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "exp/run_record.h"
#include "exp/run_spec.h"
#include "exp/runner.h"
#include "sched/fuzz_strategy.h"
#include "trace/event_log.h"
#include "trace/sink.h"

namespace kivati {
namespace {

enum class Mode { kStrictReplay, kLooseReplay, kGuidedPct, kGuidedPreempt, kHbDetector };

const char* ModeName(Mode mode) {
  switch (mode) {
    case Mode::kStrictReplay: return "strict_replay";
    case Mode::kLooseReplay: return "loose_replay";
    case Mode::kGuidedPct: return "guided_pct";
    case Mode::kGuidedPreempt: return "guided_preempt";
    case Mode::kHbDetector: return "hb_detector";
  }
  return "?";
}

struct Case {
  std::string bug;
  unsigned cores;
  Mode mode;
  TrapDelivery trap = TrapDelivery::kAfter;
};

void PrintTo(const Case& c, std::ostream* os) {
  *os << c.bug << " c" << c.cores << " " << ModeName(c.mode)
      << (c.trap == TrapDelivery::kBefore ? " trap-before" : "");
}

exp::RunSpec BaseSpec(const Case& c) {
  exp::RunSpec spec;
  spec.bug = c.bug;
  spec.mode = KivatiMode::kBugFinding;
  spec.pause_ms = 50.0;
  spec.machine.seed = 17;
  spec.machine.num_cores = c.cores;
  spec.machine.trap_delivery = c.trap;
  // Every case still violates and makes multi-way decisions at this budget.
  spec.budget = 3'000'000;
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

std::vector<Case> AllCases() {
  std::vector<Case> cases;
  for (const char* bug : {"NSS-329072", "MySQL-38883"}) {
    for (const unsigned cores : {1u, 2u, 4u}) {
      for (const Mode mode : {Mode::kStrictReplay, Mode::kLooseReplay, Mode::kGuidedPct,
                              Mode::kGuidedPreempt, Mode::kHbDetector}) {
        cases.push_back({bug, cores, mode});
      }
    }
  }
  // Trap-before hardware cancels the trapping access instead of undoing it;
  // the oracle must still see exactly the committed accesses.
  cases.push_back({"NSS-329072", 2, Mode::kHbDetector, TrapDelivery::kBefore});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    CorpusModes, FusedModesTest, ::testing::ValuesIn(AllCases()),
    [](const ::testing::TestParamInfo<Case>& info) {
      std::string name = info.param.bug + "_c" + std::to_string(info.param.cores) + "_" +
                         ModeName(info.param.mode);
      if (info.param.trap == TrapDelivery::kBefore) {
        name += "_trap_before";
      }
      for (char& ch : name) {
        if (ch == '-') {
          ch = '_';
        }
      }
      return name;
    });

}  // namespace
}  // namespace kivati
