// Violation records, trace events and runtime counters.
//
// When Kivati detects a non-serializable interleaving it records exactly the
// information the paper lists in §2.2: the thread IDs and program counters of
// the two local accesses, and the thread ID, program counter and access type
// of the violating remote access, plus the shared variable's address.
#ifndef KIVATI_TRACE_TRACE_H_
#define KIVATI_TRACE_TRACE_H_

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/types.h"
#include "trace/event_log.h"
#include "trace/histogram.h"
#include "trace/sink.h"

namespace kivati {

// One detected atomicity violation.
struct ViolationRecord {
  ArId ar_id = kInvalidAr;
  Addr addr = kInvalidAddr;      // shared variable address
  unsigned size = 0;

  ThreadId local_thread = kInvalidThread;
  ProgramCounter first_pc = 0;   // first local access (the begin_atomic site)
  AccessType first = AccessType::kRead;
  ProgramCounter second_pc = 0;  // second local access (the end_atomic site)
  AccessType second = AccessType::kRead;

  ThreadId remote_thread = kInvalidThread;
  ProgramCounter remote_pc = 0;  // violating access
  AccessType remote = AccessType::kRead;

  Cycles when = 0;
  // False if the 10 ms suspension timeout expired before end_atomic, i.e.
  // the violation was detected but could not be prevented (paper §2.2).
  bool prevented = true;
};

std::string ToString(const ViolationRecord& record);

// The Figure-2 interleaving pattern of a violation, local-remote-local, as
// "R-W-W" etc. The ONE canonical formatting: reports, the repro shrinker's
// target match and the fuzzer's dedup key all call this (a regression test
// keeps them agreeing — see fuzz_test).
std::string ViolationPattern(const ViolationRecord& v);

// Application-emitted trace marks (SYS_MARK), used by the latency harness.
struct MarkEvent {
  Cycles when = 0;
  ThreadId thread = kInvalidThread;
  std::int64_t tag = 0;
  std::uint64_t value = 0;
};

// Counters maintained by the runtime and kernel. All are cumulative per run.
struct RuntimeStats {
  // Annotation executions (regardless of whether they entered the kernel).
  std::uint64_t begin_atomic_calls = 0;
  std::uint64_t end_atomic_calls = 0;
  std::uint64_t clear_ar_calls = 0;

  // Domain crossings into the (simulated) kernel, by cause. The paper's
  // Table 4 reports the sum of these in thousands per second.
  std::uint64_t kernel_entries_begin = 0;
  std::uint64_t kernel_entries_end = 0;
  std::uint64_t kernel_entries_clear = 0;
  std::uint64_t kernel_entries_trap = 0;

  std::uint64_t watchpoint_traps = 0;       // remote accesses that trapped
  std::uint64_t violations_detected = 0;
  std::uint64_t violations_prevented = 0;

  std::uint64_t ars_entered = 0;            // begin_atomic reaching the kernel path
  std::uint64_t ars_missed = 0;             // no free watchpoint (Table 8)
  std::uint64_t ars_whitelisted = 0;        // filtered before entering the kernel
  std::uint64_t ars_timeout_bypassed = 0;   // begin released by a suspension timeout
                                            // proceeded unmonitored (liveness)

  std::uint64_t remote_suspensions = 0;     // threads suspended to reorder
  std::uint64_t suspension_timeouts = 0;    // 10 ms timeout expirations
  std::uint64_t unreorderable_accesses = 0; // read-into-memory, no spare watchpoint
  std::uint64_t bugfinding_pauses = 0;

  // Kernel trips avoided by the user-space fast path (optimizations 1-2).
  std::uint64_t fast_path_begin = 0;
  std::uint64_t fast_path_end = 0;
  std::uint64_t fast_path_clear = 0;

  // Static annotation census (set once per run from the compiler's conflict
  // analysis, not incremented): how many ARs the annotator produced, their
  // verdicts, and how many were pruned from the generated code.
  std::uint64_t ars_annotated = 0;
  std::uint64_t ars_no_remote_writer = 0;
  std::uint64_t ars_lock_protected = 0;
  std::uint64_t ars_watch_required = 0;
  std::uint64_t ars_pruned = 0;

  // Duration distributions (cycles). Always recorded: a histogram update is
  // an array increment, far below the cost of the events being measured.
  CycleHistogram suspension_latency;  // SuspendRemote -> wake
  CycleHistogram ar_duration;         // begin_atomic -> end_atomic/clear_ar
  CycleHistogram sync_stall;          // cross-core register-sync block

  std::uint64_t kernel_entries_total() const {
    return kernel_entries_begin + kernel_entries_end + kernel_entries_clear + kernel_entries_trap;
  }
};

// Collected output of one simulated run.
class Trace {
 public:
  void AddViolation(const ViolationRecord& record) { violations_.push_back(record); }
  void AddMark(const MarkEvent& event) { marks_.push_back(event); }

  const std::vector<ViolationRecord>& violations() const { return violations_; }
  const std::vector<MarkEvent>& marks() const { return marks_; }

  // The paper's false-positive metric (§4.2): the number of *unique* atomic
  // regions that suffered at least one violation, regardless of how many
  // violations each participated in.
  std::size_t UniqueViolatingArs() const;

  // Unique violating ARs excluding those in `known_buggy` — i.e. the paper's
  // false positives once real bugs are accounted for.
  std::size_t UniqueViolatingArsExcluding(const std::unordered_set<ArId>& known_buggy) const;

  RuntimeStats& stats() { return stats_; }
  const RuntimeStats& stats() const { return stats_; }

  // Structured event stream (disabled unless EventLog::Enable was called).
  // The ring is one sink on the hub; emit sites go through hub().
  EventLog& events() { return events_; }
  const EventLog& events() const { return events_; }

  // The observer fan-out all runtime/kernel/machine emit sites go through.
  // Detector backends attach here (docs/detectors.md).
  TraceHub& hub() { return hub_; }
  const TraceHub& hub() const { return hub_; }

  void Clear();

  Trace() { hub_.Attach(&events_); }
  // Sinks attach to a hub by identity, so moving a Trace re-attaches its own
  // ring to its own (fresh) hub. Externally attached sinks (detector
  // backends) do NOT follow a move — owners re-attach after moving the
  // machine, as BuildEngine does.
  Trace(Trace&& other) noexcept
      : violations_(std::move(other.violations_)),
        marks_(std::move(other.marks_)),
        stats_(std::move(other.stats_)),
        events_(std::move(other.events_)) {
    hub_.Attach(&events_);
  }
  Trace& operator=(Trace&& other) noexcept {
    violations_ = std::move(other.violations_);
    marks_ = std::move(other.marks_);
    stats_ = std::move(other.stats_);
    events_ = std::move(other.events_);  // ring contents; attachment stays ours
    hub_.RefreshMask();
    return *this;
  }
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

 private:
  std::vector<ViolationRecord> violations_;
  std::vector<MarkEvent> marks_;
  RuntimeStats stats_;
  TraceHub hub_;
  EventLog events_;
};

}  // namespace kivati

#endif  // KIVATI_TRACE_TRACE_H_
