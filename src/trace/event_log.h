// Structured, cycle-stamped event tracing.
//
// Trace-based tools (RegionTrack, rr) show that a cheap structured event
// stream is the substrate for both correctness debugging and performance
// analysis; this module adds that layer to the reproduction. Every
// interesting runtime/kernel transition — annotations with the path they
// took, watchpoint arms, traps, suspensions and wakes, undos, guard
// lifetimes, timeouts, cross-core sync stalls, violations, context
// switches — can be emitted into a bounded ring buffer and exported as
// JSONL or as a Chrome trace_event file for chrome://tracing / Perfetto.
//
// The log is disabled by default and costs nothing when disabled: no
// allocation happens until Enable(), and every emit site is guarded by
// Wants(kind), a mask test against two scalar members.
#ifndef KIVATI_TRACE_EVENT_LOG_H_
#define KIVATI_TRACE_EVENT_LOG_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "trace/sink.h"

namespace kivati {

enum class EventKind : std::uint8_t {
  kBeginAtomic = 0,    // annotation; detail = PathTaken
  kEndAtomic,          // annotation; detail = PathTaken
  kClearAr,            // annotation; detail = PathTaken
  kWatchpointArm,      // slot armed; detail = WatchType
  kWatchpointDisarm,   // slot disarmed
  kTrap,               // watchpoint trap; detail = AccessType
  kSuspend,            // remote thread suspended; detail = SuspendReason
  kWake,               // suspended thread resumed; duration = suspension latency
  kUndo,               // remote access rolled back
  kGuardArm,           // leaked-value guard armed
  kGuardRelease,       // guard released
  kSuspensionTimeout,  // 10 ms suspension timeout expired
  kSyncStall,          // begin_atomic blocked on cross-core register sync;
                       // duration = stall length
  kViolation,          // atomicity violation logged; detail = prevented
  kContextSwitch,      // core switched threads; detail = previous thread
  // Access-level kinds (appended so the transition kinds above keep their
  // ordinal values). These feed the watchpoint-free detector backends
  // (src/detect, docs/detectors.md) and are opt-in: the empty --trace-events
  // default excludes them, and emitting them sends every instruction that
  // touches shared data through the per-instruction access-list path.
  kSharedRead,         // committed read of shared data; detail = packed
                       //   size/atomicity (PackAccessDetail), value = read
  kSharedWrite,        // committed write of shared data; value = written
  kThreadSpawn,        // spawn syscall; thread = parent, detail = child tid
  kThreadJoin,         // join completed; thread = joiner, detail = target tid
  kCount_,             // sentinel, not a kind
};

inline constexpr unsigned kEventKindCount = static_cast<unsigned>(EventKind::kCount_);
inline constexpr std::uint32_t kAllEventKinds = (std::uint32_t{1} << kEventKindCount) - 1;
// The PR 1 kinds: runtime/kernel transitions, everything before kSharedRead.
inline constexpr std::uint32_t kTransitionEventKinds =
    (std::uint32_t{1} << static_cast<unsigned>(EventKind::kSharedRead)) - 1;
// The per-access kinds whose emission requires the interpreter to build the
// access list of every instruction touching shared data (sched/machine.cc
// and exec/block_exec.cc gate on this group).
inline constexpr std::uint32_t kAccessEventKinds =
    (std::uint32_t{1} << static_cast<unsigned>(EventKind::kSharedRead)) |
    (std::uint32_t{1} << static_cast<unsigned>(EventKind::kSharedWrite));
inline constexpr std::uint32_t kEventKindBit(EventKind kind) {
  return std::uint32_t{1} << static_cast<unsigned>(kind);
}

const char* ToString(EventKind kind);
std::optional<EventKind> EventKindFromName(const std::string& name);

// Parses a comma-separated kind list ("trap,suspend,violation") into a mask.
// Returns nullopt (and names the bad token in *error if given) on an unknown
// kind. Group tokens: "all" (every kind), "transitions" (the PR 1 kinds),
// "access" (shared_read + shared_write). An empty string means the
// transition kinds — the pre-access-event default, so existing --trace-out
// users see unchanged output.
std::optional<std::uint32_t> ParseEventKindMask(const std::string& csv,
                                                std::string* error = nullptr);

// detail encoding for kSharedRead/kSharedWrite: access size in the low byte,
// bit 8 set when the access is one half of an atomic read-modify-write
// (kXchg — how locks are acquired).
inline constexpr std::uint32_t PackAccessDetail(unsigned size, bool atomic_rmw) {
  return (size & 0xffu) | (atomic_rmw ? 0x100u : 0u);
}
inline constexpr unsigned AccessDetailSize(std::uint32_t detail) { return detail & 0xffu; }
inline constexpr bool AccessDetailAtomic(std::uint32_t detail) {
  return (detail & 0x100u) != 0;
}

// One traced event. Fields not meaningful for a kind keep their defaults and
// are omitted from exports.
struct TraceEvent {
  Cycles when = 0;
  EventKind kind = EventKind::kBeginAtomic;
  ThreadId thread = kInvalidThread;
  ArId ar = kInvalidAr;
  Addr addr = kInvalidAddr;
  ProgramCounter pc = 0;
  std::int32_t slot = -1;      // watchpoint slot, or core for context switches
  std::uint32_t detail = 0;    // kind-specific code, see EventKind comments
  Cycles duration = 0;         // kWake / kSyncStall: measured duration
  std::uint64_t value = 0;     // kSharedRead/kSharedWrite: value read/written
};

// The canonical ring-buffer sink: bounded retention plus the JSONL / Chrome
// trace exporters. Usable standalone (unit tests) or attached to a TraceHub,
// in which case Enable/Disable update the hub's cached mask union.
class EventLog : public TraceSink {
 public:
  // Arms the log with a ring of `capacity` events recording the kinds in
  // `mask`. The single allocation happens here. Re-enabling resets contents.
  void Enable(std::size_t capacity, std::uint32_t mask = kAllEventKinds);
  void Disable();

  // TraceSink: an attached, enabled log wants exactly its configured kinds.
  std::uint32_t wants_mask() const override { return enabled_ ? mask_ : 0; }
  void OnEvent(const TraceEvent& event) override { Emit(event); }

  bool enabled() const { return enabled_; }
  bool Wants(EventKind kind) const {
    return enabled_ && ((mask_ >> static_cast<unsigned>(kind)) & 1u) != 0;
  }

  // Appends the event, evicting the oldest once the ring is full. No-op
  // unless Wants(event.kind).
  void Emit(const TraceEvent& event);

  std::size_t size() const { return ring_.size(); }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t emitted() const { return emitted_; }
  // Events evicted by ring wrap-around.
  std::uint64_t dropped() const { return emitted_ - ring_.size(); }

  // Retained events in chronological order.
  std::vector<TraceEvent> Snapshot() const;

  // Drops retained events; keeps enablement, mask and capacity.
  void Clear();

  // One JSON object per line, chronological:
  //   {"t":1234,"kind":"trap","tid":2,"addr":65536,"pc":132,"slot":0,"detail":2}
  std::string ToJsonl() const;

  // Chrome trace_event JSON array (chrome://tracing, Perfetto). Events with a
  // duration become complete ("X") slices; everything else is an instant.
  // Timestamps are virtual cycles presented as microseconds.
  std::string ToChromeTrace() const;

 private:
  bool enabled_ = false;
  std::uint32_t mask_ = kAllEventKinds;
  std::size_t capacity_ = 0;
  std::size_t head_ = 0;  // index of the oldest event once the ring is full
  std::uint64_t emitted_ = 0;
  std::vector<TraceEvent> ring_;
};

}  // namespace kivati

#endif  // KIVATI_TRACE_EVENT_LOG_H_
