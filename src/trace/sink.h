// Streaming observers over the trace event stream.
//
// PR 1's EventLog was both the producer gate and the only consumer: every
// emit site asked the ring buffer's Wants(kind) and reports polled the ring
// afterwards. Pluggable detector backends (docs/detectors.md) need to see
// the same events *as they happen*, so the gate is now a TraceHub that fans
// each event out to any number of attached TraceSinks — the EventLog ring
// is simply the canonical first sink, and a happens-before detector
// (src/detect) is another.
//
// The zero-cost contract is preserved: the hub caches the OR of all sink
// masks, so an emit site still pays one mask test against a scalar when no
// sink wants the kind, and a machine with no enabled sink skips event
// construction entirely. Sinks whose wanted-kind set changes (EventLog::
// Enable/Disable) call NotifyMaskChanged() to refresh the cache.
#ifndef KIVATI_TRACE_SINK_H_
#define KIVATI_TRACE_SINK_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace kivati {

enum class EventKind : std::uint8_t;
struct TraceEvent;
class TraceHub;

// An observer of the event stream. OnEvent is only called for kinds present
// in wants_mask(); sinks that change their mask while attached must call
// NotifyMaskChanged() so the hub's cached union stays exact.
class TraceSink {
 public:
  TraceSink() = default;
  // Attachment is identity-based, so a sink is pinned in memory.
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;
  virtual ~TraceSink();

  // Bitmask of EventKinds this sink wants (1 << kind). Zero detaches the
  // sink from the hot path without detaching it from the hub.
  virtual std::uint32_t wants_mask() const = 0;

  virtual void OnEvent(const TraceEvent& event) = 0;

 protected:
  void NotifyMaskChanged();

 private:
  friend class TraceHub;
  TraceHub* hub_ = nullptr;
};

// Fans events out to attached sinks. Not thread-safe: one hub belongs to one
// simulated machine, which is single-threaded by construction.
class TraceHub {
 public:
  TraceHub() = default;
  // Sinks hold a back-pointer to their hub, so a hub is pinned in memory.
  TraceHub(const TraceHub&) = delete;
  TraceHub& operator=(const TraceHub&) = delete;
  ~TraceHub();

  // Attaching does not transfer ownership; sinks must outlive the hub or
  // Detach first (TraceSink's destructor auto-detaches).
  void Attach(TraceSink* sink);
  void Detach(TraceSink* sink);

  // True if any attached sink wants `kind`. One shift-and-test against a
  // cached scalar — the emit-site guard, exactly as EventLog::Wants was.
  bool Wants(EventKind kind) const {
    return ((mask_ >> static_cast<unsigned>(kind)) & 1u) != 0;
  }
  // The cached union of all sink masks (for gating whole groups of kinds,
  // e.g. the interpreter's access-event collection).
  std::uint32_t mask() const { return mask_; }

  // Delivers the event to every sink that wants its kind. Callers guard
  // with Wants(kind) first, as emit sites always did.
  void Emit(const TraceEvent& event);

  // Recomputes the cached mask union (called by sinks via NotifyMaskChanged).
  void RefreshMask();

 private:
  std::vector<TraceSink*> sinks_;
  std::uint32_t mask_ = 0;
};

}  // namespace kivati

#endif  // KIVATI_TRACE_SINK_H_
