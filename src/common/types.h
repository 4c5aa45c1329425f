// Fundamental identifier and unit types shared by every Kivati module.
//
// All simulated quantities are expressed in these units so that experiments
// are reproducible and unit mix-ups are caught at compile time where
// practical (distinct enum classes) or by convention (named aliases).
#ifndef KIVATI_COMMON_TYPES_H_
#define KIVATI_COMMON_TYPES_H_

#include <cstdint>
#include <limits>
#include <string>

namespace kivati {

// Virtual time. One cycle is the cost of a simple user-mode instruction.
using Cycles = std::uint64_t;

// Byte address in the simulated flat address space.
using Addr = std::uint64_t;

// Byte offset of an instruction inside a program's text segment. Instructions
// are variable length (as on x86), so a ProgramCounter is not an instruction
// index.
using ProgramCounter = std::uint64_t;

// Simulated thread identifier. Thread 0 is the initial thread of a program.
using ThreadId = std::uint32_t;

// Simulated core identifier.
using CoreId = std::uint32_t;

// Globally unique atomic-region identifier assigned by the static annotator.
using ArId = std::uint32_t;

// Elapsed virtual time from `start` to `now`, clamped at zero. The global
// clock observed through Machine::now() is the *executing core's* clock and
// is not monotonic across context switches between cores, so a naive
// `now - start` underflows (wraps to ~2^64) when the event started on a
// core that ran ahead. Durations recorded into histograms must clamp.
constexpr Cycles ClampedElapsed(Cycles now, Cycles start) {
  return now >= start ? now - start : 0;
}

inline constexpr ThreadId kInvalidThread = std::numeric_limits<ThreadId>::max();
inline constexpr ArId kInvalidAr = std::numeric_limits<ArId>::max();
inline constexpr Addr kInvalidAddr = std::numeric_limits<Addr>::max();

// The kind of memory access an instruction performs, as observed by the
// watchpoint hardware and by the static annotator.
enum class AccessType : std::uint8_t {
  kRead = 1,
  kWrite = 2,
};

// What a watchpoint (or an atomic region) monitors for. This is the union of
// access kinds; the paper's Figure 6 derives the remote type to watch from
// the two local access types.
enum class WatchType : std::uint8_t {
  kNone = 0,
  kRead = 1,
  kWrite = 2,
  kReadWrite = 3,
};

// Returns the union of two watch conditions (used when several ARs share one
// hardware watchpoint and it must be set to the most aggressive setting).
constexpr WatchType Union(WatchType a, WatchType b) {
  return static_cast<WatchType>(static_cast<std::uint8_t>(a) | static_cast<std::uint8_t>(b));
}

// True if a watchpoint configured for `watch` traps on an access of `access`.
constexpr bool Matches(WatchType watch, AccessType access) {
  return (static_cast<std::uint8_t>(watch) & static_cast<std::uint8_t>(access)) != 0;
}

// Converts an access type to the watch condition that monitors exactly it.
constexpr WatchType ToWatchType(AccessType a) {
  return a == AccessType::kRead ? WatchType::kRead : WatchType::kWrite;
}

const char* ToString(AccessType type);
const char* ToString(WatchType type);

// Derives the remote access type that can make the local pair
// (first, second) non-serializable — the paper's Figure 6:
//   R-R  -> watch remote W
//   R-W  -> watch remote RW
//   W-R  -> watch remote W   (remote R between W and R is serializable)
//   W-W  -> watch remote RW  (remote R sees a value that never exists
//                             serially? no: W-rR-W is non-serializable only
//                             for the read; see NonSerializable below)
// Figure 2 of the paper lists the four non-serializable interleavings:
//   (R, rW, R), (W, rW, R), (W, rR, W), (R, rW, W)
constexpr WatchType RemoteWatchFor(AccessType first, AccessType second) {
  if (first == AccessType::kRead && second == AccessType::kRead) {
    return WatchType::kWrite;  // R-rW-R
  }
  if (first == AccessType::kWrite && second == AccessType::kRead) {
    return WatchType::kWrite;  // W-rW-R
  }
  if (first == AccessType::kWrite && second == AccessType::kWrite) {
    return WatchType::kRead;  // W-rR-W
  }
  return WatchType::kWrite;  // R-rW-W
}

// True if the interleaving (first local, remote, second local) is one of the
// four non-serializable patterns of Figure 2.
constexpr bool NonSerializable(AccessType first, AccessType remote, AccessType second) {
  if (remote == AccessType::kWrite) {
    // R-rW-R, W-rW-R, R-rW-W are non-serializable; W-rW-W is serializable
    // (equivalent to remote-write first, then local pair).
    return !(first == AccessType::kWrite && second == AccessType::kWrite);
  }
  // Remote read: only W-rR-W is non-serializable (the read observes an
  // intermediate value that exists in no serial order).
  return first == AccessType::kWrite && second == AccessType::kWrite;
}

}  // namespace kivati

#endif  // KIVATI_COMMON_TYPES_H_
