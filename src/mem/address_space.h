// Simulated flat byte-addressed memory.
//
// All simulated threads of one machine share a single AddressSpace (the
// workloads are threads of one process, as in the paper). The space is
// segmented by convention:
//
//   [kDataBase, ...)    globals and heap allocations (bump-allocated)
//   [kStackBase, ...)   per-thread stacks, fixed size, growing down
//   [kSharedPageBase,)  the page shared between the user-space Kivati
//                       library and the kernel component (optimization 3)
//
// Accesses are little-endian and support the watchpoint-relevant widths
// 1, 2, 4 and 8 bytes.
#ifndef KIVATI_MEM_ADDRESS_SPACE_H_
#define KIVATI_MEM_ADDRESS_SPACE_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "common/types.h"

namespace kivati {

inline constexpr Addr kDataBase = 0x10000;
inline constexpr Addr kStackBase = 0x4000000;
inline constexpr Addr kStackSize = 0x10000;  // 64 KiB per simulated thread
inline constexpr Addr kSharedPageBase = 0x8000000;
inline constexpr Addr kSharedPageSize = 0x1000;

// Globals and heap: the only memory another thread's program logic can
// observe (stacks are thread-private, the shared page is runtime-internal).
// Access-level trace events report exactly the accesses starting here.
inline constexpr bool IsSharedData(Addr addr) { return addr >= kDataBase && addr < kStackBase; }

class AddressSpace {
 public:
  AddressSpace();

  // Reads `size` bytes (1, 2, 4 or 8) at `addr`, zero-extended to 64 bits.
  // The already-materialized single-chunk case — the overwhelmingly common
  // one on the interpreter's per-access path — is inline; first-touch
  // materialization and chunk-straddling accesses take the out-of-line
  // slow path.
  std::uint64_t Read(Addr addr, unsigned size) const {
    const Addr index = addr >> kChunkBits;
    const Addr offset = addr & (kChunkSize - 1);
    if (index < chunks_.size() && offset + size <= kChunkSize) {
      const std::uint8_t* chunk = chunks_[index].get();
      if (chunk != nullptr) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
        // Width-specialized memcpy: each case compiles to a single load
        // (the interpreter passes `size` at run time, so the portable
        // byte-assembly loop below would really loop).
        const std::uint8_t* p = chunk + offset;
        switch (size) {
          case 8: {
            std::uint64_t v;
            std::memcpy(&v, p, 8);
            return v;
          }
          case 4: {
            std::uint32_t v;
            std::memcpy(&v, p, 4);
            return v;
          }
          case 2: {
            std::uint16_t v;
            std::memcpy(&v, p, 2);
            return v;
          }
          case 1:
            return *p;
          default:
            break;
        }
#endif
        std::uint64_t value = 0;
        // Little-endian byte assembly, independent of host byte order.
        for (unsigned i = 0; i < size; ++i) {
          value |= static_cast<std::uint64_t>(chunk[offset + i]) << (8 * i);
        }
        return value;
      }
    }
    return ReadSlow(addr, size);
  }

  // Writes the low `size` bytes of `value` at `addr`.
  void Write(Addr addr, unsigned size, std::uint64_t value) {
    const Addr index = addr >> kChunkBits;
    const Addr offset = addr & (kChunkSize - 1);
    if (index < chunks_.size() && offset + size <= kChunkSize) {
      std::uint8_t* chunk = chunks_[index].get();
      if (chunk != nullptr) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
        std::uint8_t* p = chunk + offset;
        switch (size) {
          case 8:
            std::memcpy(p, &value, 8);
            return;
          case 4: {
            const std::uint32_t v = static_cast<std::uint32_t>(value);
            std::memcpy(p, &v, 4);
            return;
          }
          case 2: {
            const std::uint16_t v = static_cast<std::uint16_t>(value);
            std::memcpy(p, &v, 2);
            return;
          }
          case 1:
            *p = static_cast<std::uint8_t>(value);
            return;
          default:
            break;
        }
#endif
        for (unsigned i = 0; i < size; ++i) {
          chunk[offset + i] = static_cast<std::uint8_t>(value >> (8 * i));
        }
        return;
      }
    }
    WriteSlow(addr, size, value);
  }

  // Bump-allocates `bytes` in the data segment, aligned to `align` (a power
  // of two). Returns the base address of the allocation.
  Addr AllocateData(Addr bytes, Addr align = 8);

  // Returns the initial stack pointer (one past the top) for thread `tid`.
  static Addr StackTop(ThreadId tid) { return kStackBase + (tid + 1) * kStackSize; }

  // True if [addr, addr+size) lies inside thread tid's stack region.
  static bool InStack(ThreadId tid, Addr addr) {
    return addr >= kStackBase + tid * kStackSize && addr < StackTop(tid);
  }

 private:
  // Sparse backing store: fixed-size chunks materialized (zeroed) on first
  // touch. At 16 KiB a run's resident memory stays near what it touches — a
  // thread's stack, the globals and the shared page take a chunk each, not
  // 64 KiB apiece — and the table reaching the shared page is 64 KiB.
  static constexpr Addr kChunkBits = 14;
  static constexpr Addr kChunkSize = Addr{1} << kChunkBits;

  std::uint64_t ReadSlow(Addr addr, unsigned size) const;
  void WriteSlow(Addr addr, unsigned size, std::uint64_t value);

  std::uint8_t* ChunkFor(Addr addr);
  const std::uint8_t* ChunkForRead(Addr addr) const;

  mutable std::vector<std::unique_ptr<std::uint8_t[]>> chunks_;
  Addr data_break_ = kDataBase;
};

}  // namespace kivati

#endif  // KIVATI_MEM_ADDRESS_SPACE_H_
