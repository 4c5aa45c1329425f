#include "mem/address_space.h"

#include <cassert>
#include <cstring>

namespace kivati {

AddressSpace::AddressSpace() = default;

std::uint8_t* AddressSpace::ChunkFor(Addr addr) {
  const Addr index = addr >> kChunkBits;
  if (index >= chunks_.size()) {
    chunks_.resize(index + 1);
  }
  auto& chunk = chunks_[index];
  if (chunk == nullptr) {
    chunk = std::make_unique<std::uint8_t[]>(kChunkSize);
  }
  return chunk.get();
}

const std::uint8_t* AddressSpace::ChunkForRead(Addr addr) const {
  const Addr index = addr >> kChunkBits;
  if (index >= chunks_.size()) {
    chunks_.resize(index + 1);
  }
  auto& chunk = chunks_[index];
  if (chunk == nullptr) {
    chunk = std::make_unique<std::uint8_t[]>(kChunkSize);
  }
  return chunk.get();
}

std::uint64_t AddressSpace::ReadSlow(Addr addr, unsigned size) const {
  assert(size == 1 || size == 2 || size == 4 || size == 8);
  const Addr offset = addr & (kChunkSize - 1);
  std::uint64_t value = 0;
  if (offset + size <= kChunkSize) {
    // Single chunk, but not yet materialized (the inline fast path handles
    // the materialized case): resolve the chunk once instead of per byte.
    const std::uint8_t* chunk = ChunkForRead(addr);
    for (unsigned i = 0; i < size; ++i) {
      value |= static_cast<std::uint64_t>(chunk[offset + i]) << (8 * i);
    }
    return value;
  }
  // Accesses may straddle a chunk boundary; go byte-by-byte, which is cheap
  // at the simulator's scale and always correct.
  for (unsigned i = 0; i < size; ++i) {
    const Addr a = addr + i;
    const std::uint8_t byte = ChunkForRead(a)[a & (kChunkSize - 1)];
    value |= static_cast<std::uint64_t>(byte) << (8 * i);
  }
  return value;
}

void AddressSpace::WriteSlow(Addr addr, unsigned size, std::uint64_t value) {
  assert(size == 1 || size == 2 || size == 4 || size == 8);
  const Addr offset = addr & (kChunkSize - 1);
  if (offset + size <= kChunkSize) {
    std::uint8_t* chunk = ChunkFor(addr);
    for (unsigned i = 0; i < size; ++i) {
      chunk[offset + i] = static_cast<std::uint8_t>(value >> (8 * i));
    }
    return;
  }
  for (unsigned i = 0; i < size; ++i) {
    const Addr a = addr + i;
    ChunkFor(a)[a & (kChunkSize - 1)] = static_cast<std::uint8_t>(value >> (8 * i));
  }
}

Addr AddressSpace::AllocateData(Addr bytes, Addr align) {
  assert(align != 0 && (align & (align - 1)) == 0);
  data_break_ = (data_break_ + align - 1) & ~(align - 1);
  const Addr base = data_break_;
  data_break_ += bytes;
  return base;
}

}  // namespace kivati
