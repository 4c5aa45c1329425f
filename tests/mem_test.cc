#include <gtest/gtest.h>

#include "mem/address_space.h"

namespace kivati {
namespace {

TEST(AddressSpaceTest, ZeroInitialized) {
  AddressSpace mem;
  EXPECT_EQ(mem.Read(kDataBase, 8), 0u);
  EXPECT_EQ(mem.Read(0x123456, 4), 0u);
}

TEST(AddressSpaceTest, ReadBackWritten) {
  AddressSpace mem;
  mem.Write(kDataBase, 8, 0x1122334455667788ULL);
  EXPECT_EQ(mem.Read(kDataBase, 8), 0x1122334455667788ULL);
}

TEST(AddressSpaceTest, LittleEndianSubAccess) {
  AddressSpace mem;
  mem.Write(kDataBase, 8, 0x1122334455667788ULL);
  EXPECT_EQ(mem.Read(kDataBase, 1), 0x88u);
  EXPECT_EQ(mem.Read(kDataBase, 2), 0x7788u);
  EXPECT_EQ(mem.Read(kDataBase, 4), 0x55667788u);
  EXPECT_EQ(mem.Read(kDataBase + 4, 4), 0x11223344u);
}

TEST(AddressSpaceTest, NarrowWriteLeavesNeighbors) {
  AddressSpace mem;
  mem.Write(kDataBase, 8, ~0ULL);
  mem.Write(kDataBase + 2, 2, 0);
  EXPECT_EQ(mem.Read(kDataBase, 8), 0xFFFFFFFF0000FFFFULL);
}

TEST(AddressSpaceTest, ChunkBoundaryStraddle) {
  AddressSpace mem;
  const Addr boundary = (1u << 16) - 4;  // crosses a chunk boundary
  mem.Write(boundary, 8, 0xAABBCCDDEEFF0011ULL);
  EXPECT_EQ(mem.Read(boundary, 8), 0xAABBCCDDEEFF0011ULL);
}

TEST(AddressSpaceTest, AllocateDataAlignsAndAdvances) {
  AddressSpace mem;
  const Addr a = mem.AllocateData(10, 8);
  const Addr b = mem.AllocateData(8, 8);
  EXPECT_EQ(a % 8, 0u);
  EXPECT_EQ(b % 8, 0u);
  EXPECT_GE(b, a + 10);
  const Addr c = mem.AllocateData(4, 64);
  EXPECT_EQ(c % 64, 0u);
}

TEST(AddressSpaceTest, StackRegions) {
  EXPECT_EQ(AddressSpace::StackTop(0), kStackBase + kStackSize);
  EXPECT_TRUE(AddressSpace::InStack(0, kStackBase + 100));
  EXPECT_FALSE(AddressSpace::InStack(1, kStackBase + 100));
  EXPECT_TRUE(AddressSpace::InStack(1, kStackBase + kStackSize + 100));
}

TEST(AddressSpaceTest, SharedPageDistinctFromData) {
  // The shared user/kernel page must not collide with plausible data or
  // stack allocations.
  EXPECT_GT(kSharedPageBase, kStackBase + 64 * kStackSize);
}

}  // namespace
}  // namespace kivati
