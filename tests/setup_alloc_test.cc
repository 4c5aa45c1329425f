// Allocation guard for workload set-up.
//
// Every `kivati run`, `compare` and `fuzz` first rebuilds its workload
// through the frontend (parse, MIR, the annotator's analyses, codegen). The
// frontend allocates per pass, not per AST node or per op: the AST lives in
// an arena its TranslationUnit owns, and each pass keeps its scratch arrays
// across the functions of a module. This binary replaces the global
// operator new with a counting one and fails when resolving the 15 corpus
// bugs makes more heap allocations than kBound. docs/performance.md
// ("Set-up") gives the count per stage.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "exp/run_spec.h"

namespace {

std::size_t g_allocations = 0;

void* Allocate(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* AllocateAligned(std::size_t size, std::align_val_t align) {
  ++g_allocations;
  const auto alignment = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return Allocate(size); }
void* operator new[](std::size_t size) { return Allocate(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return AllocateAligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return AllocateAligned(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace kivati {
namespace exp {
namespace {

// Allocations to resolve the 15 corpus bugs (compare's set-up): about 3,300
// now, 9,300 with one heap allocation per AST node, and 7,200 with every
// other part of the per-pass frontend but the AST arena.
constexpr std::size_t kBound = 4'500;

std::size_t CountSetUpAllocations() {
  std::vector<std::string> bugs = CorpusBugNames();
  for (const std::string& bug : MultiVarBugNames()) {
    bugs.push_back(bug);
  }
  std::vector<RunSpec> specs(bugs.size());
  for (std::size_t i = 0; i < bugs.size(); ++i) {
    specs[i].bug = bugs[i];
  }
  const std::size_t before = g_allocations;
  for (const RunSpec& spec : specs) {
    ResolveApp(spec);
  }
  return g_allocations - before;
}

TEST(SetupAllocTest, CorpusSetUpStaysUnderItsAllocationBound) {
  CountSetUpAllocations();  // first use builds the corpus tables and statics
  const std::size_t allocations = CountSetUpAllocations();
  std::printf("resolving the 15 corpus bugs: %zu allocations (bound %zu)\n", allocations,
              kBound);
  EXPECT_EQ(CorpusBugNames().size() + MultiVarBugNames().size(), 15u);
  EXPECT_LE(allocations, kBound);
}

}  // namespace
}  // namespace exp
}  // namespace kivati
