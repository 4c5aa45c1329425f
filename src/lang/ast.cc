#include "lang/ast.h"

#include <algorithm>
#include <cstdlib>

namespace kivati {
namespace {

// The first block's size, and the largest that doubling reaches. The corpus
// bugs build 23-25 KB of nodes and lists each and the apps 22-39 KB, so one
// or two blocks hold a unit.
constexpr std::size_t kFirstBlock = 32 << 10;
constexpr std::size_t kLargestBlock = 256 << 10;

}  // namespace

AstArena::~AstArena() {
  while (last_ != nullptr) {
    ::operator delete(std::exchange(last_, last_->prev));
  }
}

void* AstArena::AllocateInNewBlock(std::size_t size, std::size_t align) {
  const std::size_t grown = last_ == nullptr ? kFirstBlock : std::min(2 * last_->size, kLargestBlock);
  const std::size_t bytes = std::max(grown, size + align);
  auto* block = static_cast<Block*>(::operator new(sizeof(Block) + bytes));
  *block = Block{last_, bytes};
  last_ = block;
  next_ = reinterpret_cast<std::byte*>(block + 1);
  end_ = next_ + bytes;
  return Allocate(size, align);
}

}  // namespace kivati
