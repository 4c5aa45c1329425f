// Abstract syntax tree for the mini-C frontend.
//
// The language is the C subset the Kivati annotator needs to exercise its
// analyses: 64-bit integers, pointers, fixed-size arrays, global variables
// (optionally marked `sync` for synchronization variables), functions,
// if/while/for control flow, address-of/dereference, and thread spawning.
// Built-in functions are ordinary calls with reserved names, resolved during
// lowering: lock(v), unlock(v), sleep(n), io(n), yield(), mark(tag, value),
// now(), exit(n).
//
// Who owns the nodes: every Expr and Stmt of a TranslationUnit, and every
// statement, argument and parameter list, lives in the unit's AstArena. An
// ExprPtr or StmtPtr owns its node's lifetime (its deleter runs the
// destructor in place) and a NodeList owns its elements'; the arena owns the
// memory and frees it, a few blocks, when the unit dies. Moving a unit moves
// the arena's blocks, never a node, so pointers into the tree stay valid.
#ifndef KIVATI_LANG_AST_H_
#define KIVATI_LANG_AST_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

namespace kivati {

// Ends an arena node's lifetime; the arena frees its memory.
struct DestroyInPlace {
  template <typename T>
  void operator()(T* node) const {
    node->~T();
  }
};

template <typename T>
using NodePtr = std::unique_ptr<T, DestroyInPlace>;

// A fixed run of elements in an AstArena (AstArena::MoveList): the list
// destroys its elements, the arena frees their storage.
template <typename T>
class NodeList {
 public:
  NodeList() = default;
  NodeList(NodeList&& other) noexcept
      : items_(std::exchange(other.items_, nullptr)), size_(std::exchange(other.size_, 0)) {}
  NodeList& operator=(NodeList&& other) noexcept {
    if (this != &other) {
      std::destroy_n(items_, size_);
      items_ = std::exchange(other.items_, nullptr);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }
  ~NodeList() { std::destroy_n(items_, size_); }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  T& operator[](std::size_t i) { return items_[i]; }
  const T& operator[](std::size_t i) const { return items_[i]; }
  T* begin() { return items_; }
  T* end() { return items_ + size_; }
  const T* begin() const { return items_; }
  const T* end() const { return items_ + size_; }

 private:
  friend class AstArena;
  NodeList(T* items, std::size_t size) : items_(items), size_(size) {}

  T* items_ = nullptr;
  std::size_t size_ = 0;
};

// Bump allocation in blocks that grow geometrically; a unit's whole tree
// costs one or two heap allocations. Move-assignment swaps the blocks
// instead of freeing the target's: a TranslationUnit assigns its arena
// before its functions, whose old nodes are destroyed after that and must
// still sit in live memory. The source frees them when it dies.
class AstArena {
 public:
  AstArena() = default;
  AstArena(AstArena&& other) noexcept
      : last_(std::exchange(other.last_, nullptr)),
        next_(std::exchange(other.next_, nullptr)),
        end_(std::exchange(other.end_, nullptr)) {}
  AstArena& operator=(AstArena&& other) noexcept {
    std::swap(last_, other.last_);
    std::swap(next_, other.next_);
    std::swap(end_, other.end_);
    return *this;
  }
  ~AstArena();

  // A value-initialized node.
  template <typename T>
  NodePtr<T> New() {
    return NodePtr<T>(::new (Allocate(sizeof(T), alignof(T))) T());
  }

  // Moves [first, last) into a list of its own.
  template <typename T>
  NodeList<T> MoveList(T* first, T* last) {
    const auto size = static_cast<std::size_t>(last - first);
    if (size == 0) {
      return {};
    }
    T* items = static_cast<T*>(Allocate(size * sizeof(T), alignof(T)));
    std::uninitialized_move(first, last, items);
    return NodeList<T>(items, size);
  }

 private:
  struct Block {
    Block* prev;
    std::size_t size;  // bytes after the header
  };

  void* Allocate(std::size_t size, std::size_t align) {
    const auto at = (reinterpret_cast<std::uintptr_t>(next_) + align - 1) & ~(align - 1);
    if (next_ == nullptr || at + size > reinterpret_cast<std::uintptr_t>(end_)) {
      return AllocateInNewBlock(size, align);
    }
    next_ = reinterpret_cast<std::byte*>(at + size);
    return reinterpret_cast<void*>(at);
  }
  void* AllocateInNewBlock(std::size_t size, std::size_t align);

  Block* last_ = nullptr;
  std::byte* next_ = nullptr;
  std::byte* end_ = nullptr;
};

enum class BinOp {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
  kAnd,
  kOr,
  kXor,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
};

const char* ToString(BinOp op);

struct Expr;
using ExprPtr = NodePtr<Expr>;

struct Expr {
  enum class Kind {
    kIntLit,  // int_value
    kVar,     // name
    kBinary,  // op, lhs, rhs
    kIndex,   // name (array), rhs = index expression
    kCall,    // name (callee), args
    kAddrOf,  // name (variable whose address is taken)
    kDeref,   // lhs = pointer expression
  };

  Kind kind = Kind::kIntLit;
  std::int64_t int_value = 0;
  std::string name;
  BinOp op = BinOp::kAdd;
  ExprPtr lhs;
  ExprPtr rhs;
  NodeList<ExprPtr> args;
  int line = 0;
};

struct Stmt;
using StmtPtr = NodePtr<Stmt>;

struct Stmt {
  enum class Kind {
    kDecl,      // decl_*: local variable declaration
    kAssign,    // target = value
    kIf,        // cond, body, else_body
    kWhile,     // cond, body
    kFor,       // for_init, cond, for_step, body
    kExprStmt,  // value (a call evaluated for effect)
    kReturn,    // value (may be null)
    kSpawn,     // value = call expression to run in a new thread
    kBreak,     // exit the innermost loop
    kContinue,  // jump to the innermost loop's next iteration
  };

  Kind kind = Kind::kDecl;

  // kDecl.
  std::string decl_name;
  bool decl_is_pointer = false;
  std::int64_t decl_array_size = 0;  // 0 means scalar
  ExprPtr decl_init;                 // may be null

  // kAssign: target is kVar, kIndex or kDeref.
  ExprPtr target;
  // kAssign value / kExprStmt call / kReturn value / kSpawn call.
  ExprPtr value;

  // Control flow.
  ExprPtr cond;
  NodeList<StmtPtr> body;
  NodeList<StmtPtr> else_body;
  StmtPtr for_init;
  StmtPtr for_step;

  int line = 0;
};

struct Param {
  std::string name;
  bool is_pointer = false;
};

struct Function {
  std::string name;
  bool returns_value = false;
  bool returns_pointer = false;  // declared `int *f(...)`
  NodeList<Param> params;
  NodeList<StmtPtr> body;
  int line = 0;
};

struct GlobalVar {
  std::string name;
  bool is_pointer = false;
  bool is_sync = false;              // declared with the `sync` qualifier
  std::int64_t array_size = 0;       // 0 means scalar
  std::int64_t init_value = 0;
  int line = 0;
};

struct TranslationUnit {
  // Declared first, so it outlives every node below it.
  AstArena arena;
  std::vector<GlobalVar> globals;
  std::vector<Function> functions;
};

}  // namespace kivati

#endif  // KIVATI_LANG_AST_H_
