// Mid-level IR (MIR) — the normalized form the annotator analyses.
//
// The paper's annotator runs inside CIL, which first normalizes C into
// simple three-address statements; the MIR plays that role here. Every
// *memory* access to a potentially shared variable is a distinct op, so
// begin_atomic / end_atomic can be placed exactly "right before the first
// access" and "right after the second access" (§2.2).
//
// Shared-variable identity follows the paper's §3.5 rules exactly: two
// accesses belong to the same shared variable iff they use the same base
// variable *name* (a global, a pointer variable being dereferenced, or an
// array treated as a whole). No alias analysis.
#ifndef KIVATI_ANALYSIS_MIR_H_
#define KIVATI_ANALYSIS_MIR_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "lang/ast.h"

namespace kivati {

struct MirGlobal {
  std::string name;
  bool is_pointer = false;
  bool is_sync = false;
  std::int64_t array_size = 0;  // 0 = scalar
  std::int64_t init_value = 0;
  Addr addr = 0;  // assigned by the compiler before codegen
};

struct MirLocal {
  std::string name;
  bool is_pointer = false;
  bool is_param = false;
  std::int64_t array_size = 0;  // 0 = scalar
  bool address_taken = false;   // scalar whose address is taken: memory-resident
};

// A reference to either side of the variable universe.
struct VarRef {
  enum class Space : std::uint8_t { kNone, kGlobal, kLocal };
  Space space = Space::kNone;
  int index = -1;

  bool valid() const { return space != Space::kNone; }
  static VarRef Global(int index) { return {Space::kGlobal, index}; }
  static VarRef Local(int index) { return {Space::kLocal, index}; }
};

// A call's argument locals, at most kMaxArgs (the register arguments; the
// lowering rejects more), stored in the op.
class CallArgs {
 public:
  static constexpr std::size_t kMaxArgs = 4;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  int operator[](std::size_t i) const { return args_[i]; }
  const int* begin() const { return args_; }
  const int* end() const { return args_ + size_; }
  void push_back(int local) { args_[size_++] = local; }

 private:
  int args_[kMaxArgs] = {};
  std::uint8_t size_ = 0;
};

struct MirOp {
  enum class Kind : std::uint8_t {
    kConst,         // dst = imm
    kCopy,          // dst = a
    kBin,           // dst = a <bin_op> b
    kLoadGlobal,    // dst = G            [memory read of global scalar]
    kStoreGlobal,   // G = a              [memory write of global scalar]
    kLoadIndex,     // dst = arr[a]       [memory read, arr = array VarRef]
    kStoreIndex,    // arr[a] = b         [memory write]
    kLoadPtr,       // dst = *a           [memory read through pointer local a]
    kStorePtr,      // *a = b             [memory write through pointer local a]
    kLoadLocalMem,  // dst = L            [memory read of address-taken local]
    kStoreLocalMem, // L = a              [memory write of address-taken local]
    kAddrGlobal,    // dst = &G
    kAddrLocal,     // dst = &L
    kAddrIndex,     // dst = &arr[a]
    kCall,          // dst? = callee(args...)
    kSpawn,         // spawn callee(args[0]?)
    kLock,          // acquire spin lock on global G      [memory write of G]
    kUnlock,        // release spin lock on global G      [memory write of G]
    kSleep,         // sleep(a) virtual cycles
    kIo,            // io(a)
    kYield,
    kMark,          // mark(a, b)
    kNow,           // dst = current virtual time
    kExitSys,       // exit(a)
    kBr,            // if a != 0 goto target else goto target2
    kJmp,           // goto target
    kRet,           // return a (a may be -1)
  };

  Kind kind = Kind::kConst;
  int dst = -1;  // local index
  int a = -1;    // local index
  int b = -1;    // local index
  BinOp bin_op = BinOp::kAdd;
  std::int64_t imm = 0;
  int global = -1;      // global index (kLoadGlobal/kStoreGlobal/kAddrGlobal/kLock/kUnlock)
  VarRef array;         // k*Index: the array
  int local_mem = -1;   // kLoadLocalMem/kStoreLocalMem/kAddrLocal: the local
  std::string callee;
  // kCall/kSpawn: the callee's index in MirModule::functions, resolved once
  // by BuildMir to the first function of that name (as FindFunction does),
  // or -1 when no function has the name.
  int callee_index = -1;
  CallArgs args;
  int target = -1;
  int target2 = -1;
  int line = 0;
};

struct MirFunction {
  std::string name;
  bool returns_value = false;
  bool returns_pointer = false;
  unsigned num_params = 0;
  std::vector<MirLocal> locals;  // params occupy the first num_params slots
  std::vector<MirOp> ops;
};

struct MirModule {
  std::vector<MirGlobal> globals;
  std::vector<MirFunction> functions;

  int FindGlobal(const std::string& name) const;
  const MirFunction* FindFunction(const std::string& name) const;
};

// One potentially-shared memory access performed by an op: the identity of
// the base variable (per the paper's name-based rule) plus the access type.
struct VarAccess {
  VarRef base;               // the global, the pointer local, or the array
  AccessType type = AccessType::kRead;
};

// Extracts the (at most one) shared-variable access an op performs.
// Plain register ops, address-of, control flow and builtins other than
// lock/unlock return nullopt. lock/unlock report a write to the lock global.
std::optional<VarAccess> SharedAccessOf(const MirOp& op);

// The successor op indices of one op: at most two.
class Successors {
 public:
  const std::size_t* begin() const { return ops_; }
  const std::size_t* end() const { return ops_ + size_; }

 private:
  friend Successors SuccessorsOf(const MirFunction& function, std::size_t index);
  std::size_t ops_[2] = {};
  std::size_t size_ = 0;
};

// Successor op indices of the op at `index` (for CFG traversal).
Successors SuccessorsOf(const MirFunction& function, std::size_t index);

// Human-readable dump for debugging and tests.
std::string ToString(const MirFunction& function, const MirModule& module);

}  // namespace kivati

#endif  // KIVATI_ANALYSIS_MIR_H_
