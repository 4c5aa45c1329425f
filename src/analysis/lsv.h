// List of Shared Variables (LSV) analysis — paper §3.1.
//
// Per subroutine: seed with all globals, arguments passed by reference
// (pointer parameters), and pointers returned from called subroutines, then
// run a data-flow closure adding every variable data-flow dependent on a
// variable already in the LSV. The result over-approximates the truly
// shared set; non-shared entries cost monitoring overhead but never produce
// violations at run time.
#ifndef KIVATI_ANALYSIS_LSV_H_
#define KIVATI_ANALYSIS_LSV_H_

#include <vector>

#include "analysis/mir.h"

namespace kivati {

struct LsvResult {
  // Indexed by local id; globals are always considered shared.
  std::vector<bool> local_in_lsv;

  bool Shared(const VarRef& ref) const {
    if (ref.space == VarRef::Space::kGlobal) {
      return true;
    }
    if (ref.space == VarRef::Space::kLocal) {
      return local_in_lsv[static_cast<std::size_t>(ref.index)];
    }
    return false;
  }
};

// Conservative form: every call result is assumed shared (no return-type
// information).
LsvResult ComputeLsv(const MirFunction& function);

// Which functions may return a shared value: a declared pointer return, or a
// return operand data-flow dependent on a shared variable (computed to a
// fixed point through the call graph). Unresolvable callees stay shared.
struct ReturnSharedness {
  std::vector<bool> returns_shared;  // parallel to module.functions
};
ReturnSharedness ComputeReturnSharedness(const MirModule& module);

// Precise form used under inter-procedural analysis: only calls whose callee
// may return a pointer or a shared-derived value seed the LSV.
LsvResult ComputeLsv(const MirFunction& function, const ReturnSharedness& returns);

}  // namespace kivati

#endif  // KIVATI_ANALYSIS_LSV_H_
