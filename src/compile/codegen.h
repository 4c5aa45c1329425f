// MIR -> ISA code generation.
#ifndef KIVATI_COMPILE_CODEGEN_H_
#define KIVATI_COMPILE_CODEGEN_H_

#include <unordered_set>

#include "analysis/atomic_regions.h"
#include "analysis/mir.h"
#include "isa/program.h"

namespace kivati {

// Generates code for `module`. `annotations` may be null (vanilla build).
// ARs in `pruned` (may be null) emit no begin/end_atomic or replica stores —
// the conflict analysis proved they cannot be violated. clear_ar emission is
// unchanged: it closes whatever AR the thread has open, including a caller's.
Program GenerateCode(const MirModule& module, const ModuleAnnotations* annotations,
                     const std::unordered_set<ArId>* pruned = nullptr);

}  // namespace kivati

#endif  // KIVATI_COMPILE_CODEGEN_H_
