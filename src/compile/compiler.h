// Compiler driver: mini-C source -> annotated simulated binary.
//
// Pipeline: parse -> lower to MIR -> assign global addresses -> run the
// annotator (LSV + atomic regions, paper §3.1) -> generate ISA code with
// begin_atomic / end_atomic / clear_ar annotations and the optimization-3
// replica stores -> build the Program (whose RollbackTable the machine
// derives, standing in for the paper's binary pre-processing pass).
#ifndef KIVATI_COMPILE_COMPILER_H_
#define KIVATI_COMPILE_COMPILER_H_

#include <compare>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "analysis/atomic_regions.h"
#include "analysis/conflict.h"
#include "analysis/correlation.h"
#include "isa/program.h"
#include "lang/ast.h"
#include "mem/address_space.h"

namespace kivati {

// The annotator configuration a binary is built with: the four frontend
// choices behind --interprocedural, --precise-aliasing, --no-prune and
// --no-correlate, as one value. A protected run must execute the binary its
// annotator produced, so every path that rebuilds a workload (corpus bugs,
// the sweep's app cache, replay and shrink) carries this value whole.
struct FrontendOptions {
  // Annotator precision extensions (paper §3.5/§6 future work).
  AnnotateOptions annotator;
  // Drop the annotations of ARs the whole-module conflict analysis proves
  // unviolable (ConflictOptions::prune).
  bool prune = true;
  // Correlated-variable inference + multi-variable region fusion
  // (analysis/correlation.h). When the pass fuses anything, the conflict
  // analysis is re-run so synthesized and extended ARs carry verdicts.
  bool correlate = true;

  auto operator<=>(const FrontendOptions&) const = default;
};

struct CompileOptions {
  // Insert Kivati annotations. False produces the "vanilla" binary used as
  // the experiments' baseline.
  bool annotate = true;
  FrontendOptions frontend;
  // The conflict analysis's thread roots (ConflictOptions::roots; derive
  // them from a thread list with ThreadRoots).
  std::vector<std::pair<std::string, int>> roots;
};

struct CompiledProgram {
  Program program;
  std::unordered_map<std::string, Addr> global_addrs;
  // (address, value) pairs to write before running (global initializers).
  std::vector<std::pair<Addr, std::uint64_t>> initializers;
  // AR ids over synchronization variables (feed optimization 4's whitelist).
  std::unordered_set<ArId> sync_ars;
  // Addresses of the trusted lock globals (analysis/lockset.h: used only via
  // lock()/unlock()). Detector backends (src/detect) seed their lock model
  // from these so the first acquire is already classified as a sync access.
  std::unordered_set<Addr> lock_addrs;
  // Debug info for every AR, indexed by (id - 1).
  std::vector<ArDebugInfo> ar_infos;
  std::size_t num_ars = 0;
  // Verdicts from the whole-module conflict analysis (empty when
  // options.annotate was false).
  ConflictReport conflict;
  // Correlated-set inference result (empty when options.annotate or
  // options.frontend.correlate was false). Self-contained: names are
  // resolved, so it can be formatted without the MIR module.
  CorrelationReport correlation;

  Addr GlobalAddr(const std::string& name) const { return global_addrs.at(name); }
  // Writes all initializers into `memory` (use as a Workload::init).
  void InitMemory(AddressSpace& memory) const;
};

CompiledProgram Compile(const TranslationUnit& unit, const CompileOptions& options = {});
CompiledProgram CompileSource(const std::string& source, const CompileOptions& options = {});

}  // namespace kivati

#endif  // KIVATI_COMPILE_COMPILER_H_
