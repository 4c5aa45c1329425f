#include "compile/compiler.h"

#include "analysis/lockset.h"
#include "analysis/mir_builder.h"
#include "compile/codegen.h"
#include "lang/parser.h"

namespace kivati {

void CompiledProgram::InitMemory(AddressSpace& memory) const {
  for (const auto& [addr, value] : initializers) {
    memory.Write(addr, 8, value);
  }
}

CompiledProgram Compile(const TranslationUnit& unit, const CompileOptions& options) {
  MirModule module = BuildMir(unit);

  // Lay out globals in the data segment: scalars and arrays, 8 bytes per
  // element, in declaration order (deterministic addresses for tests).
  Addr next = kDataBase;
  for (MirGlobal& global : module.globals) {
    global.addr = next;
    const std::int64_t words = global.array_size > 0 ? global.array_size : 1;
    next += 8 * static_cast<Addr>(words);
  }

  // One lock analysis and one conflict analyzer serve every pass below:
  // fusion rewrites the annotations, never the module.
  const LockFacts locks(module);
  ModuleAnnotations annotations;
  ConflictReport conflict;
  CorrelationReport correlation;
  if (options.annotate) {
    const FrontendOptions& frontend = options.frontend;
    annotations = Annotate(module, frontend.annotator);
    const ConflictOptions conflict_options{frontend.prune, options.roots};
    const ConflictAnalyzer analyzer(module, locks, conflict_options);
    conflict = analyzer.Run(annotations);
    if (frontend.correlate) {
      correlation = CorrelateAndFuse(module, annotations, conflict, locks);
      if (correlation.changed) {
        // Fusion extended host ARs and appended synthesized ones; the
        // conflict verdicts (and prune set) must reflect the new shapes.
        conflict = analyzer.Run(annotations);
      }
    }
  }

  CompiledProgram out;
  out.program = GenerateCode(module, options.annotate ? &annotations : nullptr,
                             options.annotate ? &conflict.pruned : nullptr);
  for (const MirGlobal& global : module.globals) {
    out.global_addrs.emplace(global.name, global.addr);
    if (global.array_size == 0 && global.init_value != 0) {
      out.initializers.emplace_back(global.addr,
                                    static_cast<std::uint64_t>(global.init_value));
    }
  }
  for (const int global : locks.Globals(locks.trusted())) {
    out.lock_addrs.insert(module.globals[static_cast<std::size_t>(global)].addr);
  }
  out.sync_ars = std::move(annotations.sync_ars);
  out.ar_infos = std::move(annotations.infos);
  out.num_ars = out.ar_infos.size();
  out.conflict = std::move(conflict);
  out.correlation = std::move(correlation);
  return out;
}

CompiledProgram CompileSource(const std::string& source, const CompileOptions& options) {
  return Compile(Parse(source), options);
}

}  // namespace kivati
