#include "apps/common.h"

namespace kivati {
namespace apps {

std::unordered_set<ArId> ArsOnVariable(const CompiledProgram& compiled,
                                       const std::string& variable) {
  std::unordered_set<ArId> result;
  for (const ArDebugInfo& info : compiled.ar_infos) {
    if (info.variable == variable) {
      result.insert(info.id);
    }
  }
  return result;
}

App AssembleApp(const std::string& name, const std::string& source,
                const std::string& worker_function, int workers,
                const std::vector<std::string>& buggy_vars, Cycles default_max_cycles,
                const AnnotateOptions& annotator, bool prune, bool correlate) {
  App app;
  CompileOptions compile_options;
  compile_options.annotator = annotator;
  compile_options.conflict.prune = prune;
  compile_options.correlate = correlate;
  compile_options.conflict.roots.emplace_back(worker_function, workers);
  auto compiled = std::make_shared<CompiledProgram>(CompileSource(source, compile_options));
  app.workload.name = name;
  app.workload.program = compiled->program;
  for (int i = 0; i < workers; ++i) {
    app.workload.threads.emplace_back(worker_function, static_cast<std::uint64_t>(i));
  }
  app.workload.init = [compiled](AddressSpace& memory) { compiled->InitMemory(memory); };
  app.workload.sync_var_ars = compiled->sync_ars;
  for (const std::string& var : buggy_vars) {
    const auto ars = ArsOnVariable(*compiled, var);
    app.workload.buggy_ars.insert(ars.begin(), ars.end());
  }
  app.workload.default_max_cycles = default_max_cycles;
  app.workload.ars_annotated = compiled->num_ars;
  app.workload.ars_no_remote_writer = compiled->conflict.no_remote_writer;
  app.workload.ars_lock_protected = compiled->conflict.lock_protected;
  app.workload.ars_watch_required = compiled->conflict.watch_required;
  app.workload.ars_pruned = compiled->conflict.pruned.size();
  app.compiled = std::move(compiled);
  app.source = source;
  return app;
}

}  // namespace apps
}  // namespace kivati
