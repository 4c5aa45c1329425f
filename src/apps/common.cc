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

App CompileApp(std::string name, std::string source, const FrontendOptions& frontend,
               std::vector<std::pair<std::string, std::uint64_t>> threads) {
  CompileOptions options;
  options.frontend = frontend;
  options.roots = ThreadRoots(threads);
  CompiledProgram compiled = CompileSource(source, options);
  App app;
  app.workload.name = std::move(name);
  app.workload.program = std::exchange(compiled.program, Program{});
  app.workload.threads = std::move(threads);
  app.workload.sync_var_ars = compiled.sync_ars;
  app.workload.ars_annotated = compiled.num_ars;
  app.workload.ars_no_remote_writer = compiled.conflict.no_remote_writer;
  app.workload.ars_lock_protected = compiled.conflict.lock_protected;
  app.workload.ars_watch_required = compiled.conflict.watch_required;
  app.workload.ars_pruned = compiled.conflict.pruned.size();
  auto shared = std::make_shared<const CompiledProgram>(std::move(compiled));
  app.workload.init = [shared](AddressSpace& memory) { shared->InitMemory(memory); };
  app.compiled = std::move(shared);
  app.source = std::move(source);
  return app;
}

App AssembleApp(const std::string& name, const std::string& source,
                const std::string& worker_function, int workers,
                const std::vector<std::string>& buggy_vars, Cycles default_max_cycles,
                const FrontendOptions& frontend) {
  std::vector<std::pair<std::string, std::uint64_t>> threads;
  for (int i = 0; i < workers; ++i) {
    threads.emplace_back(worker_function, static_cast<std::uint64_t>(i));
  }
  App app = CompileApp(name, source, frontend, std::move(threads));
  for (const std::string& var : buggy_vars) {
    const auto ars = ArsOnVariable(*app.compiled, var);
    app.workload.buggy_ars.insert(ars.begin(), ars.end());
  }
  app.workload.default_max_cycles = default_max_cycles;
  return app;
}

}  // namespace apps
}  // namespace kivati
