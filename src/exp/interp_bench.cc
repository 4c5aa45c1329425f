#include "exp/interp_bench.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>

#include "common/report_envelope.h"
#include "exp/run_record.h"
#include "exp/spec_grid.h"

namespace kivati {
namespace exp {
namespace {

RunSpec CellSpec(const InterpBenchSpec& bench, const std::string& config) {
  RunSpec spec;
  spec.scale = bench.scale;
  spec.machine.seed = bench.seed;
  spec.machine.num_cores = bench.cores;
  spec.machine.watchpoints_per_core = bench.watchpoints;
  spec.budget = bench.max_cycles;
  spec.mode = KivatiMode::kPrevention;
  if (config == "vanilla") {
    spec.vanilla = true;
  } else if (!ParsePreset(config, &spec.preset)) {
    throw std::runtime_error("unknown bench config '" + config +
                             "' (vanilla, base, null, syncvars, optimized)");
  }
  return spec;
}

// One timed cell: one untimed warmup, then `repeats` identical timed runs;
// the median wall time is reported.
InterpBenchEntry Measure(const RunSpec& cell, const std::shared_ptr<const apps::App>& app,
                         const std::shared_ptr<const ProgramImage>& image, unsigned repeats,
                         const std::string& engine) {
  InterpBenchEntry entry;
  entry.engine = engine;
  RunSpec spec = cell;
  spec.machine.block_translate = engine == "block";
  spec.prebuilt = app;
  spec.image = image;
  entry.label = SpecLabel(spec);
  std::vector<double> walls;
  walls.reserve(repeats);
  for (unsigned rep = 0; rep <= repeats; ++rep) {
    BuiltRun run = BuildEngine(spec, app);
    const auto start = std::chrono::steady_clock::now();
    const RunResult result = run.engine->Run(spec.budget.value_or(
        app->workload.default_max_cycles));
    const double wall_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
            .count();
    if (rep == 0) {
      // Warmup: keep the simulated outcome for the determinism check, drop
      // the wall time.
      entry.cycles = result.cycles;
      entry.instructions = result.instructions;
      continue;
    }
    if (result.cycles != entry.cycles || result.instructions != entry.instructions) {
      throw std::runtime_error("nondeterministic bench cell " + entry.label);
    }
    walls.push_back(wall_ms);
  }
  std::sort(walls.begin(), walls.end());
  const std::size_t n = walls.size();
  entry.median_wall_ms =
      (n % 2 == 1) ? walls[n / 2] : (walls[n / 2 - 1] + walls[n / 2]) / 2.0;
  const double seconds = entry.median_wall_ms / 1000.0;
  if (seconds > 0.0) {
    entry.mcycles_per_sec = static_cast<double>(entry.cycles) / seconds / 1e6;
    entry.mips = static_cast<double>(entry.instructions) / seconds / 1e6;
  }
  return entry;
}

}  // namespace

std::vector<InterpBenchEntry> RunInterpBench(
    const InterpBenchSpec& bench,
    const std::function<void(const InterpBenchEntry&)>& progress) {
  if (bench.apps.empty() || bench.configs.empty()) {
    throw std::runtime_error("bench-interp needs at least one app and one config");
  }
  if (bench.repeats == 0) {
    throw std::runtime_error("bench-interp needs --repeats >= 1");
  }
  std::vector<std::string> engines;
  if (bench.include_block) engines.push_back("block");
  if (bench.include_fast) engines.push_back("fast");
  if (engines.empty()) {
    throw std::runtime_error("bench-interp needs at least one engine");
  }
  std::vector<InterpBenchEntry> entries;
  for (const std::string& app_name : bench.apps) {
    const auto app = MakeRegisteredApp(app_name, bench.scale);
    const auto image = MakeProgramImage(app->workload.program);
    for (const std::string& config : bench.configs) {
      const RunSpec cell = CellSpec(bench, config);
      InterpBenchEntry first;
      bool have_first = false;
      for (const std::string& engine : engines) {
        InterpBenchEntry entry = Measure(cell, app, image, bench.repeats, engine);
        // Every engine must simulate the identical run; a divergence here
        // is a correctness bug, not a perf result.
        if (have_first &&
            (entry.cycles != first.cycles || entry.instructions != first.instructions)) {
          throw std::runtime_error("engine divergence (" + first.engine + " vs " +
                                   entry.engine + ") in bench cell " + entry.label);
        }
        if (!have_first) {
          first = entry;
          have_first = true;
        }
        entries.push_back(std::move(entry));
        if (progress) {
          progress(entries.back());
        }
      }
    }
  }
  return entries;
}

std::string InterpBenchJson(const std::vector<InterpBenchEntry>& entries) {
  report::Envelope envelope;
  envelope.kind = "kivati_interp_bench";
  envelope.schema_version = 2;
  std::string out = report::EnvelopePrefix(envelope);
  out += "\"entries\":[";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const InterpBenchEntry& e = entries[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"label\":\"%s\",\"engine\":\"%s\",\"cycles\":%llu,"
                  "\"instructions\":%llu,\"median_wall_ms\":%.3f,"
                  "\"mcycles_per_sec\":%.3f,\"mips\":%.3f}",
                  i == 0 ? "" : ",", e.label.c_str(), e.engine.c_str(),
                  static_cast<unsigned long long>(e.cycles),
                  static_cast<unsigned long long>(e.instructions), e.median_wall_ms,
                  e.mcycles_per_sec, e.mips);
    out += buf;
  }
  out += "]}\n";
  return out;
}

}  // namespace exp
}  // namespace kivati
