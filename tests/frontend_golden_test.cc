// The frontend's outputs, pinned. Every app, corpus bug, analyze example and
// generated program is compiled under the four annotator configurations
// (interprocedural x precise aliasing) and once with pruning and
// correlation off. Each compile's disassembled program, conflict report
// JSON, correlation report JSON and AR infos are hashed (FNV-1a 64) and
// compared with tests/golden/frontend_digests.txt. Set-up work must leave
// all of them byte-identical.
//
// When a change means to alter an output, the test writes what it computed
// to frontend_digests.actual in its working directory (build/tests under
// ctest): check the lines that changed, then copy it over the golden file.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "apps/bugs.h"
#include "apps/workloads.h"
#include "compile/compiler.h"
#include "isa/disasm.h"
#include "tests/program_generator.h"
#include "tests/test_util.h"

namespace kivati {
namespace {

std::uint64_t Fnv1a64(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string Hex(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, value);
  return buf;
}

// Every field of every AR's debug info, and the sync-variable ARs.
std::string ArInfosText(const CompiledProgram& compiled) {
  std::ostringstream out;
  for (const ArDebugInfo& info : compiled.ar_infos) {
    out << info.id << ' ' << info.function << ' ' << info.variable << ' ' << info.line << ' '
        << ToString(info.first_type) << ' ' << ToString(info.watch) << ' ' << info.is_sync << ' '
        << info.num_ends << ' ' << info.group << ' ' << ToString(info.joint_types) << ' '
        << info.synthesized;
    for (const std::string& member : info.correlated) {
      out << ' ' << member;
    }
    out << '\n';
  }
  std::vector<ArId> sync(compiled.sync_ars.begin(), compiled.sync_ars.end());
  std::sort(sync.begin(), sync.end());
  out << "sync";
  for (const ArId id : sync) {
    out << ' ' << id;
  }
  out << '\n';
  return out.str();
}

struct Input {
  std::string name;
  std::string source;
  std::vector<std::pair<std::string, int>> roots;  // empty: every function concurrent
};

std::string ReadExample(const std::string& name) {
  std::ifstream in(std::string(KIVATI_EXAMPLES_DIR) + "/analyze/" + name);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

std::vector<Input> Inputs() {
  std::vector<Input> inputs;
  for (const apps::App& app : apps::AllPerformanceApps()) {
    inputs.push_back({app.workload.name, app.source, ThreadRoots(app.workload.threads)});
  }
  for (const auto* corpus : {&apps::BugCorpus(), &apps::MultiVarBugCorpus()}) {
    for (const apps::BugInfo& bug : *corpus) {
      const apps::App app = apps::MakeBugApp(bug);
      inputs.push_back({app.workload.name, app.source, ThreadRoots(app.workload.threads)});
    }
  }
  // The threads docs/analysis.md runs the examples with, and no roots at
  // all, as `kivati annotate` and `kivati analyze` without --threads do.
  const std::string mixed = ReadExample("mixed.kv");
  const std::string window = ReadExample("window.kv");
  inputs.push_back({"mixed.kv", mixed, {{"main", 1}}});
  inputs.push_back({"mixed.kv, no roots", mixed, {}});
  inputs.push_back({"window.kv", window, {{"worker", 2}}});
  inputs.push_back({"window.kv, no roots", window, {}});
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    inputs.push_back({"generated " + std::to_string(seed),
                      testing::ProgramGenerator(seed).Generate(),
                      {{"worker", 2}}});
  }
  return inputs;
}

struct Config {
  const char* name;
  bool interprocedural;
  bool precise_aliasing;
  bool prune_and_correlate;
};

constexpr Config kConfigs[] = {
    {"paper", false, false, true},
    {"interprocedural", true, false, true},
    {"precise-aliasing", false, true, true},
    {"interprocedural+precise-aliasing", true, true, true},
    {"no-prune,no-correlate", false, false, false},
};

// One line per (input, configuration): name, configuration, and the four
// digests.
std::string ComputeDigests() {
  std::string out;
  for (const Input& input : Inputs()) {
    EXPECT_FALSE(input.source.empty()) << input.name;
    for (const Config& config : kConfigs) {
      CompileOptions options;
      options.frontend.annotator.interprocedural = config.interprocedural;
      options.frontend.annotator.precise_aliasing = config.precise_aliasing;
      options.frontend.prune = config.prune_and_correlate;
      options.frontend.correlate = config.prune_and_correlate;
      options.roots = input.roots;
      const CompiledProgram compiled = CompileSource(input.source, options);
      out += input.name + '\t' + config.name;
      out += "\tdisasm=" + Hex(Fnv1a64(DisassembleProgram(compiled.program)));
      out += " conflict=" + Hex(Fnv1a64(ConflictReportJson(compiled.conflict, compiled.ar_infos)));
      out += " correlation=" + Hex(Fnv1a64(CorrelationReportJson(compiled.correlation)));
      out += " ars=" + Hex(Fnv1a64(ArInfosText(compiled)));
      out += '\n';
    }
  }
  return out;
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    lines.push_back(line);
  }
  return lines;
}

TEST(FrontendGoldenTest, OutputsMatchTheCommittedDigests) {
  std::ifstream in(std::string(KIVATI_GOLDEN_DIR) + "/frontend_digests.txt");
  EXPECT_TRUE(in) << "missing tests/golden/frontend_digests.txt";
  std::stringstream golden;
  if (in) {
    golden << in.rdbuf();
  }
  const std::string actual = ComputeDigests();
  if (actual == golden.str()) {
    return;
  }
  std::ofstream("frontend_digests.actual") << actual;
  const std::vector<std::string> want = Lines(golden.str());
  const std::vector<std::string> got = Lines(actual);
  EXPECT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    EXPECT_EQ(got[i], want[i]) << "line " << i + 1;
  }
  ADD_FAILURE() << "computed digests written to frontend_digests.actual";
}

}  // namespace
}  // namespace kivati
