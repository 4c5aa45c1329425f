// Integration tests of the `kivati` command-line tool: drives the real
// binary (path injected by CMake) over temp program files and checks its
// output and exit codes.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/report_envelope.h"

namespace kivati {
namespace {

#ifndef KIVATI_CLI_PATH
#error "KIVATI_CLI_PATH must be defined by the build"
#endif

struct CommandResult {
  int exit_code = -1;
  std::string output;
};

CommandResult RunWithRedirect(const std::string& args, const std::string& redirect) {
  const std::string command = std::string(KIVATI_CLI_PATH) + " " + args + " " + redirect;
  std::array<char, 4096> buffer;
  CommandResult result;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) {
    return result;
  }
  while (fgets(buffer.data(), buffer.size(), pipe) != nullptr) {
    result.output += buffer.data();
  }
  const int status = pclose(pipe);
  result.exit_code = WEXITSTATUS(status);
  return result;
}

CommandResult RunCli(const std::string& args) { return RunWithRedirect(args, "2>&1"); }

// Captures stdout only — for checking that --json keeps stdout pure.
CommandResult RunCliStdout(const std::string& args) {
  return RunWithRedirect(args, "2>/dev/null");
}

// Asserts `text` is exactly one JSON document, an object, and returns it.
// Any human-readable line leaking onto stdout, and any string the writer
// failed to escape, makes the parse fail.
report::Json ExpectSingleJsonDocument(const std::string& text) {
  report::Json document;
  try {
    document = report::ParseJson(text);
  } catch (const std::runtime_error& error) {
    ADD_FAILURE() << error.what() << " in stdout:\n" << text;
    return document;
  }
  EXPECT_EQ(document.type, report::Json::Type::kObject) << "stdout is not a JSON object:\n"
                                                        << text;
  return document;
}

std::string ReadFileToString(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Drops the host-wall-clock fields so two JSON records of the same virtual
// run compare equal.
std::string StripWallClock(std::string json) {
  json = std::regex_replace(json, std::regex("\"wall_ms\":[0-9.]+,"), "");
  json = std::regex_replace(json, std::regex("\"workers\":[0-9]+,"), "");
  return json;
}

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-test directory: ctest runs the cases in parallel, and a shared
    // directory would be torn down under a still-running sibling.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::filesystem::temp_directory_path() /
           (std::string("kivati_cli_test_") + info->name());
    std::filesystem::create_directories(dir_);
    program_ = (dir_ / "prog.kv").string();
    std::ofstream out(program_);
    out << R"(
      int counter;
      sync int m;
      void racer(int id) {
        for (int i = 0; i < 40; i = i + 1) {
          int t = counter;
          for (int k = 0; k < 150; k = k + 1) { t = t + 0; }
          counter = t + 1;
        }
      }
      void safe(int id) {
        for (int i = 0; i < 40; i = i + 1) {
          lock(m);
          counter = counter + 1;
          unlock(m);
        }
      }
    )";
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  // Writes a module whose len/buf pair correlates (co-accessed in two
  // functions, support 2) and fuses; returns its path.
  std::string WritePairProgram() {
    const std::string path = (dir_ / "pair.kv").string();
    std::ofstream out(path);
    out << R"(
      int len;
      int buf;
      void writer_a(int x) { int t = len; buf = x; len = t + 1; }
      void writer_b(int x) { int t = len; buf = x; len = t + 1; }
    )";
    return path;
  }

  std::filesystem::path dir_;
  std::string program_;
};

TEST_F(CliTest, AnnotateListsRegions) {
  const CommandResult result = RunCli("annotate " + program_);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("atomic region(s):"), std::string::npos);
  EXPECT_NE(result.output.find("counter"), std::string::npos);
  EXPECT_NE(result.output.find("[sync var]"), std::string::npos);
}

TEST_F(CliTest, AnnotateDisasmShowsAnnotations) {
  const CommandResult result = RunCli("annotate " + program_ + " --disasm");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("begin_atomic"), std::string::npos);
  EXPECT_NE(result.output.find("end_atomic"), std::string::npos);
  EXPECT_NE(result.output.find("clear_ar"), std::string::npos);
}

TEST_F(CliTest, AnnotateJsonEmitsTable) {
  const CommandResult result = RunCliStdout("annotate " + program_ + " --json");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("\"kind\":\"kivati_annotate\""), std::string::npos);
  EXPECT_NE(result.output.find("\"variable\":\"counter\""), std::string::npos);
  EXPECT_NE(result.output.find("\"watch\":"), std::string::npos);
  EXPECT_NE(result.output.find("\"ends\":"), std::string::npos);
  // The human table moved to stderr: stdout is pure JSON.
  EXPECT_EQ(result.output.find("atomic region(s):"), std::string::npos);
}

// A control character in the source path is escaped, so the report stays
// valid JSON.
TEST_F(CliTest, AnnotateJsonEscapesControlCharactersInSource) {
  const std::string path = (dir_ / "tab\there.kv").string();
  std::filesystem::copy_file(program_, path);
  const CommandResult result = RunCliStdout("annotate '" + path + "' --json");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  ExpectSingleJsonDocument(result.output);
  EXPECT_NE(result.output.find("tab\\there.kv\""), std::string::npos) << result.output;
  EXPECT_EQ(result.output.find('\t'), std::string::npos) << result.output;
}

TEST_F(CliTest, AnnotateJsonCarriesCorrelationColumns) {
  // Every AR row carries the correlated-variable columns; on a module where
  // nothing fuses they hold the neutral values and the envelope stays a
  // single JSON document.
  const CommandResult plain = RunCliStdout("annotate " + program_ + " --json");
  EXPECT_EQ(plain.exit_code, 0) << plain.output;
  ExpectSingleJsonDocument(plain.output);
  EXPECT_NE(plain.output.find("\"group\":0"), std::string::npos);
  EXPECT_NE(plain.output.find("\"correlated\":[]"), std::string::npos);
  EXPECT_EQ(plain.output.find("\"synthesized\":true"), std::string::npos);

  const std::string pair = WritePairProgram();
  const CommandResult fused = RunCliStdout("annotate " + pair + " --json");
  EXPECT_EQ(fused.exit_code, 0) << fused.output;
  ExpectSingleJsonDocument(fused.output);
  EXPECT_NE(fused.output.find("\"group\":1"), std::string::npos);
  EXPECT_NE(fused.output.find("\"synthesized\":true"), std::string::npos);
  EXPECT_NE(fused.output.find("\"correlated\":[\"len\"]"), std::string::npos);

  // The human table labels set membership.
  const CommandResult human = RunCli("annotate " + pair);
  EXPECT_EQ(human.exit_code, 0) << human.output;
  EXPECT_NE(human.output.find("[set 1"), std::string::npos);

  // --no-correlate leaves every AR single-variable.
  const CommandResult off = RunCliStdout("annotate " + pair + " --json --no-correlate");
  EXPECT_EQ(off.exit_code, 0) << off.output;
  ExpectSingleJsonDocument(off.output);
  EXPECT_EQ(off.output.find("\"group\":1"), std::string::npos);
  EXPECT_EQ(off.output.find("\"synthesized\":true"), std::string::npos);
}

TEST_F(CliTest, AnalyzeJsonCarriesCorrelationSection) {
  const std::string pair = WritePairProgram();
  const CommandResult result =
      RunCliStdout("analyze " + pair + " --threads writer_a:0,writer_b:1 --json");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  ExpectSingleJsonDocument(result.output);
  EXPECT_NE(result.output.find("\"correlation\":{"), std::string::npos);
  EXPECT_NE(result.output.find("\"kept\":1"), std::string::npos);
  EXPECT_NE(result.output.find("\"members\":[\"len\",\"buf\"]"), std::string::npos);

  const CommandResult human = RunCli("analyze " + pair + " --threads writer_a:0,writer_b:1");
  EXPECT_EQ(human.exit_code, 0) << human.output;
  EXPECT_NE(human.output.find("correlated sets: 1 kept"), std::string::npos);

  const CommandResult off =
      RunCli("analyze " + pair + " --threads writer_a:0,writer_b:1 --no-correlate");
  EXPECT_EQ(off.exit_code, 0) << off.output;
  EXPECT_NE(off.output.find("correlated sets: skipped (--no-correlate)"), std::string::npos);
}

TEST_F(CliTest, AnalyzeReportsVerdicts) {
  const CommandResult result = RunCli("analyze " + program_ + " --threads racer:0,safe:1");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("conflict analysis:"), std::string::npos);
  EXPECT_NE(result.output.find("watch-required"), std::string::npos);
  // Both threads write `counter`, one without the lock, so the racer pair
  // keeps its watch and lists the remote writer.
  EXPECT_NE(result.output.find("remote site"), std::string::npos);
}

TEST_F(CliTest, AnalyzeJsonKeepsStdoutPure) {
  const CommandResult result =
      RunCliStdout("analyze " + program_ + " --threads racer:0,racer:1 --json");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("\"kind\":\"kivati_analyze\""), std::string::npos);
  EXPECT_NE(result.output.find("\"verdict\":"), std::string::npos);
  EXPECT_EQ(result.output.find("conflict analysis:"), std::string::npos);
}

TEST_F(CliTest, AnalyzeRegisteredApp) {
  const CommandResult result = RunCliStdout("analyze --app nss --json");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("\"kind\":\"kivati_analyze\""), std::string::npos);
  EXPECT_NE(result.output.find("\"verdict\":\"lock-protected\""), std::string::npos);

  const CommandResult bad = RunCli("analyze --app nosuchapp");
  EXPECT_NE(bad.exit_code, 0);
  EXPECT_NE(bad.output.find("unknown app"), std::string::npos);

  const CommandResult neither = RunCli("analyze");
  EXPECT_NE(neither.exit_code, 0);
  EXPECT_NE(neither.output.find("source FILE or --app"), std::string::npos);
}

TEST_F(CliTest, AnalyzeRejectsUnknownRoot) {
  const CommandResult result = RunCli("analyze " + program_ + " --threads nosuch:0");
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.output.find("no function"), std::string::npos);
}

TEST_F(CliTest, NoPruneKeepsAllAnnotations) {
  // Pruned vs unpruned verdict counts are identical; only the pruned set
  // changes, and a run's JSON record carries the census either way.
  const CommandResult pruned = RunCli("analyze " + program_ + " --threads safe:0,safe:1");
  EXPECT_EQ(pruned.exit_code, 0) << pruned.output;
  EXPECT_NE(pruned.output.find("lock-protected"), std::string::npos);

  const CommandResult kept =
      RunCli("analyze " + program_ + " --threads safe:0,safe:1 --no-prune");
  EXPECT_EQ(kept.exit_code, 0) << kept.output;
  EXPECT_NE(kept.output.find("(0 pruned)"), std::string::npos);

  const CommandResult run =
      RunCli("run " + program_ + " --threads racer:0,racer:1 --seed 3 --no-prune --json -");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("\"ars_pruned\":0"), std::string::npos);
}

TEST_F(CliTest, RunReportsViolations) {
  const CommandResult result =
      RunCli("run " + program_ + " --threads racer:0,racer:1 --preset base --seed 9");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("completed"), std::string::npos);
  EXPECT_NE(result.output.find("violation"), std::string::npos);
  EXPECT_NE(result.output.find("kernel crossings"), std::string::npos);
}

TEST_F(CliTest, VanillaRunSkipsKivati) {
  const CommandResult result =
      RunCli("run " + program_ + " --threads racer:0,racer:1 --vanilla");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("completed"), std::string::npos);
  EXPECT_EQ(result.output.find("kernel crossings"), std::string::npos);
}

TEST_F(CliTest, TrainProducesWhitelistThatSilencesRun) {
  const std::string whitelist = (dir_ / "wl.txt").string();
  const CommandResult train =
      RunCli("train " + program_ + " --threads racer:0,racer:1 --iterations 4 "
             "--save-whitelist " + whitelist);
  EXPECT_EQ(train.exit_code, 0) << train.output;
  EXPECT_NE(train.output.find("false positives per iteration"), std::string::npos);
  ASSERT_TRUE(std::filesystem::exists(whitelist));

  const CommandResult run = RunCli("run " + program_ + " --threads racer:0,racer:1 "
                                   "--preset base --seed 9 --whitelist " + whitelist);
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_NE(run.output.find("no atomicity violations detected"), std::string::npos);
}

TEST_F(CliTest, TraceOutWritesStructuredJsonl) {
  const std::string trace = (dir_ / "run.jsonl").string();
  const CommandResult result =
      RunCli("run " + program_ + " --threads racer:0,racer:1 --preset base --seed 9 "
             "--trace-out=" + trace);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  // The stats summary gains the derived histograms.
  EXPECT_NE(result.output.find("suspension latency (cycles):"), std::string::npos);
  EXPECT_NE(result.output.find("AR duration (cycles):"), std::string::npos);
  ASSERT_TRUE(std::filesystem::exists(trace));

  std::ifstream in(trace);
  std::string line;
  std::size_t lines = 0;
  long long previous = -1;
  bool saw_begin = false, saw_trap = false, saw_suspend = false, saw_violation = false;
  while (std::getline(in, line)) {
    ++lines;
    // One JSON object per line with a leading cycle stamp.
    ASSERT_EQ(line.front(), '{') << line;
    ASSERT_EQ(line.back(), '}') << line;
    const std::string prefix = "{\"t\":";
    ASSERT_EQ(line.rfind(prefix, 0), 0u) << line;
    const long long t = std::stoll(line.substr(prefix.size()));
    EXPECT_GE(t, previous) << "timestamps must be non-decreasing: " << line;
    previous = t;
    saw_begin = saw_begin || line.find("\"kind\":\"begin_atomic\"") != std::string::npos;
    saw_trap = saw_trap || line.find("\"kind\":\"trap\"") != std::string::npos;
    saw_suspend = saw_suspend || line.find("\"kind\":\"suspend\"") != std::string::npos;
    saw_violation = saw_violation || line.find("\"kind\":\"violation\"") != std::string::npos;
  }
  EXPECT_GT(lines, 0u);
  EXPECT_TRUE(saw_begin);
  EXPECT_TRUE(saw_trap);
  EXPECT_TRUE(saw_suspend);
  EXPECT_TRUE(saw_violation);
}

TEST_F(CliTest, TraceEventsFilterAndBadKindFails) {
  const std::string trace = (dir_ / "filtered.jsonl").string();
  const CommandResult result =
      RunCli("run " + program_ + " --threads racer:0,racer:1 --preset base --seed 9 "
             "--trace-out=" + trace + " --trace-events=violation");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  std::ifstream in(trace);
  std::string line;
  while (std::getline(in, line)) {
    EXPECT_NE(line.find("\"kind\":\"violation\""), std::string::npos) << line;
  }

  const CommandResult bad =
      RunCli("run " + program_ + " --threads racer:0,racer:1 "
             "--trace-out=" + trace + " --trace-events=nosuchkind");
  EXPECT_NE(bad.exit_code, 0);
  EXPECT_NE(bad.output.find("nosuchkind"), std::string::npos);
}

TEST_F(CliTest, UnknownFunctionFails) {
  const CommandResult result = RunCli("run " + program_ + " --threads nosuch:0");
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.output.find("no function"), std::string::npos);
}

TEST_F(CliTest, ParseErrorsSurface) {
  const std::string bad = (dir_ / "bad.kv").string();
  std::ofstream(bad) << "void f( { }";
  const CommandResult result = RunCli("annotate " + bad);
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.output.find("expected"), std::string::npos);
}

// A usage error names the bad option, then lists the command's options
// with their help on stderr.
TEST_F(CliTest, UnknownOptionFails) {
  const CommandResult result =
      RunWithRedirect("run " + program_ + " --bogus", "2>&1 >/dev/null");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("kivati: unknown option '--bogus'"), std::string::npos)
      << result.output;
  EXPECT_TRUE(std::regex_search(result.output,
                                std::regex("\n  --max-cycles +virtual cycle budget\n")))
      << result.output;
}

TEST_F(CliTest, MalformedNumericOptionsAreRejected) {
  // Each of these used to slip through strtoul/atoi as garbage values.
  for (const std::string args : {"--cores abc", "--cores 0", "--watchpoints 0",
                                 "--seed 12x", "--max-cycles 0", "--threads racer:xyz",
                                 "--threads ,", "--pause-ms nope"}) {
    const CommandResult result = RunCli("run " + program_ + " " + args);
    EXPECT_NE(result.exit_code, 0) << args << ": " << result.output;
    EXPECT_NE(result.output.find("kivati:"), std::string::npos) << args;
  }
  const CommandResult train = RunCli("train " + program_ + " --iterations -3");
  EXPECT_NE(train.exit_code, 0);
  EXPECT_NE(train.output.find("out of range"), std::string::npos) << train.output;
}

TEST_F(CliTest, RunJsonEmitsRunRecord) {
  const CommandResult result =
      RunCli("run " + program_ + " --threads racer:0,racer:1 --preset base --seed 9 --json -");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("\"config\":\"base\""), std::string::npos);
  EXPECT_NE(result.output.find("\"seed\":9"), std::string::npos);
  EXPECT_NE(result.output.find("\"stats\":{"), std::string::npos);
  EXPECT_NE(result.output.find("\"wall_ms\""), std::string::npos);

  const std::string json = (dir_ / "run.json").string();
  const CommandResult to_file =
      RunCli("run " + program_ + " --threads racer:0,racer:1 --json " + json);
  EXPECT_EQ(to_file.exit_code, 0) << to_file.output;
  ASSERT_TRUE(std::filesystem::exists(json));
}

TEST_F(CliTest, SweepSourceFileGridEmitsReport) {
  const std::string json = (dir_ / "sweep.json").string();
  const CommandResult result =
      RunCli("sweep " + program_ + " --threads racer:0,racer:1 "
             "--presets base,optimized --seeds 1..3 --with-vanilla -j 2 --json " + json);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  // 3 seeds × (2 presets + vanilla baseline).
  EXPECT_NE(result.output.find("sweep: 9 run(s)"), std::string::npos) << result.output;

  ASSERT_TRUE(std::filesystem::exists(json));
  std::ifstream in(json);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string report = buffer.str();
  EXPECT_NE(report.find("\"kind\":\"kivati_sweep\""), std::string::npos);
  EXPECT_NE(report.find("\"runs_total\":9"), std::string::npos);
  EXPECT_NE(report.find("/vanilla/"), std::string::npos);
  EXPECT_NE(report.find("/base/prevention/"), std::string::npos);
  EXPECT_EQ(report.find("\"error\""), std::string::npos) << report;
}

TEST_F(CliTest, SweepRejectsBadGrids) {
  const CommandResult none = RunCli("sweep --seeds 1,2");
  EXPECT_NE(none.exit_code, 0);
  EXPECT_NE(none.output.find("--apps or a source FILE"), std::string::npos);

  const CommandResult bad_app = RunCli("sweep --apps nosuchapp");
  EXPECT_NE(bad_app.exit_code, 0);
  EXPECT_NE(bad_app.output.find("unknown app"), std::string::npos);

  const CommandResult bad_seeds = RunCli("sweep --apps nss --seeds 5..2");
  EXPECT_NE(bad_seeds.exit_code, 0);

  const CommandResult both = RunCli("sweep " + program_ + " --apps nss");
  EXPECT_NE(both.exit_code, 0);
  EXPECT_NE(both.output.find("not both"), std::string::npos);
}

// Satellite audit: every --json mode must keep stdout a single JSON document
// with all human-readable reporting on stderr, and that document must be a
// report::Envelope — "kind" (a "kivati_"-prefixed name) as the first key and
// an integral "schema_version" as the second, so downstream tooling can
// dispatch on the first bytes of any report.
TEST_F(CliTest, JsonModesEmitExactlyOneEnvelopeDocument) {
  const std::string trace = (dir_ / "trace.json").string();
  const CommandResult record =
      RunCli("run " + program_ + " --threads racer:0,racer:1 --preset base --seed 9 "
             "--record-schedule " + trace);
  ASSERT_EQ(record.exit_code, 0) << record.output;
  ASSERT_TRUE(std::filesystem::exists(trace));

  struct Mode {
    std::string kind;
    std::string args;
  };
  const std::vector<Mode> modes = {
      {"kivati_annotate", "annotate " + program_ + " --json"},
      {"kivati_analyze", "analyze " + program_ + " --threads racer:0,racer:1 --json"},
      {"kivati_run",
       "run " + program_ + " --threads racer:0,racer:1 --preset base --seed 9 --json -"},
      {"kivati_sweep", "sweep " + program_ + " --threads racer:0,racer:1 --seeds 1,2 --json -"},
      {"kivati_run", "replay " + trace + " --json -"},
      {"kivati_shrink", "shrink " + trace + " --max-runs 12 --json -"},
      {"kivati_fuzz",
       "fuzz --bug NSS-329072 --seed 7 --schedules 2 --plateau 2 --shrink-runs 4 "
       "--max-cycles 2000000 --json -"},
      {"kivati_compare",
       "compare --bug NSS-329072 --max-cycles 3000000 --json -"},
      {"kivati_interp_bench",
       "bench-interp --apps nss --configs base --repeats 1 --max-cycles 400000 --json -"},
  };
  for (const auto& mode : modes) {
    SCOPED_TRACE(mode.kind + ": " + mode.args);
    const CommandResult result = RunCliStdout(mode.args);
    EXPECT_EQ(result.exit_code, 0) << result.output;
    const report::Json document = ExpectSingleJsonDocument(result.output);
    ASSERT_GE(document.object.size(), 2u) << result.output.substr(0, 120);
    EXPECT_EQ(document.object[0].first, "kind");
    EXPECT_EQ(document.object[0].second.string, mode.kind);
    EXPECT_EQ(document.object[1].first, "schema_version");
    EXPECT_TRUE(document.object[1].second.is_uint);
  }
}

// Every report that echoes the source path escapes a control character in
// it, so each --json mode stays one valid JSON document.
TEST_F(CliTest, JsonModesEscapeAControlCharacterInTheSourcePath) {
  const std::string path = (dir_ / "tab\tprog.kv").string();
  std::filesystem::copy_file(program_, path);
  const std::string file = "'" + path + "'";
  for (const std::string& args : {
           "annotate " + file + " --json",
           "analyze " + file + " --threads racer:0,racer:1 --json",
           "run " + file + " --threads racer:0,racer:1 --preset base --seed 9 --json -",
           "sweep " + file + " --threads racer:0,racer:1 --seeds 1 --json -",
           "fuzz " + file + " --threads racer:0,racer:1 --seed 7 --schedules 2 --plateau 2 "
               "--shrink-runs 4 --max-cycles 2000000 --json -",
           "compare " + file + " --threads racer:0,racer:1 --max-cycles 2000000 --json -",
       }) {
    SCOPED_TRACE(args);
    const CommandResult result = RunCliStdout(args);
    EXPECT_EQ(result.exit_code, 0) << result.output;
    ExpectSingleJsonDocument(result.output);
  }
}

TEST_F(CliTest, BenchInterpTakesACoreList) {
  const CommandResult result =
      RunCliStdout("bench-interp --apps nss --configs vanilla --cores 1,3 --block-only "
                   "--repeats 1 --max-cycles 200000 --json -");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("/c1w4/"), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("/c3w4/"), std::string::npos) << result.output;
  for (const std::string args : {"--cores 0", "--cores 2,x"}) {
    const CommandResult bad = RunCli("bench-interp --apps nss " + args);
    EXPECT_NE(bad.exit_code, 0) << args << ": " << bad.output;
    EXPECT_NE(bad.output.find("--cores"), std::string::npos) << args;
  }
}

// Satellite back-compat audit: with the default event selection (the
// transition kinds), the JSONL and Chrome trace exports are byte-identical
// to the goldens recorded before the TraceSink refactor — attaching the hub
// between the emit sites and the EventLog changed no observable output.
TEST_F(CliTest, TraceExportsMatchPreSinkGoldens) {
  const std::string golden = std::string(KIVATI_GOLDEN_DIR) + "/trace_backcompat";
  const std::string program = golden + ".kv";
  ASSERT_TRUE(std::filesystem::exists(program)) << program;

  const std::string jsonl = (dir_ / "trace.jsonl").string();
  const CommandResult run_jsonl =
      RunCli("run " + program + " --threads racer:0,safe:1 --preset base --seed 9 "
             "--trace-out=" + jsonl);
  ASSERT_EQ(run_jsonl.exit_code, 0) << run_jsonl.output;
  EXPECT_EQ(ReadFileToString(jsonl), ReadFileToString(golden + ".jsonl"))
      << "JSONL export drifted from tests/golden/trace_backcompat.jsonl";

  const std::string chrome = (dir_ / "trace.chrome.json").string();
  const CommandResult run_chrome =
      RunCli("run " + program + " --threads racer:0,safe:1 --preset base --seed 9 "
             "--trace-out=" + chrome);
  ASSERT_EQ(run_chrome.exit_code, 0) << run_chrome.output;
  EXPECT_EQ(ReadFileToString(chrome), ReadFileToString(golden + ".chrome.json"))
      << "Chrome export drifted from tests/golden/trace_backcompat.chrome.json";
}

// The hb oracle rides along on a normal run via --hb: the human report gains
// the oracle line and the JSON record gains the "hb" block.
TEST_F(CliTest, RunWithHbOracleReportsRacesAndJsonBlock) {
  const CommandResult result = RunCli(
      "run " + program_ + " --threads racer:0,racer:1 --preset base --seed 9 --hb");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("hb oracle:"), std::string::npos) << result.output;

  const CommandResult json = RunCliStdout(
      "run " + program_ + " --threads racer:0,racer:1 --preset base --seed 9 --hb --json -");
  EXPECT_EQ(json.exit_code, 0) << json.output;
  ExpectSingleJsonDocument(json.output);
  EXPECT_NE(json.output.find("\"hb\":{\"races\":"), std::string::npos) << json.output;
  EXPECT_NE(json.output.find("\"overhead_ops\":"), std::string::npos) << json.output;

  // Without the flag the block is absent — performance runs pay nothing.
  const CommandResult plain = RunCliStdout(
      "run " + program_ + " --threads racer:0,racer:1 --preset base --seed 9 --json -");
  EXPECT_EQ(plain.output.find("\"hb\":"), std::string::npos);
}

// The compare command: both backends over the same execution, human table
// plus envelope JSON, and name validation.
TEST_F(CliTest, CompareRunsBothBackendsSideBySide) {
  const CommandResult human = RunCli("compare --bug NSS-329072 --max-cycles 3000000");
  EXPECT_EQ(human.exit_code, 0) << human.output;
  EXPECT_NE(human.output.find("kivati"), std::string::npos);
  EXPECT_NE(human.output.find("hb"), std::string::npos);
  EXPECT_NE(human.output.find("overhead"), std::string::npos) << human.output;

  const CommandResult json =
      RunCliStdout("compare --bug NSS-329072 --max-cycles 3000000 --json -");
  EXPECT_EQ(json.exit_code, 0) << json.output;
  ExpectSingleJsonDocument(json.output);
  EXPECT_NE(json.output.find("\"overhead_ratio\":"), std::string::npos) << json.output;
  // The HB oracle convicts this bug from any execution; Kivati catches the
  // interleaving within this budget too.
  EXPECT_NE(json.output.find("\"kivati_found_bug\":true"), std::string::npos) << json.output;
  EXPECT_NE(json.output.find("\"hb_found_bug\":true"), std::string::npos) << json.output;

  const CommandResult unknown = RunCli("compare --bug nosuch-1");
  EXPECT_NE(unknown.exit_code, 0);
  EXPECT_NE(unknown.output.find("unknown bug"), std::string::npos);
}

// compare FILE starts the --threads list, as run does; without it, main.
TEST_F(CliTest, CompareFileStartsTheThreadsList) {
  const CommandResult result =
      RunCli("compare " + program_ + " --threads racer:0,racer:1 --max-cycles 2000000");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("kivati"), std::string::npos) << result.output;

  const CommandResult no_main = RunCli("compare " + program_ + " --max-cycles 2000000");
  EXPECT_EQ(no_main.exit_code, 2) << no_main.output;
  EXPECT_NE(no_main.output.find("no function 'main'"), std::string::npos) << no_main.output;
}

TEST_F(CliTest, RecordedScheduleReplaysByteIdentical) {
  const std::string trace = (dir_ / "trace.json").string();
  const std::string recorded = (dir_ / "recorded.json").string();
  const std::string replayed = (dir_ / "replayed.json").string();

  const CommandResult record =
      RunCli("run " + program_ + " --threads racer:0,racer:1 --preset base --seed 9 "
             "--record-schedule " + trace + " --json " + recorded);
  ASSERT_EQ(record.exit_code, 0) << record.output;
  EXPECT_NE(record.output.find("schedule: recorded"), std::string::npos) << record.output;

  const CommandResult replay = RunCli("replay " + trace + " --json " + replayed);
  ASSERT_EQ(replay.exit_code, 0) << replay.output;
  EXPECT_NE(replay.output.find("schedule: replayed"), std::string::npos) << replay.output;

  const std::string a = StripWallClock(ReadFileToString(recorded));
  const std::string b = StripWallClock(ReadFileToString(replayed));
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "replayed run record differs from the recording";
}

// A repro artifact rebuilds its workload with the recorded annotator
// configuration: replaying a --no-correlate recording of a multi-variable bug
// must not rebuild the correlated binary.
TEST_F(CliTest, NoCorrelateRecordingReplaysByteIdentical) {
  const std::string trace = (dir_ / "trace.json").string();
  const std::string recorded = (dir_ / "recorded.json").string();
  const std::string replayed = (dir_ / "replayed.json").string();

  const CommandResult record =
      RunCli("run --bug Apache-45605 --mode bug-finding --no-correlate --max-cycles 2000000 "
             "--record-schedule " + trace + " --json " + recorded);
  ASSERT_EQ(record.exit_code, 0) << record.output;

  const CommandResult replay = RunCli("replay " + trace + " --json " + replayed);
  ASSERT_EQ(replay.exit_code, 0) << replay.output;

  const std::string a = StripWallClock(ReadFileToString(recorded));
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, StripWallClock(ReadFileToString(replayed)));
}

TEST_F(CliTest, ShrinkProducesShorterReproducingTrace) {
  const std::string trace = (dir_ / "trace.json").string();
  const std::string minimized = (dir_ / "trace.min.json").string();
  const CommandResult record =
      RunCli("run " + program_ + " --threads racer:0,racer:1 --preset base --seed 9 "
             "--record-schedule " + trace);
  ASSERT_EQ(record.exit_code, 0) << record.output;

  const CommandResult shrink =
      RunCliStdout("shrink " + trace + " --max-runs 40 --json -");
  ASSERT_EQ(shrink.exit_code, 0) << shrink.output;
  ExpectSingleJsonDocument(shrink.output);
  EXPECT_NE(shrink.output.find("\"kind\":\"kivati_shrink\""), std::string::npos);
  EXPECT_NE(shrink.output.find("\"reproduced\":true"), std::string::npos) << shrink.output;

  // Extract the decision counts from the summary and require a strict shrink.
  const std::regex count_re("\"original_decisions\":([0-9]+),\"decisions\":([0-9]+)");
  std::smatch m;
  ASSERT_TRUE(std::regex_search(shrink.output, m, count_re)) << shrink.output;
  const long before = std::stol(m[1].str());
  const long after = std::stol(m[2].str());
  EXPECT_LT(after, before);

  // The minimized artifact must replay (loosely) and still exit cleanly.
  ASSERT_TRUE(std::filesystem::exists(minimized));
  const CommandResult replay = RunCli("replay " + minimized);
  EXPECT_EQ(replay.exit_code, 0) << replay.output;
  EXPECT_NE(replay.output.find("loose"), std::string::npos) << replay.output;
}

TEST_F(CliTest, ReplayOfTamperedTraceExitsWithDivergence) {
  const std::string trace = (dir_ / "trace.json").string();
  const CommandResult record =
      RunCli("run " + program_ + " --threads racer:0,racer:1 --preset base --seed 9 "
             "--record-schedule " + trace);
  ASSERT_EQ(record.exit_code, 0) << record.output;

  // Flip the first two-way pick in the serialized trace; strict replay must
  // notice the divergence and exit with the dedicated status code.
  std::string text = ReadFileToString(trace);
  std::size_t pos = text.find("[\"pick\",0,2,");
  if (pos != std::string::npos) {
    text.replace(pos, 12, "[\"pick\",1,2,");
  } else {
    pos = text.find("[\"pick\",1,2,");
    ASSERT_NE(pos, std::string::npos) << "no two-way pick to tamper with";
    text.replace(pos, 12, "[\"pick\",0,2,");
  }
  std::ofstream(trace) << text;

  const CommandResult replay = RunCli("replay " + trace);
  EXPECT_EQ(replay.exit_code, 3) << replay.output;
  EXPECT_NE(replay.output.find("diverge"), std::string::npos) << replay.output;
}

// Strict option parsing for the replay/shrink/fuzz surface: zero budgets and
// malformed seeds must be rejected up front, not truncated into no-op runs.
TEST_F(CliTest, FuzzAndShrinkRejectDegenerateBudgets) {
  for (const std::string args :
       {"fuzz --bug NSS-329072 --schedules 0", "fuzz --bug NSS-329072 --plateau 0",
        "fuzz --bug NSS-329072 --seed abc", "fuzz --bug NSS-329072 --strategy chaos",
        "fuzz --bug NSS-329072 --pause-prob 1.5", "fuzz --bug NSS-329072 --shrink-runs 0",
        "shrink nosuch.json --max-runs 0"}) {
    const CommandResult result = RunCli(args);
    EXPECT_NE(result.exit_code, 0) << args << ": " << result.output;
    EXPECT_NE(result.output.find("kivati:"), std::string::npos) << args << ": " << result.output;
  }
  const CommandResult zero = RunCli("fuzz --bug NSS-329072 --schedules 0");
  EXPECT_NE(zero.output.find("out of range"), std::string::npos) << zero.output;
  const CommandResult shrink = RunCli("shrink nosuch.json --max-runs 0");
  EXPECT_NE(shrink.output.find("out of range"), std::string::npos) << shrink.output;
}

TEST_F(CliTest, FuzzFindsShrinksAndSavesReplayableArtifact) {
  const std::string artifacts = (dir_ / "artifacts").string();
  const CommandResult fuzz = RunCliStdout(
      "fuzz --bug NSS-329072 --seed 7 --schedules 4 --plateau 4 --shrink-runs 10 "
      "--max-cycles 5000000 --artifacts " + artifacts + " --json -");
  ASSERT_EQ(fuzz.exit_code, 0) << fuzz.output;
  ExpectSingleJsonDocument(fuzz.output);
  EXPECT_NE(fuzz.output.find("\"kind\":\"kivati_fuzz\""), std::string::npos);
  EXPECT_NE(fuzz.output.find("\"schedules_run\":4"), std::string::npos) << fuzz.output;
  EXPECT_NE(fuzz.output.find("\"replay_ok\":true"), std::string::npos)
      << "no replayable discovery: " << fuzz.output;
  EXPECT_NE(fuzz.output.find("\"errors\":[]"), std::string::npos) << fuzz.output;

  // The saved artifact is a normal repro: `kivati replay` accepts it and
  // replays the minimized trace loosely.
  ASSERT_TRUE(std::filesystem::exists(artifacts));
  std::string artifact;
  for (const auto& entry : std::filesystem::directory_iterator(artifacts)) {
    artifact = entry.path().string();
    break;
  }
  ASSERT_FALSE(artifact.empty()) << "fuzz saved no artifact";
  const CommandResult replay = RunCli("replay " + artifact);
  EXPECT_EQ(replay.exit_code, 0) << replay.output;
  EXPECT_NE(replay.output.find("loose"), std::string::npos) << replay.output;
}

TEST_F(CliTest, RunBugSelectsCorpusEntryAndValidatesNames) {
  const CommandResult result = RunCliStdout(
      "run --bug nss-329072 --mode bug-finding --seed 17 --pause-ms 50 "
      "--max-cycles 3000000 --json -");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  ExpectSingleJsonDocument(result.output);
  EXPECT_NE(result.output.find("nss-329072"), std::string::npos);

  const CommandResult unknown = RunCli("run --bug nosuch-1");
  EXPECT_NE(unknown.exit_code, 0);
  EXPECT_NE(unknown.output.find("unknown bug"), std::string::npos);
  EXPECT_NE(unknown.output.find("NSS-329072"), std::string::npos) << "error should list known bugs";

  const CommandResult both = RunCli("run " + program_ + " --bug NSS-329072");
  EXPECT_NE(both.exit_code, 0);
}

}  // namespace
}  // namespace kivati
