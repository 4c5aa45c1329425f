#include "exp/repro.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/report_envelope.h"
#include "exp/run_record.h"
#include "trace/report.h"

namespace kivati {
namespace exp {

using report::AppendField;
using report::Json;

namespace {

// ---------------------------------------------------------------------------
// Writing.
// ---------------------------------------------------------------------------

std::string SpecJson(const RunSpec& spec) {
  if (spec.prebuilt != nullptr) {
    throw std::runtime_error("cannot save a repro for a prebuilt workload "
                             "(no way to echo it into JSON)");
  }
  if (spec.config_override.has_value()) {
    throw std::runtime_error("cannot save a repro for a config_override spec");
  }
  std::string out = "{";
  AppendField(out, "label", spec.label);
  if (!spec.bug.empty()) {
    AppendField(out, "bug", spec.bug);
  } else if (!spec.app.empty()) {
    AppendField(out, "app", spec.app);
  } else {
    AppendField(out, "source", spec.source_path);
    out += "\"threads\":[";
    for (std::size_t i = 0; i < spec.threads.size(); ++i) {
      if (i != 0) {
        out += ",";
      }
      out += "[\"" + report::EscapeJson(spec.threads[i].first) + "\"," +
             std::to_string(spec.threads[i].second) + "]";
    }
    out += "],";
  }
  AppendField(out, "workers", static_cast<std::uint64_t>(spec.scale.workers));
  AppendField(out, "iterations", static_cast<std::uint64_t>(spec.scale.iterations));
  const FrontendOptions& frontend = spec.scale.frontend;
  AppendField(out, "prune", frontend.prune);
  AppendField(out, "interprocedural", frontend.annotator.interprocedural);
  AppendField(out, "precise_aliasing", frontend.annotator.precise_aliasing);
  AppendField(out, "correlate", frontend.correlate);
  AppendField(out, "cores", static_cast<std::uint64_t>(spec.machine.num_cores));
  AppendField(out, "watchpoints", static_cast<std::uint64_t>(spec.machine.watchpoints_per_core));
  AppendField(out, "quantum", static_cast<std::uint64_t>(spec.machine.quantum));
  AppendField(out, "seed", spec.machine.seed);
  AppendField(out, "policy",
              std::string(spec.machine.policy == SchedPolicy::kRandom ? "random" : "round-robin"));
  AppendField(
      out, "trap_delivery",
      std::string(spec.machine.trap_delivery == TrapDelivery::kBefore ? "before" : "after"));
  AppendField(out, "vanilla", spec.vanilla);
  AppendField(out, "preset", std::string(ToString(spec.preset)));
  AppendField(out, "mode", std::string(ToString(spec.mode)));
  AppendField(out, "pause_ms", spec.pause_ms);
  if (!spec.whitelist_path.empty()) {
    AppendField(out, "whitelist_path", spec.whitelist_path);
  }
  if (spec.whitelist_sync_vars.has_value()) {
    AppendField(out, "whitelist_sync_vars", *spec.whitelist_sync_vars);
  }
  if (spec.budget.has_value()) {
    AppendField(out, "budget", static_cast<std::uint64_t>(*spec.budget));
  }
  AppendField(out, "latency_tag", static_cast<std::uint64_t>(spec.latency_tag), /*comma=*/false);
  out += "}";
  return out;
}

std::string TraceJson(const ScheduleTrace& trace) {
  std::string out = "{";
  AppendField(out, "seed", trace.seed);
  AppendField(out, "shrunk", trace.shrunk);
  out += "\"decisions\":[";
  for (std::size_t i = 0; i < trace.decisions.size(); ++i) {
    const SchedDecision& d = trace.decisions[i];
    if (i != 0) {
      out += ",";
    }
    out += "[\"";
    out += ToString(d.kind);
    out += "\",";
    out += std::to_string(d.value) + "," + std::to_string(d.choices) + "," +
           std::to_string(d.subject) + "," + std::to_string(d.instr) + "]";
  }
  out += "],\"checkpoints\":[";
  for (std::size_t i = 0; i < trace.checkpoints.size(); ++i) {
    const SchedCheckpoint& c = trace.checkpoints[i];
    if (i != 0) {
      out += ",";
    }
    out += "[" + std::to_string(c.instr) + "," + std::to_string(c.thread) + "," +
           std::to_string(c.core) + "]";
  }
  out += "]}";
  return out;
}

// ---------------------------------------------------------------------------
// Reading: the artifact schema over the report::ParseJson tree.
// ---------------------------------------------------------------------------

[[noreturn]] void SchemaFail(const std::string& what) {
  throw std::runtime_error("repro JSON: " + what);
}

const Json& Require(const Json& obj, const std::string& key) {
  const Json* v = obj.Find(key);
  if (v == nullptr) {
    SchemaFail("missing key '" + key + "'");
  }
  return *v;
}

std::uint64_t AsUint(const Json& v, const std::string& where) {
  if (v.type != Json::Type::kNumber || !v.is_uint) {
    SchemaFail("'" + where + "' must be an unsigned integer");
  }
  return v.uinteger;
}

// AsUint within the inclusive range [lo, hi].
std::uint64_t AsUintIn(const Json& v, const std::string& where, std::uint64_t lo,
                       std::uint64_t hi) {
  const std::uint64_t value = AsUint(v, where);
  if (value < lo || value > hi) {
    SchemaFail("'" + where + "' must be in " + std::to_string(lo) + ".." + std::to_string(hi));
  }
  return value;
}

// A number within the inclusive range [lo, hi].
double AsDoubleIn(const Json& v, const std::string& where, double lo, double hi) {
  if (v.type != Json::Type::kNumber) {
    SchemaFail("'" + where + "' must be a number");
  }
  if (!(v.number >= lo && v.number <= hi)) {
    SchemaFail("'" + where + "' is out of range");
  }
  return v.number;
}

bool AsBool(const Json& v, const std::string& where) {
  if (v.type != Json::Type::kBool) {
    SchemaFail("'" + where + "' must be a boolean");
  }
  return v.boolean;
}

const std::vector<Json>& AsArray(const Json& v, const std::string& where) {
  if (v.type != Json::Type::kArray) {
    SchemaFail("'" + where + "' must be an array");
  }
  return v.array;
}

const std::string& AsString(const Json& v, const std::string& where) {
  if (v.type != Json::Type::kString) {
    SchemaFail("'" + where + "' must be a string");
  }
  return v.string;
}

RunSpec SpecFromJson(const Json& j) {
  RunSpec spec;
  spec.label = AsString(Require(j, "label"), "label");
  if (const Json* bug = j.Find("bug")) {
    spec.bug = AsString(*bug, "bug");
  } else if (const Json* app = j.Find("app")) {
    spec.app = AsString(*app, "app");
  } else if (const Json* source = j.Find("source")) {
    spec.source_path = AsString(*source, "source");
    for (const Json& t : AsArray(Require(j, "threads"), "threads")) {
      const std::vector<Json>& entry = AsArray(t, "thread entry");
      if (entry.size() != 2) {
        SchemaFail("each thread entry must be [function, arg]");
      }
      spec.threads.emplace_back(AsString(entry[0], "thread function"),
                                AsUint(entry[1], "thread arg"));
    }
  } else {
    SchemaFail("spec needs one of 'bug', 'app', 'source'");
  }
  spec.scale.workers =
      static_cast<int>(AsUintIn(Require(j, "workers"), "workers", 1, kMaxAppWorkers));
  spec.scale.iterations =
      static_cast<int>(AsUintIn(Require(j, "iterations"), "iterations", 1, kMaxAppIterations));
  FrontendOptions& frontend = spec.scale.frontend;
  frontend.prune = AsBool(Require(j, "prune"), "prune");
  frontend.annotator.interprocedural = AsBool(Require(j, "interprocedural"), "interprocedural");
  frontend.annotator.precise_aliasing =
      AsBool(Require(j, "precise_aliasing"), "precise_aliasing");
  // Artifacts written before the key existed were replayed with correlation.
  if (const Json* correlate = j.Find("correlate")) {
    frontend.correlate = AsBool(*correlate, "correlate");
  }
  spec.machine.num_cores =
      static_cast<unsigned>(AsUintIn(Require(j, "cores"), "cores", 1, kMaxCores));
  spec.machine.watchpoints_per_core = static_cast<unsigned>(
      AsUintIn(Require(j, "watchpoints"), "watchpoints", 1, kMaxWatchpointCount));
  spec.machine.quantum = AsUintIn(Require(j, "quantum"), "quantum", 1, ~Cycles{0});
  spec.machine.seed = AsUint(Require(j, "seed"), "seed");
  const std::string& policy = AsString(Require(j, "policy"), "policy");
  if (policy == "random") {
    spec.machine.policy = SchedPolicy::kRandom;
  } else if (policy == "round-robin") {
    spec.machine.policy = SchedPolicy::kRoundRobin;
  } else {
    SchemaFail("unknown policy '" + policy + "'");
  }
  const std::string& delivery = AsString(Require(j, "trap_delivery"), "trap_delivery");
  if (delivery == "after") {
    spec.machine.trap_delivery = TrapDelivery::kAfter;
  } else if (delivery == "before") {
    spec.machine.trap_delivery = TrapDelivery::kBefore;
  } else {
    SchemaFail("unknown trap_delivery '" + delivery + "'");
  }
  spec.vanilla = AsBool(Require(j, "vanilla"), "vanilla");
  if (!ParsePreset(AsString(Require(j, "preset"), "preset"), &spec.preset)) {
    SchemaFail("unknown preset");
  }
  if (!ParseMode(AsString(Require(j, "mode"), "mode"), &spec.mode)) {
    SchemaFail("unknown mode");
  }
  spec.pause_ms = AsDoubleIn(Require(j, "pause_ms"), "pause_ms", 0.0, kMaxPauseMs);
  if (const Json* path = j.Find("whitelist_path")) {
    spec.whitelist_path = AsString(*path, "whitelist_path");
  }
  if (const Json* wl = j.Find("whitelist_sync_vars")) {
    spec.whitelist_sync_vars = AsBool(*wl, "whitelist_sync_vars");
  }
  if (const Json* budget = j.Find("budget")) {
    spec.budget = AsUint(*budget, "budget");
  }
  if (const Json* tag = j.Find("latency_tag")) {
    spec.latency_tag = static_cast<std::int64_t>(AsUint(*tag, "latency_tag"));
  }
  return spec;
}

ScheduleTrace TraceFromJson(const Json& j) {
  ScheduleTrace trace;
  trace.seed = AsUint(Require(j, "seed"), "trace.seed");
  trace.shrunk = AsBool(Require(j, "shrunk"), "trace.shrunk");
  for (const Json& entry : AsArray(Require(j, "decisions"), "decisions")) {
    const std::vector<Json>& d = AsArray(entry, "decision");
    if (d.size() != 5) {
      SchemaFail("each decision must be [kind, value, choices, subject, instr]");
    }
    SchedDecision decision;
    const std::string& kind = AsString(d[0], "decision kind");
    if (kind == "pick") {
      decision.kind = SchedDecisionKind::kPick;
    } else if (kind == "pause") {
      decision.kind = SchedDecisionKind::kPause;
    } else {
      SchemaFail("unknown decision kind '" + kind + "'");
    }
    decision.value = static_cast<std::uint32_t>(AsUint(d[1], "decision value"));
    decision.choices = static_cast<std::uint32_t>(AsUint(d[2], "decision choices"));
    decision.subject = static_cast<ThreadId>(AsUint(d[3], "decision subject"));
    decision.instr = AsUint(d[4], "decision instr");
    trace.decisions.push_back(decision);
  }
  for (const Json& entry : AsArray(Require(j, "checkpoints"), "checkpoints")) {
    const std::vector<Json>& c = AsArray(entry, "checkpoint");
    if (c.size() != 3) {
      SchemaFail("each checkpoint must be [instr, thread, core]");
    }
    SchedCheckpoint checkpoint;
    checkpoint.instr = AsUint(c[0], "checkpoint instr");
    checkpoint.thread = static_cast<ThreadId>(AsUint(c[1], "checkpoint thread"));
    checkpoint.core = static_cast<CoreId>(AsUint(c[2], "checkpoint core"));
    trace.checkpoints.push_back(checkpoint);
  }
  return trace;
}

}  // namespace

bool MatchesTarget(const ReproTarget& target, const ViolationRecord& v) {
  return v.ar_id == target.ar && v.addr == target.addr && v.size == target.size &&
         ViolationPattern(v) == target.pattern;
}

ReproArtifact MakeReproArtifact(const RunSpec& spec, const ScheduleTrace& trace,
                                const std::vector<ViolationRecord>& violations) {
  ReproArtifact artifact;
  artifact.spec = spec;
  artifact.spec.record_schedule = false;
  artifact.spec.replay_schedule = nullptr;
  artifact.trace = trace;
  artifact.violations = violations.size();
  if (!violations.empty()) {
    const ViolationRecord& v = violations.front();
    artifact.has_target = true;
    artifact.target.ar = v.ar_id;
    artifact.target.pattern = ViolationPattern(v);
    artifact.target.addr = v.addr;
    artifact.target.size = v.size;
  }
  return artifact;
}

std::string ToJson(const ReproArtifact& artifact) {
  std::string out = report::EnvelopePrefix({"kivati_repro", 1});
  out += "\"spec\":" + SpecJson(artifact.spec) + ",";
  AppendField(out, "violations", static_cast<std::uint64_t>(artifact.violations));
  if (artifact.has_target) {
    out += "\"target\":{";
    AppendField(out, "ar", static_cast<std::uint64_t>(artifact.target.ar));
    AppendField(out, "pattern", artifact.target.pattern);
    AppendField(out, "addr", artifact.target.addr);
    AppendField(out, "size", static_cast<std::uint64_t>(artifact.target.size), /*comma=*/false);
    out += "},";
  }
  out += "\"trace\":" + TraceJson(artifact.trace);
  out += "}\n";
  return out;
}

ReproArtifact ReproFromJson(const std::string& json) {
  const Json root = report::ParseJson(json);
  if (root.type != Json::Type::kObject) {
    SchemaFail("top level must be an object");
  }
  if (AsString(Require(root, "kind"), "kind") != "kivati_repro") {
    SchemaFail("not a kivati_repro file");
  }
  ReproArtifact artifact;
  artifact.spec = SpecFromJson(Require(root, "spec"));
  artifact.violations =
      static_cast<std::size_t>(AsUint(Require(root, "violations"), "violations"));
  if (const Json* target = root.Find("target")) {
    artifact.has_target = true;
    artifact.target.ar = static_cast<ArId>(AsUint(Require(*target, "ar"), "target.ar"));
    artifact.target.pattern = AsString(Require(*target, "pattern"), "target.pattern");
    artifact.target.addr = AsUint(Require(*target, "addr"), "target.addr");
    artifact.target.size =
        static_cast<unsigned>(AsUint(Require(*target, "size"), "target.size"));
  }
  artifact.trace = TraceFromJson(Require(root, "trace"));
  return artifact;
}

void SaveRepro(const ReproArtifact& artifact, const std::string& path) {
  const std::string json = ToJson(artifact);
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot write '" + path + "'");
  }
  out << json;
  if (!out) {
    throw std::runtime_error("error writing '" + path + "'");
  }
}

ReproArtifact LoadRepro(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open '" + path + "'");
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  return ReproFromJson(buffer.str());
}

}  // namespace exp
}  // namespace kivati
