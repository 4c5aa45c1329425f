#include "exp/repro.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/report_envelope.h"
#include "exp/run_record.h"
#include "trace/report.h"

namespace kivati {
namespace exp {
namespace {

// ---------------------------------------------------------------------------
// Writing. Reuses the run_record.cc conventions (compact, snprintf-based).
// ---------------------------------------------------------------------------

void Append(std::string& out, const char* key, std::uint64_t value, bool comma = true) {
  out += "\"";
  out += key;
  out += "\":";
  out += std::to_string(value);
  if (comma) {
    out += ",";
  }
}

void Append(std::string& out, const char* key, double value, bool comma = true) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", value);
  out += "\"";
  out += key;
  out += "\":";
  out += buf;
  if (comma) {
    out += ",";
  }
}

void Append(std::string& out, const char* key, bool value, bool comma = true) {
  out += "\"";
  out += key;
  out += value ? "\":true" : "\":false";
  if (comma) {
    out += ",";
  }
}

void Append(std::string& out, const char* key, const std::string& value, bool comma = true) {
  out += "\"";
  out += key;
  out += "\":\"";
  out += report::EscapeJson(value);
  out += "\"";
  if (comma) {
    out += ",";
  }
}

std::string SpecJson(const RunSpec& spec) {
  if (spec.prebuilt != nullptr) {
    throw std::runtime_error("cannot save a repro for a prebuilt workload "
                             "(no way to echo it into JSON)");
  }
  if (spec.config_override.has_value()) {
    throw std::runtime_error("cannot save a repro for a config_override spec");
  }
  std::string out = "{";
  Append(out, "label", spec.label);
  if (!spec.bug.empty()) {
    Append(out, "bug", spec.bug);
  } else if (!spec.app.empty()) {
    Append(out, "app", spec.app);
  } else {
    Append(out, "source", spec.source_path);
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
  Append(out, "workers", static_cast<std::uint64_t>(spec.scale.workers));
  Append(out, "iterations", static_cast<std::uint64_t>(spec.scale.iterations));
  Append(out, "prune", spec.scale.prune);
  Append(out, "interprocedural", spec.scale.annotator.interprocedural);
  Append(out, "precise_aliasing", spec.scale.annotator.precise_aliasing);
  Append(out, "cores", static_cast<std::uint64_t>(spec.machine.num_cores));
  Append(out, "watchpoints", static_cast<std::uint64_t>(spec.machine.watchpoints_per_core));
  Append(out, "quantum", static_cast<std::uint64_t>(spec.machine.quantum));
  Append(out, "seed", spec.machine.seed);
  Append(out, "policy",
         std::string(spec.machine.policy == SchedPolicy::kRandom ? "random" : "round-robin"));
  Append(out, "trap_delivery",
         std::string(spec.machine.trap_delivery == TrapDelivery::kBefore ? "before" : "after"));
  Append(out, "vanilla", spec.vanilla);
  Append(out, "preset", std::string(ToString(spec.preset)));
  Append(out, "mode", std::string(ToString(spec.mode)));
  Append(out, "pause_ms", spec.pause_ms);
  if (!spec.whitelist_path.empty()) {
    Append(out, "whitelist_path", spec.whitelist_path);
  }
  if (spec.whitelist_sync_vars.has_value()) {
    Append(out, "whitelist_sync_vars", *spec.whitelist_sync_vars);
  }
  if (spec.budget.has_value()) {
    Append(out, "budget", static_cast<std::uint64_t>(*spec.budget));
  }
  Append(out, "latency_tag", static_cast<std::uint64_t>(spec.latency_tag), /*comma=*/false);
  out += "}";
  return out;
}

std::string TraceJson(const ScheduleTrace& trace) {
  std::string out = "{";
  Append(out, "seed", trace.seed);
  Append(out, "shrunk", trace.shrunk);
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
// Reading: a minimal recursive-descent JSON parser, just enough for the
// artifact schema (objects, arrays, strings, unsigned integers, doubles,
// booleans, null). Errors carry the byte offset.
// ---------------------------------------------------------------------------

struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::uint64_t uinteger = 0;  // valid when is_uint
  bool is_uint = false;
  std::string string;
  std::vector<Json> array;
  std::vector<std::pair<std::string, Json>> object;

  const Json* Find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) {
        return &v;
      }
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Json Parse() {
    Json value = ParseValue();
    SkipSpace();
    if (pos_ != text_.size()) {
      Fail("trailing characters after JSON document");
    }
    return value;
  }

 private:
  [[noreturn]] void Fail(const std::string& what) const {
    throw std::runtime_error("repro JSON parse error at byte " + std::to_string(pos_) + ": " +
                             what);
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  char Peek() {
    SkipSpace();
    if (pos_ >= text_.size()) {
      Fail("unexpected end of input");
    }
    return text_[pos_];
  }

  void Expect(char c) {
    if (Peek() != c) {
      Fail(std::string("expected '") + c + "', got '" + text_[pos_] + "'");
    }
    ++pos_;
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && Peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Json ParseValue() {
    const char c = Peek();
    if (c == '{' || c == '[') {
      if (++depth_ > kMaxDepth) {
        Fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
      }
      Json v = c == '{' ? ParseObject() : ParseArray();
      --depth_;
      return v;
    }
    switch (c) {
      case '"': {
        Json v;
        v.type = Json::Type::kString;
        v.string = ParseString();
        return v;
      }
      case 't':
      case 'f':
        return ParseKeyword();
      case 'n':
        return ParseKeyword();
      default:
        return ParseNumber();
    }
  }

  Json ParseKeyword() {
    Json v;
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      v.type = Json::Type::kBool;
      v.boolean = true;
    } else if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      v.type = Json::Type::kBool;
      v.boolean = false;
    } else if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      v.type = Json::Type::kNull;
    } else {
      Fail("unknown keyword");
    }
    return v;
  }

  Json ParseNumber() {
    const std::size_t start = pos_;
    bool integral = true;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      integral = false;  // the schema has no negative integers
      ++pos_;
    }
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) {
      Fail("expected a value");
    }
    const std::string token = text_.substr(start, pos_ - start);
    Json v;
    v.type = Json::Type::kNumber;
    v.number = std::strtod(token.c_str(), nullptr);
    if (integral) {
      v.uinteger = std::strtoull(token.c_str(), nullptr, 10);
      v.is_uint = true;
    }
    return v;
  }

  std::string ParseString() {
    Expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) {
        Fail("unterminated string");
      }
      const char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) {
        Fail("unterminated escape");
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'n':
          out += '\n';
          break;
        case 't':
          out += '\t';
          break;
        case 'r':
          out += '\r';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            Fail("truncated \\u escape");
          }
          const unsigned long code = std::strtoul(text_.substr(pos_, 4).c_str(), nullptr, 16);
          pos_ += 4;
          // The writer only emits \u00xx control characters.
          out += static_cast<char>(code & 0xff);
          break;
        }
        default:
          Fail("unknown escape");
      }
    }
  }

  Json ParseObject() {
    Expect('{');
    Json v;
    v.type = Json::Type::kObject;
    if (Consume('}')) {
      return v;
    }
    while (true) {
      std::string key = ParseString();
      Expect(':');
      v.object.emplace_back(std::move(key), ParseValue());
      if (Consume('}')) {
        return v;
      }
      Expect(',');
    }
  }

  Json ParseArray() {
    Expect('[');
    Json v;
    v.type = Json::Type::kArray;
    if (Consume(']')) {
      return v;
    }
    while (true) {
      v.array.push_back(ParseValue());
      if (Consume(']')) {
        return v;
      }
      Expect(',');
    }
  }

  // Deepest array/object nesting accepted. Artifacts nest four levels;
  // the cap keeps hostile input from overflowing the stack here and in
  // Json's recursive destructor.
  static constexpr int kMaxDepth = 64;

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

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
    for (const Json& t : Require(j, "threads").array) {
      if (t.array.size() != 2) {
        SchemaFail("each thread entry must be [function, arg]");
      }
      spec.threads.emplace_back(AsString(t.array[0], "thread function"),
                                AsUint(t.array[1], "thread arg"));
    }
  } else {
    SchemaFail("spec needs one of 'bug', 'app', 'source'");
  }
  spec.scale.workers =
      static_cast<int>(AsUintIn(Require(j, "workers"), "workers", 1, kMaxAppWorkers));
  spec.scale.iterations =
      static_cast<int>(AsUintIn(Require(j, "iterations"), "iterations", 1, kMaxAppIterations));
  spec.scale.prune = AsBool(Require(j, "prune"), "prune");
  spec.scale.annotator.interprocedural =
      AsBool(Require(j, "interprocedural"), "interprocedural");
  spec.scale.annotator.precise_aliasing =
      AsBool(Require(j, "precise_aliasing"), "precise_aliasing");
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
  for (const Json& d : Require(j, "decisions").array) {
    if (d.array.size() != 5) {
      SchemaFail("each decision must be [kind, value, choices, subject, instr]");
    }
    SchedDecision decision;
    const std::string& kind = AsString(d.array[0], "decision kind");
    if (kind == "pick") {
      decision.kind = SchedDecisionKind::kPick;
    } else if (kind == "pause") {
      decision.kind = SchedDecisionKind::kPause;
    } else {
      SchemaFail("unknown decision kind '" + kind + "'");
    }
    decision.value = static_cast<std::uint32_t>(AsUint(d.array[1], "decision value"));
    decision.choices = static_cast<std::uint32_t>(AsUint(d.array[2], "decision choices"));
    decision.subject = static_cast<ThreadId>(AsUint(d.array[3], "decision subject"));
    decision.instr = AsUint(d.array[4], "decision instr");
    trace.decisions.push_back(decision);
  }
  for (const Json& c : Require(j, "checkpoints").array) {
    if (c.array.size() != 3) {
      SchemaFail("each checkpoint must be [instr, thread, core]");
    }
    SchedCheckpoint checkpoint;
    checkpoint.instr = AsUint(c.array[0], "checkpoint instr");
    checkpoint.thread = static_cast<ThreadId>(AsUint(c.array[1], "checkpoint thread"));
    checkpoint.core = static_cast<CoreId>(AsUint(c.array[2], "checkpoint core"));
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
  Append(out, "violations", static_cast<std::uint64_t>(artifact.violations));
  if (artifact.has_target) {
    out += "\"target\":{";
    Append(out, "ar", static_cast<std::uint64_t>(artifact.target.ar));
    Append(out, "pattern", artifact.target.pattern);
    Append(out, "addr", artifact.target.addr);
    Append(out, "size", static_cast<std::uint64_t>(artifact.target.size), /*comma=*/false);
    out += "},";
  }
  out += "\"trace\":" + TraceJson(artifact.trace);
  out += "}\n";
  return out;
}

ReproArtifact ReproFromJson(const std::string& json) {
  const Json root = JsonParser(json).Parse();
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
