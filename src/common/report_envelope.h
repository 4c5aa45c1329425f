// JSON for every Kivati report: the one writer and the one reader.
//
// Every command that emits a machine-readable report (`run --json`,
// `sweep`, `analyze`, `annotate`, `fuzz`, `shrink`, `compare`, repro
// artifacts) wraps its payload in the same envelope: a single JSON object
// whose first two keys are `kind` (the report type, "kivati_<command>") and
// `schema_version`, followed by an echo of the spec/options that produced
// it. Downstream tooling dispatches on those two keys without knowing the
// payload shapes.
//
// Writing: reports are built as compact strings. EnvelopePrefix opens the
// document, AppendField writes one `"key":value` member, and every string
// goes through EscapeJson.
//
// Reading: ParseJson parses one RFC 8259 document into a Json tree. Repro
// artifacts load through it, and tests/cli_test.cc parses the output of
// every --json mode with it.
#ifndef KIVATI_COMMON_REPORT_ENVELOPE_H_
#define KIVATI_COMMON_REPORT_ENVELOPE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace kivati {
namespace report {

struct Envelope {
  std::string kind;  // "kivati_run", "kivati_sweep", ...
  std::uint64_t schema_version = 1;
};

// The canonical document opening: `{"kind":"<kind>","schema_version":N,`.
// Emitters append their payload fields and the closing brace.
std::string EnvelopePrefix(const Envelope& envelope);

// Escapes `text` for the inside of a JSON string literal: quote, backslash,
// newline and tab by name, every other control character as \u00XX. Every
// report writes its strings through it.
std::string EscapeJson(const std::string& text);

// Appends the member `"key":value`, then ',' when `comma`. Reals print as
// %.6f; strings go through EscapeJson. `key` is written as is.
void AppendField(std::string& out, const char* key, std::uint64_t value, bool comma = true);
void AppendField(std::string& out, const char* key, double value, bool comma = true);
void AppendField(std::string& out, const char* key, bool value, bool comma = true);
void AppendField(std::string& out, const char* key, const std::string& value,
                 bool comma = true);
// A string literal would otherwise convert to bool, not std::string.
void AppendField(std::string& out, const char* key, const char* value,
                 bool comma = true) = delete;

// One parsed JSON value. Numbers keep their double value; an integer
// literal without sign, fraction or exponent that fits 64 bits also sets
// `is_uint` and `uinteger`. Object members keep their document order.
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

  // The first member named `key`, or nullptr.
  const Json* Find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) {
        return &v;
      }
    }
    return nullptr;
  }
};

// Parses `text` as exactly one JSON document, surrounded by optional
// whitespace. Throws std::runtime_error("JSON parse error at byte N: ...")
// on malformed input: an unescaped control character in a string, a bad
// escape or number, trailing content, or nesting deeper than 64 levels.
// A \u escape above \u007f is refused too; the writer never emits one.
Json ParseJson(const std::string& text);

}  // namespace report
}  // namespace kivati

#endif  // KIVATI_COMMON_REPORT_ENVELOPE_H_
