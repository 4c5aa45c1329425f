// The one JSON document header every Kivati report mode shares.
//
// Every command that emits a machine-readable report (`run --json`,
// `sweep`, `analyze`, `annotate`, `fuzz`, `shrink`, `compare`, repro
// artifacts) wraps its payload in the same envelope: a single JSON object
// whose first two keys are `kind` (the report type, "kivati_<command>") and
// `schema_version`, followed by an echo of the spec/options that produced
// it. Downstream tooling dispatches on those two keys without knowing the
// payload shapes; tests/cli_test.cc holds every --json mode to this
// contract (LooksLikeEnvelope below is the checker it uses).
#ifndef KIVATI_COMMON_REPORT_ENVELOPE_H_
#define KIVATI_COMMON_REPORT_ENVELOPE_H_

#include <cstdint>
#include <string>

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

// Checks that `text` is one JSON object document conforming to the
// envelope: begins with '{', its first key is "kind" with a
// "kivati_"-prefixed string value, its second key is "schema_version" with
// an integer value, and (brace/string-aware) the object closes exactly at
// the end of the text modulo trailing whitespace. Fills *out when given.
bool LooksLikeEnvelope(const std::string& text, Envelope* out = nullptr);

}  // namespace report
}  // namespace kivati

#endif  // KIVATI_COMMON_REPORT_ENVELOPE_H_
