#include "common/report_envelope.h"

#include <cctype>
#include <cstdio>

namespace kivati {
namespace report {

namespace {

// Advances past whitespace; JSON reports never put it between the envelope
// keys, but accept it anyway so the checker is not coupled to formatting.
void SkipSpace(const std::string& text, std::size_t& i) {
  while (i < text.size() &&
         std::isspace(static_cast<unsigned char>(text[i])) != 0) {
    ++i;
  }
}

bool Consume(const std::string& text, std::size_t& i, char c) {
  SkipSpace(text, i);
  if (i >= text.size() || text[i] != c) {
    return false;
  }
  ++i;
  return true;
}

// Parses a (non-escaped) JSON string literal. Envelope keys and kind values
// never contain escapes; reject them rather than decode.
bool ConsumeString(const std::string& text, std::size_t& i, std::string* out) {
  if (!Consume(text, i, '"')) {
    return false;
  }
  std::string value;
  while (i < text.size() && text[i] != '"') {
    if (text[i] == '\\') {
      return false;
    }
    value += text[i++];
  }
  if (i >= text.size()) {
    return false;
  }
  ++i;  // closing quote
  if (out != nullptr) {
    *out = value;
  }
  return true;
}

// Verifies the rest of `text` balances the already-open object and nothing
// but whitespace follows it. String-aware so braces in values don't count.
bool ClosesAtEnd(const std::string& text, std::size_t i) {
  int depth = 1;
  bool in_string = false;
  for (; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      if (--depth == 0) {
        ++i;
        SkipSpace(text, i);
        return i == text.size();
      }
    }
  }
  return false;
}

}  // namespace

std::string EnvelopePrefix(const Envelope& envelope) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\",\"schema_version\":%llu,",
                static_cast<unsigned long long>(envelope.schema_version));
  return "{\"kind\":\"" + envelope.kind + buf;
}

std::string EscapeJson(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

bool LooksLikeEnvelope(const std::string& text, Envelope* out) {
  std::size_t i = 0;
  if (!Consume(text, i, '{')) {
    return false;
  }
  std::string key;
  if (!ConsumeString(text, i, &key) || key != "kind" || !Consume(text, i, ':')) {
    return false;
  }
  std::string kind;
  if (!ConsumeString(text, i, &kind) || kind.rfind("kivati_", 0) != 0) {
    return false;
  }
  if (!Consume(text, i, ',') || !ConsumeString(text, i, &key) ||
      key != "schema_version" || !Consume(text, i, ':')) {
    return false;
  }
  SkipSpace(text, i);
  std::uint64_t version = 0;
  bool any_digit = false;
  while (i < text.size() && std::isdigit(static_cast<unsigned char>(text[i])) != 0) {
    version = version * 10 + static_cast<std::uint64_t>(text[i] - '0');
    any_digit = true;
    ++i;
  }
  if (!any_digit || !ClosesAtEnd(text, i)) {
    return false;
  }
  if (out != nullptr) {
    out->kind = kind;
    out->schema_version = version;
  }
  return true;
}

}  // namespace report
}  // namespace kivati
