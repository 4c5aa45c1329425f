#include "common/report_envelope.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string_view>

namespace kivati {
namespace report {

namespace {

// Writes `"key":value` where `value` is already JSON, then the comma.
void AppendMember(std::string& out, const char* key, std::string_view value, bool comma) {
  out += '"';
  out += key;
  out += "\":";
  out += value;
  if (comma) {
    out += ',';
  }
}

// A recursive-descent parser for RFC 8259 JSON, with the limits ParseJson
// documents. Errors carry the byte offset.
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
    throw std::runtime_error("JSON parse error at byte " + std::to_string(pos_) + ": " + what);
  }

  void SkipSpace() {
    while (At(' ') || At('\t') || At('\n') || At('\r')) {
      ++pos_;
    }
  }

  bool At(char c) const { return pos_ < text_.size() && text_[pos_] == c; }

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

  std::size_t SkipDigits() {
    const std::size_t from = pos_;
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
    return pos_ - from;
  }

  // -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
  Json ParseNumber() {
    const std::size_t start = pos_;
    const bool negative = At('-');
    if (negative) {
      ++pos_;
    }
    const std::size_t integer_digits = SkipDigits();
    if (integer_digits == 0) {
      Fail("expected a value");
    }
    if (integer_digits > 1 && text_[pos_ - integer_digits] == '0') {
      Fail("leading zero in a number");
    }
    bool integral = !negative;
    if (At('.')) {
      ++pos_;
      integral = false;
      if (SkipDigits() == 0) {
        Fail("expected a digit after '.'");
      }
    }
    if (At('e') || At('E')) {
      ++pos_;
      integral = false;
      if (At('+') || At('-')) {
        ++pos_;
      }
      if (SkipDigits() == 0) {
        Fail("expected a digit in the exponent");
      }
    }
    const std::string token = text_.substr(start, pos_ - start);
    Json v;
    v.type = Json::Type::kNumber;
    v.number = std::strtod(token.c_str(), nullptr);
    if (integral) {
      errno = 0;
      v.uinteger = std::strtoull(token.c_str(), nullptr, 10);
      v.is_uint = errno != ERANGE;
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
      const char c = text_[pos_];
      if (static_cast<unsigned char>(c) < 0x20) {
        Fail("unescaped control character in string");
      }
      ++pos_;
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
          for (std::size_t k = 0; k < 4; ++k) {
            if (pos_ + k >= text_.size() ||
                std::isxdigit(static_cast<unsigned char>(text_[pos_ + k])) == 0) {
              Fail("\\u needs four hex digits");
            }
          }
          const unsigned long code = std::strtoul(text_.substr(pos_, 4).c_str(), nullptr, 16);
          // EscapeJson writes \u only for control characters. Refuse wider
          // code points rather than decode them to the wrong bytes.
          if (code > 0x7f) {
            Fail("\\u escape above \\u007f");
          }
          out += static_cast<char>(code);
          pos_ += 4;
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

  // Deepest array/object nesting accepted. Reports nest a few levels; the
  // cap keeps hostile input from overflowing the stack here and in Json's
  // recursive destructor.
  static constexpr int kMaxDepth = 64;

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

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

void AppendField(std::string& out, const char* key, std::uint64_t value, bool comma) {
  AppendMember(out, key, std::to_string(value), comma);
}

void AppendField(std::string& out, const char* key, double value, bool comma) {
  char buf[320];  // %.6f of the largest double takes 317 characters
  std::snprintf(buf, sizeof(buf), "%.6f", value);
  AppendMember(out, key, buf, comma);
}

void AppendField(std::string& out, const char* key, bool value, bool comma) {
  AppendMember(out, key, value ? "true" : "false", comma);
}

void AppendField(std::string& out, const char* key, const std::string& value, bool comma) {
  AppendMember(out, key, '"' + EscapeJson(value) + '"', comma);
}

Json ParseJson(const std::string& text) { return JsonParser(text).Parse(); }

}  // namespace report
}  // namespace kivati
