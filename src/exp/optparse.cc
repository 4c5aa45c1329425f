#include "exp/optparse.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

namespace kivati {
namespace exp {
namespace {

// Leading whitespace would be accepted by strtoull; reject it ourselves so
// the "whole token" rule holds.
bool HasLeadingSpace(const std::string& text) {
  return !text.empty() && std::isspace(static_cast<unsigned char>(text[0]));
}

}  // namespace

bool ParseU64(const std::string& text, std::uint64_t* out) {
  if (text.empty() || HasLeadingSpace(text) || text[0] == '-') {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 0);
  if (errno != 0 || end != text.c_str() + text.size()) {
    return false;
  }
  *out = value;
  return true;
}

bool ParseI64(const std::string& text, std::int64_t* out) {
  if (text.empty() || HasLeadingSpace(text)) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 0);
  if (errno != 0 || end != text.c_str() + text.size()) {
    return false;
  }
  *out = value;
  return true;
}

bool ParseF64(const std::string& text, double* out) {
  if (text.empty() || HasLeadingSpace(text)) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (errno != 0 || end != text.c_str() + text.size() || !std::isfinite(value)) {
    return false;
  }
  *out = value;
  return true;
}

bool ParseU64List(const std::string& text, std::vector<std::uint64_t>* out) {
  if (text.empty()) {
    return false;
  }
  std::vector<std::uint64_t> values;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::string item =
        text.substr(start, comma == std::string::npos ? std::string::npos : comma - start);
    const std::size_t dots = item.find("..");
    if (dots == std::string::npos) {
      std::uint64_t value = 0;
      if (!ParseU64(item, &value)) {
        return false;
      }
      values.push_back(value);
    } else {
      std::uint64_t lo = 0, hi = 0;
      if (!ParseU64(item.substr(0, dots), &lo) || !ParseU64(item.substr(dots + 2), &hi) ||
          lo > hi || hi - lo > 1'000'000) {
        return false;
      }
      for (std::uint64_t v = lo; v <= hi; ++v) {
        values.push_back(v);
      }
    }
    if (comma == std::string::npos) {
      break;
    }
    start = comma + 1;
  }
  *out = std::move(values);
  return true;
}

void OptionTable::Flag(const std::string& name, bool* target, const std::string& help) {
  Option option;
  option.name = name;
  option.takes_value = false;
  option.help = help;
  option.handler = [target](const std::string&) -> std::string {
    *target = true;
    return {};
  };
  options_.push_back(std::move(option));
}

void OptionTable::Value(const std::string& name, const std::string& help, Handler handler) {
  Option option;
  option.name = name;
  option.takes_value = true;
  option.help = help;
  option.handler = std::move(handler);
  options_.push_back(std::move(option));
}

void OptionTable::String(const std::string& name, std::string* target, const std::string& help) {
  Value(name, help, [target](const std::string& value) -> std::string {
    *target = value;
    return {};
  });
}

void OptionTable::U64(const std::string& name, std::uint64_t* target, const std::string& help,
                      std::uint64_t min, std::uint64_t max) {
  Value(name, help, [name, target, min, max](const std::string& value) -> std::string {
    std::uint64_t parsed = 0;
    if (!ParseU64(value, &parsed)) {
      return name + ": '" + value + "' is not a valid unsigned integer";
    }
    if (parsed < min || parsed > max) {
      return name + ": " + value + " is out of range [" + std::to_string(min) + ", " +
             std::to_string(max) + "]";
    }
    *target = parsed;
    return {};
  });
}

void OptionTable::Unsigned(const std::string& name, unsigned* target, const std::string& help,
                           unsigned min, unsigned max) {
  Value(name, help, [name, target, min, max](const std::string& value) -> std::string {
    std::uint64_t parsed = 0;
    if (!ParseU64(value, &parsed)) {
      return name + ": '" + value + "' is not a valid unsigned integer";
    }
    if (parsed < min || parsed > max) {
      return name + ": " + value + " is out of range [" + std::to_string(min) + ", " +
             std::to_string(max) + "]";
    }
    *target = static_cast<unsigned>(parsed);
    return {};
  });
}

void OptionTable::Int(const std::string& name, int* target, const std::string& help, int min,
                      int max) {
  Value(name, help, [name, target, min, max](const std::string& value) -> std::string {
    std::int64_t parsed = 0;
    if (!ParseI64(value, &parsed)) {
      return name + ": '" + value + "' is not a valid integer";
    }
    if (parsed < min || parsed > max) {
      return name + ": " + value + " is out of range [" + std::to_string(min) + ", " +
             std::to_string(max) + "]";
    }
    *target = static_cast<int>(parsed);
    return {};
  });
}

void OptionTable::Size(const std::string& name, std::size_t* target, const std::string& help,
                       std::size_t min, std::size_t max) {
  Value(name, help, [name, target, min, max](const std::string& value) -> std::string {
    std::uint64_t parsed = 0;
    if (!ParseU64(value, &parsed)) {
      return name + ": '" + value + "' is not a valid unsigned integer";
    }
    if (parsed < min || parsed > max) {
      return name + ": " + value + " is out of range [" + std::to_string(min) + ", " +
             std::to_string(max) + "]";
    }
    *target = static_cast<std::size_t>(parsed);
    return {};
  });
}

void OptionTable::Double(const std::string& name, double* target, const std::string& help,
                         double min, double max) {
  Value(name, help, [name, target, min, max](const std::string& value) -> std::string {
    double parsed = 0.0;
    if (!ParseF64(value, &parsed)) {
      return name + ": '" + value + "' is not a valid number";
    }
    if (parsed < min || parsed > max) {
      return name + ": " + value + " is out of range";
    }
    *target = parsed;
    return {};
  });
}

const OptionTable::Option* OptionTable::Find(const std::string& name) const {
  for (const Option& option : options_) {
    if (option.name == name) {
      return &option;
    }
  }
  return nullptr;
}

std::string OptionTable::Parse(const std::vector<std::string>& raw) {
  // Accept both "--option value" and "--option=value".
  std::vector<std::string> args;
  for (const std::string& item : raw) {
    const std::size_t eq = item.find('=');
    if (item.size() > 2 && item[0] == '-' && item[1] == '-' && eq != std::string::npos) {
      args.push_back(item.substr(0, eq));
      args.push_back(item.substr(eq + 1));
    } else {
      args.push_back(item);
    }
  }
  for (std::size_t i = 0; i < args.size(); ++i) {
    const Option* option = Find(args[i]);
    if (option == nullptr) {
      return "unknown option '" + args[i] + "'";
    }
    std::string value;
    if (option->takes_value) {
      if (i + 1 >= args.size()) {
        return "missing value for " + option->name;
      }
      value = args[++i];
    }
    const std::string error = option->handler(value);
    if (!error.empty()) {
      return error;
    }
  }
  return {};
}

std::string OptionTable::Parse(int argc, char** argv, int begin) {
  std::vector<std::string> args;
  for (int i = begin; i < argc; ++i) {
    args.emplace_back(argv[i]);
  }
  return Parse(args);
}

std::string OptionTable::Help() const {
  std::string out;
  std::size_t width = 0;
  for (const Option& option : options_) {
    width = std::max(width, option.name.size());
  }
  for (const Option& option : options_) {
    out += "  " + option.name;
    out.append(width - option.name.size() + 2, ' ');
    out += option.help + "\n";
  }
  return out;
}

}  // namespace exp
}  // namespace kivati
