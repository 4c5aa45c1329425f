// Declarative command-line option table.
//
// The CLI's run/train/sweep commands (and any future tool) describe their
// options as rows — name, value kind, target pointer, range — instead of an
// open-coded if/else chain. Parsing is strict: a numeric value must consume
// the whole token and fall inside the declared range, so "--cores abc",
// "--cores 0" and "--iterations -3" are rejected with a message instead of
// silently becoming 0 (the old strtoul/atoi behaviour).
#ifndef KIVATI_EXP_OPTPARSE_H_
#define KIVATI_EXP_OPTPARSE_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

namespace kivati {
namespace exp {

// Strict scalar parsers: the whole token must be a number of the target type
// (leading/trailing junk, empty strings and out-of-range values fail).
// Decimal, hex (0x...) and octal are accepted for the integer forms;
// ParseF64 rejects infinities and NaN.
bool ParseU64(const std::string& text, std::uint64_t* out);
bool ParseI64(const std::string& text, std::int64_t* out);
bool ParseF64(const std::string& text, double* out);

// A comma-separated list of strict u64s; "lo..hi" ranges are expanded
// inclusively ("1,4..6" -> {1,4,5,6}). Returns false on any malformed item.
bool ParseU64List(const std::string& text, std::vector<std::uint64_t>* out);

class OptionTable {
 public:
  // Returns an error message, or the empty string to accept the value.
  using Handler = std::function<std::string(const std::string& value)>;

  // --name (no value).
  void Flag(const std::string& name, bool* target, const std::string& help);
  // --name VALUE with a custom handler (enums, lists, paths with checks).
  void Value(const std::string& name, const std::string& help, Handler handler);
  // --name STRING, stored verbatim.
  void String(const std::string& name, std::string* target, const std::string& help);
  // Strict bounded integers / reals. The bounds are inclusive.
  void U64(const std::string& name, std::uint64_t* target, const std::string& help,
           std::uint64_t min = 0,
           std::uint64_t max = std::numeric_limits<std::uint64_t>::max());
  void Unsigned(const std::string& name, unsigned* target, const std::string& help,
                unsigned min = 0, unsigned max = std::numeric_limits<unsigned>::max());
  void Int(const std::string& name, int* target, const std::string& help,
           int min = std::numeric_limits<int>::min(),
           int max = std::numeric_limits<int>::max());
  void Size(const std::string& name, std::size_t* target, const std::string& help,
            std::size_t min = 0,
            std::size_t max = std::numeric_limits<std::size_t>::max());
  void Double(const std::string& name, double* target, const std::string& help,
              double min = std::numeric_limits<double>::lowest(),
              double max = std::numeric_limits<double>::max());

  // Splits "--option=value" spellings and parses every argument against the
  // table. Returns an error message ("unknown option '--x'", "--cores: 'abc'
  // is not a valid integer", ...) or the empty string on success.
  std::string Parse(const std::vector<std::string>& args);
  std::string Parse(int argc, char** argv, int begin);

  // One "  --name  help" line per option, for usage output.
  std::string Help() const;

 private:
  struct Option {
    std::string name;
    bool takes_value = false;
    std::string help;
    Handler handler;
  };

  const Option* Find(const std::string& name) const;

  std::vector<Option> options_;
};

}  // namespace exp
}  // namespace kivati

#endif  // KIVATI_EXP_OPTPARSE_H_
