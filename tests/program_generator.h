// A random mini-C program generator shared by the property tests and the
// block-engine differential harness (fused_modes_test).
#ifndef KIVATI_TESTS_PROGRAM_GENERATOR_H_
#define KIVATI_TESTS_PROGRAM_GENERATOR_H_

#include <sstream>
#include <string>

#include "common/rng.h"

namespace kivati {
namespace testing {

// Generates a random but always-terminating mini-C program: a handful of
// globals (scalars, arrays, sync locks), helper functions that mix reads,
// writes, locks and compute, and a worker that calls them in a bounded loop.
class ProgramGenerator {
 public:
  explicit ProgramGenerator(std::uint64_t seed) : rng_(seed) {}

  std::string Generate() {
    const int num_scalars = static_cast<int>(rng_.NextInRange(2, 5));
    const int num_arrays = static_cast<int>(rng_.NextInRange(0, 2));
    const int num_helpers = static_cast<int>(rng_.NextInRange(2, 5));

    std::ostringstream out;
    out << "sync int lk;\n";
    for (int i = 0; i < num_scalars; ++i) {
      out << "int g" << i << (rng_.NextBool(0.3) ? " = 1" : "") << ";\n";
    }
    for (int i = 0; i < num_arrays; ++i) {
      out << "int arr" << i << "[" << rng_.NextInRange(4, 16) << "];\n";
    }
    scalars_ = num_scalars;
    arrays_ = num_arrays;

    for (int h = 0; h < num_helpers; ++h) {
      out << "void helper" << h << "(int x) {\n";
      const int statements = static_cast<int>(rng_.NextInRange(1, 5));
      const bool locked = rng_.NextBool(0.4);
      if (locked) {
        out << "  lock(lk);\n";
      }
      for (int s = 0; s < statements; ++s) {
        EmitStatement(out, 1, "x");
      }
      if (locked) {
        out << "  unlock(lk);\n";
      }
      out << "}\n";
    }
    helpers_ = num_helpers;

    out << "void worker(int id) {\n";
    out << "  for (int i = 0; i < " << rng_.NextInRange(10, 40) << "; i = i + 1) {\n";
    const int calls = static_cast<int>(rng_.NextInRange(1, 4));
    for (int c = 0; c < calls; ++c) {
      if (rng_.NextBool(0.7)) {
        out << "    helper" << rng_.NextBelow(static_cast<std::uint64_t>(helpers_))
            << "(i + id);\n";
      } else {
        EmitStatement(out, 2, "id");
      }
    }
    out << "    int burn = i;\n";
    out << "    for (int k = 0; k < " << rng_.NextInRange(20, 120)
        << "; k = k + 1) { burn = burn * 3 + 1; }\n";
    out << "  }\n}\n";
    return out.str();
  }

 private:
  std::string Indent(int depth) { return std::string(static_cast<std::size_t>(depth) * 2, ' '); }

  std::string RandomLvalue(const std::string& param) {
    if (arrays_ > 0 && rng_.NextBool(0.3)) {
      return "arr" + std::to_string(rng_.NextBelow(static_cast<std::uint64_t>(arrays_))) + "[" +
             RandomRvalue(param) + " & 3]";
    }
    return "g" + std::to_string(rng_.NextBelow(static_cast<std::uint64_t>(scalars_)));
  }

  std::string RandomRvalue(const std::string& param) {
    switch (rng_.NextBelow(3)) {
      case 0:
        return std::to_string(rng_.NextBelow(100));
      case 1:
        return "g" + std::to_string(rng_.NextBelow(static_cast<std::uint64_t>(scalars_)));
      default:
        return param;
    }
  }

  void EmitStatement(std::ostringstream& out, int depth, const std::string& param) {
    const std::string lhs = RandomLvalue(param);
    switch (rng_.NextBelow(3)) {
      case 0:
        out << Indent(depth) << lhs << " = " << RandomRvalue(param) << ";\n";
        break;
      case 1:
        out << Indent(depth) << lhs << " = " << lhs << " + " << RandomRvalue(param) << ";\n";
        break;
      default:
        out << Indent(depth) << "if (" << RandomLvalue(param) << " != " << rng_.NextBelow(4)
            << ") {\n"
            << Indent(depth + 1) << lhs << " = " << RandomRvalue(param) << ";\n"
            << Indent(depth) << "}\n";
        break;
    }
  }

  Rng rng_;
  int scalars_ = 0;
  int arrays_ = 0;
  int helpers_ = 0;
};

}  // namespace testing
}  // namespace kivati

#endif  // KIVATI_TESTS_PROGRAM_GENERATOR_H_
