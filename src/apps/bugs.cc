#include "apps/bugs.h"

#include <algorithm>
#include <cctype>

namespace kivati {
namespace apps {
namespace {

// The buggy region body for each pattern, operating on variable V. The
// local side is the annotated access pair; the remote side is a single
// access (so it carries no begin_atomic of its own and is caught purely by
// the watchpoint).
std::string LocalRegion(BugPattern pattern, const std::string& v, int window) {
  const std::string pad =
      "      int w = 0;\n"
      "      for (int k = 0; k < " + std::to_string(window) + "; k = k + 1) {\n"
      "        w = w + k;\n"
      "      }\n";
  switch (pattern) {
    case BugPattern::kCheckThenSet:
      // e.g. NSS 341323: if (ptr == NULL) ptr = new_value — two threads can
      // both pass the check (Figure 1).
      return "      if (" + v + " == 0) {\n" + pad +
             "        " + v + " = id + 1;\n"
             "      }\n"
             "      " + v + " = 0;\n";
    case BugPattern::kUpdateThenUse:
      // e.g. Apache 25520: store a fresh handle, then use it — a remote
      // reset between the two leaves a stale use.
      return "      " + v + " = seed & 1023;\n" + pad +
             "      " + v + "_sink = " + v + " + 1;\n";
    case BugPattern::kDirtyRead:
      // e.g. MySQL 25306: a two-step update whose intermediate state a
      // remote reader must never observe.
      return "      " + v + " = 1;\n" + pad +
             "      " + v + " = 0;\n";
    case BugPattern::kDoubleRead:
      // e.g. NSS 225525: two reads assumed consistent; a remote swap
      // between them breaks the invariant.
      return "      int a = " + v + ";\n" + pad +
             "      int b = " + v + ";\n"
             "      if (a != b) {\n"
             "        " + v + "_sink = " + v + "_sink + 1;\n"
             "      }\n";
    // Multi-variable patterns. The local access shapes are chosen so every
    // AR the single-variable annotator derives is R..W (watch W): the remote
    // side only READS AR-carrying variables and only WRITES variables with a
    // single local access (no AR), so nothing below is detectable until the
    // correlation pass fuses the v/v_aux pair (soundness_test asserts the
    // differential).
    case BugPattern::kPairDesync:
      // MUVI's len/buf family: refill the buffer, then publish the new
      // length. A remote reader between the two sees new contents with the
      // stale length.
      return "      int t = " + v + ";\n" + pad +
             "      " + v + "_aux = seed & 1023;\n"
             "      " + v + " = t + 1;\n";
    case BugPattern::kFlagPair:
      // Flag/data check-then-act: check ready, then consume data. The
      // producer runs on the local thread's outer loop (LocalProduce); the
      // remote thread overwrites data after the check passes. The consumed
      // value stays local — publishing it to the shared sink would race the
      // remote's own sink write and muddy the comparison with a second,
      // unseeded bug.
      return "      if (" + v + " == 1) {\n" + pad +
             "        int t = " + v + "_aux;\n"
             "        " + v + " = t - t;\n"
             "      }\n";
    case BugPattern::kPairSwap:
      // Paired-pointer swap: head and spare must be exchanged atomically; a
      // remote reader can observe the transient head == spare state.
      return "      int t = " + v + ";\n" + pad +
             "      " + v + " = " + v + "_aux;\n"
             "      " + v + "_aux = t;\n";
    case BugPattern::kStatPair:
      // Stat-counter pair: hits and total move together; a remote ratio
      // reader can see hits bumped but not total.
      return "      " + v + " = " + v + " + 1;\n" + pad +
             "      " + v + "_aux = " + v + "_aux + 1;\n";
  }
  return {};
}

// Extra statement appended to the local thread's outer loop, outside the
// annotated region (windows there are broken by the bug_region call, so the
// single accesses below never become ARs).
std::string LocalProduce(BugPattern pattern, const std::string& v) {
  if (pattern == BugPattern::kFlagPair) {
    // The producer half of the flag/data pair: stage data, then raise the
    // flag so the consumer's check can pass.
    return "        " + v + "_aux = seed & 511;\n"
           "        " + v + " = 1;\n";
  }
  return {};
}

std::string RemoteAccess(BugPattern pattern, const std::string& v) {
  switch (pattern) {
    case BugPattern::kCheckThenSet:
    case BugPattern::kUpdateThenUse:
    case BugPattern::kDoubleRead:
      return "      " + v + " = seed & 255;\n";
    case BugPattern::kDirtyRead:
      return "      " + v + "_sink = " + v + ";\n";
    // Multi-variable remotes co-access BOTH members in one window: that is
    // what lifts the pair's support to kMinSupport (the local region is the
    // other co-access site) so the correlation survives pruning.
    case BugPattern::kPairDesync:
    case BugPattern::kPairSwap:
    case BugPattern::kStatPair:
      // Pure reader of the pair — invisible to every single-variable watch.
      return "      " + v + "_sink = " + v + " + " + v + "_aux;\n";
    case BugPattern::kFlagPair:
      // Competing producer: overwrites data (no AR -> no watch) and polls
      // the flag (read; the flag AR's single-variable watch is W).
      return "      " + v + "_aux = seed & 255;\n"
             "      " + v + "_sink = " + v + ";\n";
  }
  return {};
}

std::string BugSource(const BugInfo& bug) {
  const std::string v = bug.variable();
  return std::string("    int ") + v + ";\n" +
         "    int " + v + "_sink;\n" +
         (bug.multivar() ? "    int " + v + "_aux;\n" : std::string()) + R"(
    int noise_a;
    int noise_b;

    void bug_region(int id, int seed) {
)" + LocalRegion(bug.pattern, v, bug.window_work) + R"(
    }

    void bug_local(int id) {
      int seed = id * 2654435761 + 13;
      for (int i = 0; i < 1000000000; i = i + 1) {
        seed = seed * 6364136223846793005 + 1442695040888963407;
        if ((seed & )" + std::to_string(bug.gate_mask) + R"() == 0) {
          bug_region(id, seed);
)" + LocalProduce(bug.pattern, v) + R"(        }
        int acc = seed;
        for (int k = 0; k < 60; k = k + 1) {
          acc = acc * 3 + 1;
        }
      }
    }

    void bug_remote(int id) {
      int seed = id * 40503 + 57;
      for (int i = 0; i < 1000000000; i = i + 1) {
        seed = seed * 6364136223846793005 + 1442695040888963407;
        if ((seed & )" + std::to_string(bug.touch_mask) + R"() == 0) {
)" + RemoteAccess(bug.pattern, v) + R"(
        }
        int acc = seed;
        for (int k = 0; k < 20; k = k + 1) {
          acc = acc * 5 + 7;
        }
      }
    }

    void bug_noise_touch(int x) {
      int t = noise_a;
      noise_a = t + 1;
      noise_b = noise_b + (x & 7);
    }

    void bug_noise(int id) {
      int seed = id + 3;
      for (int i = 0; i < 1000000000; i = i + 1) {
        seed = seed * 6364136223846793005 + 1442695040888963407;
        bug_noise_touch(seed);
        int acc = seed;
        for (int k = 0; k < 60; k = k + 1) {
          acc = acc * 3 + k;
        }
      }
    }

    void bug_thread(int id) {
      if (id == 0) {
        bug_local(id);
      }
      if (id == 1) {
        bug_remote(id);
      }
      if (id > 1) {
        bug_noise(id);
      }
    }
  )";
}

}  // namespace

std::string BugInfo::variable() const {
  std::string prefix = app;
  std::transform(prefix.begin(), prefix.end(), prefix.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  // "tpc-w" style names would be invalid identifiers.
  prefix.erase(std::remove_if(prefix.begin(), prefix.end(),
                              [](unsigned char c) { return std::isalnum(c) == 0; }),
               prefix.end());
  return prefix + id + "_v";
}

bool BugInfo::multivar() const {
  switch (pattern) {
    case BugPattern::kPairDesync:
    case BugPattern::kFlagPair:
    case BugPattern::kPairSwap:
    case BugPattern::kStatPair:
      return true;
    default:
      return false;
  }
}

std::string BugInfo::aux_variable() const { return variable() + "_aux"; }

const std::vector<BugInfo>& BugCorpus() {
  // Trigger rates calibrated to Table 6's relative ordering: small masks
  // manifest quickly in prevention mode; the largest masks only manifest
  // under bug-finding pauses within the harness budget.
  static const auto* kCorpus = new std::vector<BugInfo>{
      {"Apache", "44402", BugPattern::kCheckThenSet, /*gate=*/1023, /*touch=*/255, 30},
      {"Apache", "21287", BugPattern::kDirtyRead, /*gate=*/4095, /*touch=*/511, 15},
      {"Apache", "25520", BugPattern::kUpdateThenUse, /*gate=*/4095, /*touch=*/511, 15},
      {"NSS", "341323", BugPattern::kCheckThenSet, /*gate=*/511, /*touch=*/127, 25},
      {"NSS", "329072", BugPattern::kDoubleRead, /*gate=*/63, /*touch=*/31, 40},
      {"NSS", "225525", BugPattern::kDoubleRead, /*gate=*/255, /*touch=*/63, 30},
      {"NSS", "270689", BugPattern::kUpdateThenUse, /*gate=*/127, /*touch=*/31, 35},
      {"NSS", "169296", BugPattern::kCheckThenSet, /*gate=*/4095, /*touch=*/511, 12},
      {"NSS", "201134", BugPattern::kDirtyRead, /*gate=*/1023, /*touch=*/255, 20},
      {"MySQL", "19938", BugPattern::kCheckThenSet, /*gate=*/255, /*touch=*/63, 30},
      {"MySQL", "25306", BugPattern::kDirtyRead, /*gate=*/511, /*touch=*/127, 25},
  };
  return *kCorpus;
}

const std::vector<BugInfo>& MultiVarBugCorpus() {
  // MUVI-style multi-variable violations (docs/correlation.md). Triggers are
  // frequent: the point of this corpus is the detect/miss differential
  // between the fused and single-variable pipelines, not Table-6 latency.
  static const auto* kCorpus = new std::vector<BugInfo>{
      {"Apache", "45605", BugPattern::kPairDesync, /*gate=*/63, /*touch=*/15, 40},
      {"Mozilla", "73291", BugPattern::kFlagPair, /*gate=*/63, /*touch=*/15, 40},
      {"MySQL", "38883", BugPattern::kPairSwap, /*gate=*/63, /*touch=*/15, 40},
      {"NSS", "88331", BugPattern::kStatPair, /*gate=*/63, /*touch=*/15, 40},
  };
  return *kCorpus;
}

App MakeBugApp(const BugInfo& bug, const FrontendOptions& frontend) {
  std::vector<std::string> buggy_vars{bug.variable()};
  if (bug.multivar()) {
    // Violations can land on the fused host AR or the synthesized partner
    // AR; both variables count as the bug.
    buggy_vars.push_back(bug.aux_variable());
  }
  return AssembleApp(bug.app + " " + bug.id, BugSource(bug), "bug_thread", /*workers=*/3,
                     buggy_vars, /*default_max_cycles=*/300'000'000, frontend);
}

}  // namespace apps
}  // namespace kivati
