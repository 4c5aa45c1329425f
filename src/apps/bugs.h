// The atomicity-violation bug corpus (paper §4.2, Table 6).
//
// Eleven bugs drawn from the bug databases of Apache, Mozilla NSS and MySQL
// are modelled as mini-C workloads. Each bug is an instance of one of four
// interleaving patterns (the paper's Figure 2), with per-bug trigger rates
// calibrated so the relative detection-time ordering of Table 6 reproduces:
// frequent-trigger bugs manifest quickly even in prevention mode, while the
// rarest ones only surface under bug-finding pauses.
//
//   kCheckThenSet   R..W  local check-then-update, remote write  (lost update)
//   kUpdateThenUse  W..R  local update-then-use, remote write
//   kDirtyRead      W..W  local two-step update, remote read sees the middle
//   kDoubleRead     R..R  local double read, remote write between
//
// The multi-variable corpus (MultiVarBugCorpus) adds four MUVI-style bugs
// where the atomicity requirement spans TWO correlated variables (a primary
// `v` and an aux `v_aux`). Each is constructed so the single-variable
// pipeline provably misses it — the remote side never performs an access
// any single-variable watch type would trap — while the correlation pass
// (analysis/correlation.h) fuses the pair into one multi-variable region
// whose joint mask convicts it:
//
//   kPairDesync  len/buf desync: local refills buf then bumps len; a remote
//                reader sees the new buf with the old len (or vice versa).
//   kFlagPair    flag/data check-then-act: local checks ready then consumes
//                data; a remote producer overwrites data after the check.
//   kPairSwap    paired-pointer swap: local swaps head/spare; a remote
//                reader sees the transient state where both are equal.
//   kStatPair    stat-counter pair: hits/total bumped together; a remote
//                reader computes a ratio from a torn pair.
#ifndef KIVATI_APPS_BUGS_H_
#define KIVATI_APPS_BUGS_H_

#include <string>
#include <vector>

#include "apps/common.h"

namespace kivati {
namespace apps {

enum class BugPattern {
  kCheckThenSet,
  kUpdateThenUse,
  kDirtyRead,
  kDoubleRead,
  // Multi-variable patterns (correlated v / v_aux pair).
  kPairDesync,
  kFlagPair,
  kPairSwap,
  kStatPair,
};

struct BugInfo {
  std::string app;       // "Apache", "NSS", "MySQL"
  std::string id;        // bug-database id, e.g. "44402"
  BugPattern pattern;
  // Trigger calibration: the local thread enters the buggy region when
  // (rng & gate_mask) == 0; the remote thread touches the variable when
  // (rng & touch_mask) == 0; window_work pads the region's vulnerable
  // window.
  int gate_mask = 255;
  int touch_mask = 63;
  int window_work = 30;

  // The shared variable name in the generated source, e.g. "nss341323_v".
  std::string variable() const;
  // True for the multi-variable patterns (kPairDesync and later).
  bool multivar() const;
  // The correlated partner variable, variable() + "_aux" (multivar only).
  std::string aux_variable() const;
};

// The full corpus, in Table 6's row order.
const std::vector<BugInfo>& BugCorpus();

// The four multi-variable bugs. Kept separate from BugCorpus() so the
// Table-6 experiments and their baselines are untouched.
const std::vector<BugInfo>& MultiVarBugCorpus();

// Builds the workload for one bug: a local thread that repeatedly applies
// the triggering input, a remote thread that makes the interleaving access,
// and a noise thread exercising unrelated shared state, compiled with
// `frontend`. Correlation (FrontendOptions::correlate) is what makes the
// multi-variable corpus detectable at all.
App MakeBugApp(const BugInfo& bug, const FrontendOptions& frontend = {});

}  // namespace apps
}  // namespace kivati

#endif  // KIVATI_APPS_BUGS_H_
