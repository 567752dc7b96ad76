//===- interp/Interpreter.h - CFG interpreter with evaluation counters ---===//
//
// Part of the lcm project: a reproduction of "Lazy Code Motion"
// (Knoop, Ruething, Steffen; PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes a Function over 64-bit integer state with total expression
/// semantics (see evalOpcode), counting how many times every expression is
/// evaluated.  The dynamic counts are what the paper's computational-
/// optimality theorem bounds, and the state comparison is the semantic-
/// preservation check of the property tests.
///
/// Runs are capped by a visit budget on *original* blocks (ids below
/// Options::OriginalBlockCount), so an original program and its transformed
/// version — which interleaves extra split blocks that must not consume
/// budget — stop at corresponding points even when a random CFG loops
/// forever.
///
//===----------------------------------------------------------------------===//

#ifndef LCM_INTERP_INTERPRETER_H
#define LCM_INTERP_INTERPRETER_H

#include <map>
#include <optional>
#include <vector>

#include "interp/Oracle.h"
#include "ir/Function.h"

namespace lcm {

/// Outcome of one interpreted run.
struct InterpResult {
  /// Final variable state (indexed by VarId).
  std::vector<int64_t> Vars;
  /// Final memory state: address -> value for every address some store
  /// wrote.  Addresses never written read as memDefault(addr).
  std::map<int64_t, int64_t> Mem;
  /// True if the exit block finished executing within the budget.
  bool ReachedExit = false;
  /// Blocks executed (all of them, split blocks included).
  uint64_t BlocksExecuted = 0;
  /// Blocks executed with id < Options::OriginalBlockCount.
  uint64_t OriginalBlocksExecuted = 0;
  uint64_t InstrsExecuted = 0;
  /// Operation-instruction executions (the paper's "computations").
  uint64_t TotalEvals = 0;
  /// Per-expression evaluation counts (indexed by ExprId).
  std::vector<uint64_t> EvalsPerExpr;
  /// Per-block execution counts (dynamic block frequencies).
  std::vector<uint64_t> VisitsPerBlock;
  /// Per-block, per-successor-position traversal counts: how many times
  /// execution left block B through its I-th out-edge.  This is exactly
  /// the raw material of a measured `lcm-profile-v1` edge profile
  /// (specpre::profileFromTraversals).
  std::vector<std::vector<uint64_t>> SuccTraversals;
};

/// The interpreter.  Stateless; everything lives in the run call.
class Interpreter {
public:
  struct Options {
    /// Stop before exceeding this many original-block executions.
    uint64_t MaxOriginalBlockVisits = 200000;
    /// Blocks with id >= this do not consume budget (set it to the block
    /// count of the *original* function when running a transformed one).
    uint32_t OriginalBlockCount = ~uint32_t(0);
  };

  /// Runs \p Fn from its entry.  \p InitialVars seeds the low VarIds; any
  /// remaining variables (e.g. PRE temporaries) start at zero.
  static InterpResult run(const Function &Fn,
                          const std::vector<int64_t> &InitialVars,
                          BranchOracle &Oracle, const Options &Opts);
};

/// True if two runs stopped at corresponding points with identical state
/// over the first \p NumOriginalVars variables — the semantic-equivalence
/// criterion for a PRE transformation.
bool sameObservableBehaviour(const InterpResult &A, const InterpResult &B,
                             size_t NumOriginalVars);

/// The first address at which the final memories of \p A and \p B differ,
/// or nullopt when they agree.  An address only one run wrote must hold
/// memDefault(addr) in the other run's store.
std::optional<int64_t> firstMemoryDifference(const InterpResult &A,
                                             const InterpResult &B);

} // namespace lcm

#endif // LCM_INTERP_INTERPRETER_H
