//===- baseline/Cleanup.h - Copy propagation and dead code elimination ---===//
//
// Part of the lcm project: a reproduction of "Lazy Code Motion"
// (Knoop, Ruething, Steffen; PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// PRE trades computations for copies: every deleted occurrence becomes
/// `x = h` and every save adds `x = h` after `h = e`.  A real compiler
/// runs copy propagation and dead-code elimination afterwards (the paper
/// notes the copies are "usually eliminated by register allocation").
/// These passes make that cleanup measurable:
///
/// - *local copy propagation*: within a block, uses of x after `x = y`
///   read y instead, as long as neither x nor y was redefined;
/// - *dead code elimination*: assignments to variables that are dead (by
///   global variable liveness) are removed — expressions are side-effect
///   free, so any unread destination deletes its instruction.  Iterates
///   to a fixpoint.
///
//===----------------------------------------------------------------------===//

#ifndef LCM_BASELINE_CLEANUP_H
#define LCM_BASELINE_CLEANUP_H

#include <cstdint>

#include "ir/Function.h"

namespace lcm {

/// Exit-liveness policy for dead code elimination.
struct CleanupOptions {
  /// Variables with id < NumObservableVars are considered live at the
  /// exit (the program's observable outputs).  Default: everything.
  size_t NumObservableVars = ~size_t(0);
};

struct CleanupReport {
  uint64_t CopiesPropagated = 0;
  uint64_t InstrsRemoved = 0;
  /// Liveness solves actually run: one per DCE sweep, the last of each
  /// eliminateDeadCode call being the one that removed nothing.
  uint64_t Iterations = 0;
};

/// Local copy propagation over every block; returns rewritten uses.
uint64_t propagateCopies(Function &Fn);

/// Removes assignments to dead variables until nothing changes.
CleanupReport eliminateDeadCode(Function &Fn, const CleanupOptions &Opts);

/// propagateCopies + eliminateDeadCode to a joint fixpoint: stops once
/// copy propagation rewrites nothing after a DCE round.
CleanupReport runCleanup(Function &Fn, const CleanupOptions &Opts);

} // namespace lcm

#endif // LCM_BASELINE_CLEANUP_H
