//===- analysis/VarLiveness.h - Variable-level liveness (for metrics) ----===//
//
// Part of the lcm project: a reproduction of "Lazy Code Motion"
// (Knoop, Ruething, Steffen; PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Classic backward variable liveness over a function's variable universe.
/// The lifetime-optimality experiment (T2) measures the live ranges of the
/// temporaries each PRE strategy introduces; this is the analysis that
/// measures them.  Branch condition variables count as uses at the end of
/// their block; every variable is considered dead at the exit.
///
//===----------------------------------------------------------------------===//

#ifndef LCM_ANALYSIS_VARLIVENESS_H
#define LCM_ANALYSIS_VARLIVENESS_H

#include "dataflow/Dataflow.h"
#include "ir/Function.h"

namespace lcm {

/// Per-block variable liveness (universe = Fn.numVars()).
struct VarLivenessResult {
  std::vector<BitVector> LiveIn;
  std::vector<BitVector> LiveOut;
  SolverStats Stats;
};

/// Computes liveness of every variable.
///
/// \param ExitLive variables considered live at the exit (the observable
///        outputs); defaults to none.  Must be sized Fn.numVars() if given.
/// \param S fixpoint engine; defaults to the sparse-arena solver.
VarLivenessResult
computeVarLiveness(const Function &Fn, const BitVector *ExitLive = nullptr,
                   SolverStrategy S = SolverStrategy::Sparse);

/// Reuse form of computeVarLiveness: writes LiveIn into R.In and LiveOut
/// into R.Out, whose rows are recycled across calls (R may hold more rows
/// than blocks; see reshapeRows).  The transfers live in per-thread
/// scratch, so with the sparse solver a warm call allocates nothing.
void computeVarLivenessInto(const Function &Fn, const BitVector *ExitLive,
                            SolverStrategy S, DataflowResult &R);

} // namespace lcm

#endif // LCM_ANALYSIS_VARLIVENESS_H
