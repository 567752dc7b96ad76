//===- dataflow/Dataflow.h - Unidirectional bit-vector dataflow framework -===//
//
// Part of the lcm project: a reproduction of "Lazy Code Motion"
// (Knoop, Ruething, Steffen; PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's central engineering claim is that optimal PRE decomposes into
/// *unidirectional* bit-vector problems.  This framework solves exactly that
/// class: gen/kill transfer functions per block, intersection or union meet,
/// iterated to a fixpoint in reverse post-order (forward) or post-order
/// (backward).
///
/// The solver reports iteration counts and bit-vector word operations, which
/// the dataflow-cost experiment (T3) compares against the bidirectional
/// Morel–Renvoise baseline.
///
//===----------------------------------------------------------------------===//

#ifndef LCM_DATAFLOW_DATAFLOW_H
#define LCM_DATAFLOW_DATAFLOW_H

#include <vector>

#include "ir/Function.h"
#include "support/BitVector.h"

namespace lcm {

/// Propagation direction of a dataflow problem.
enum class Direction { Forward, Backward };

/// Path-combining operator at control-flow joins.
enum class Meet { Intersection, Union };

/// Gen/kill transfer function of one block:
///   out = Gen | (in & ~Kill)        (forward)
///   in  = Gen | (out & ~Kill)       (backward)
struct GenKill {
  BitVector Gen;
  BitVector Kill;
};

/// Solver instrumentation counters.
struct SolverStats {
  /// Round-robin passes over the CFG until the fixpoint (>= 1; zero for
  /// the worklist solvers, which have no pass structure).
  uint64_t Passes = 0;
  /// Total block visits (round-robin: Passes * blocks; worklist: pops).
  uint64_t NodeVisits = 0;
  /// Bit-vector word operations consumed while solving.
  uint64_t WordOps = 0;
};

/// Which fixpoint engine solves a gen/kill problem.  All three produce the
/// identical fixpoint (asserted in tests/solver_equivalence_test.cpp); they
/// differ only in visit order and memory behavior, which is what the T8
/// ablation measures.
enum class SolverStrategy {
  /// Classic round-robin sweeps over RPO/PO until a full pass changes
  /// nothing (the iteration scheme the 1992 paper assumes).
  RoundRobin,
  /// Change-driven FIFO worklist over per-block BitVectors.
  Worklist,
  /// Second-generation engine: facts live in one flat FactArena word
  /// buffer, the worklist pops blocks in RPO (PO for backward) priority
  /// order, and the solve loop performs zero heap allocation.
  Sparse,
};

const char *solverStrategyName(SolverStrategy S);

/// Fixpoint solution: one fact per block boundary.
struct DataflowResult {
  /// Fact at block entry.
  std::vector<BitVector> In;
  /// Fact at block exit.
  std::vector<BitVector> Out;
  SolverStats Stats;
};

/// Solves a gen/kill dataflow problem on \p Fn.
///
/// \param Transfers one GenKill per block (indexed by BlockId), with all
///        vectors sized to the same universe.
/// \param Boundary the fact at the CFG boundary: entry-in for forward
///        problems, exit-out for backward problems.
///
/// Interior facts are initialized to the meet's neutral element (all-ones
/// for intersection, all-zeros for union), giving the maximal/minimal
/// fixpoint respectively — the solutions the paper's analyses require.
DataflowResult solveGenKill(const Function &Fn, Direction Dir, Meet M,
                            const std::vector<GenKill> &Transfers,
                            const BitVector &Boundary);

/// Change-driven worklist variant of solveGenKill.  Produces the identical
/// fixpoint (the framework is monotone over a finite lattice) but visits
/// only blocks whose inputs changed; NodeVisits reports worklist pops and
/// Passes stays zero.  Used by the solver-strategy ablation.
DataflowResult solveGenKillWorklist(const Function &Fn, Direction Dir,
                                    Meet M,
                                    const std::vector<GenKill> &Transfers,
                                    const BitVector &Boundary);

/// Sparse-arena variant: all In/Out facts live in one contiguous
/// FactArena word buffer (reused across solves, one arena per thread), the
/// worklist is a priority queue keyed by reverse-post-order position
/// (post-order for backward problems) so upstream blocks settle before
/// their consumers re-run, and the solve loop allocates nothing — raw
/// word kernels plus reusable scratch rows replace every per-visit
/// BitVector.  Identical fixpoint to the other two solvers; NodeVisits
/// reports pops, Passes stays zero.
DataflowResult solveGenKillSparse(const Function &Fn, Direction Dir, Meet M,
                                  const std::vector<GenKill> &Transfers,
                                  const BitVector &Boundary);

/// Dispatches to the solver selected by \p S.
DataflowResult solveGenKill(const Function &Fn, Direction Dir, Meet M,
                            const std::vector<GenKill> &Transfers,
                            const BitVector &Boundary, SolverStrategy S);

/// Reuse form of the dispatching solveGenKill: writes the fixpoint into a
/// caller-owned result whose row storage is recycled across solves.  With
/// SolverStrategy::Sparse the entire solve — including materializing R —
/// performs zero heap allocation once R's rows have warmed up to the
/// problem size.  The dense strategies still allocate internally (they are
/// ablation baselines, not hot paths).
void solveGenKillInto(const Function &Fn, Direction Dir, Meet M,
                      const std::vector<GenKill> &Transfers,
                      const BitVector &Boundary, SolverStrategy S,
                      DataflowResult &R);

} // namespace lcm

#endif // LCM_DATAFLOW_DATAFLOW_H
