//===- analysis/VarLiveness.cpp --------------------------------------------===//

#include "analysis/VarLiveness.h"

using namespace lcm;

void lcm::computeVarLivenessInto(const Function &Fn,
                                 const BitVector *ExitLive, SolverStrategy S,
                                 DataflowResult &R) {
  const size_t NumVars = Fn.numVars();
  // Per-thread transfer rows and boundary, kept at their largest size; the
  // solvers index by BlockId and never read rows past numBlocks().
  thread_local std::vector<GenKill> Transfers;
  thread_local BitVector NoneLive;
  if (Transfers.size() < Fn.numBlocks())
    Transfers.resize(Fn.numBlocks());

  for (const BasicBlock &B : Fn.blocks()) {
    BitVector &Use = Transfers[B.id()].Gen;
    BitVector &Def = Transfers[B.id()].Kill;
    Use.resize(NumVars);
    Use.resetAll();
    Def.resize(NumVars);
    Def.resetAll();
    // Upward-exposed uses and definitions, scanning forward.
    auto noteUse = [&](Operand O) {
      if (O.isVar() && !Def.test(O.var()))
        Use.set(O.var());
    };
    for (const Instr &I : B.instrs()) {
      if (I.isOperation()) {
        const Expr &E = Fn.exprs().expr(I.exprId());
        noteUse(E.Lhs);
        if (E.isBinary())
          noteUse(E.Rhs);
      } else if (I.isStore()) {
        noteUse(I.storeAddr());
        noteUse(I.storeValue());
      } else {
        noteUse(I.src());
      }
      Def.set(I.dest());
    }
    // The branch condition is read at the end of the block; it is an
    // upward-exposed use only if the block did not define it.
    if (B.hasConditionalBranch() && !Def.test(*B.condVar()))
      Use.set(*B.condVar());
    // Conditions defined in the block are a use of the definition, which is
    // within the block; they do not extend LiveIn.  However, a condition is
    // always live *out* of the body into the branch; for block-boundary
    // metrics we approximate the branch read as part of the block.
  }

  assert((!ExitLive || ExitLive->size() == NumVars) &&
         "exit-liveness universe mismatch");
  if (!ExitLive) {
    NoneLive.resize(NumVars);
    NoneLive.resetAll();
  }
  solveGenKillInto(Fn, Direction::Backward, Meet::Union, Transfers,
                   ExitLive ? *ExitLive : NoneLive, S, R);
}

VarLivenessResult lcm::computeVarLiveness(const Function &Fn,
                                          const BitVector *ExitLive,
                                          SolverStrategy S) {
  DataflowResult D;
  computeVarLivenessInto(Fn, ExitLive, S, D);
  VarLivenessResult R;
  R.LiveIn = std::move(D.In);
  R.LiveOut = std::move(D.Out);
  R.Stats = D.Stats;
  return R;
}
