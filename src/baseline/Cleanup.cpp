//===- baseline/Cleanup.cpp ------------------------------------------------===//

#include "baseline/Cleanup.h"

#include <numeric>

#include "analysis/VarLiveness.h"

using namespace lcm;

namespace {

/// The copy facts of the block being rewritten, flat over the variables:
/// RootOf[V] is the variable V was last copied from, or V itself.  A fact's
/// source never has a fact of its own (assigning it clobbers the fact), so
/// one lookup resolves a chain.  Dests lists the variables with a fact, so
/// clobbering and clearing touch only those.
struct CopyFacts {
  std::vector<VarId> RootOf;
  std::vector<VarId> Dests;

  /// Starts a function of \p NumVars variables with no facts.
  void reset(size_t NumVars) {
    if (RootOf.size() < NumVars)
      RootOf.resize(NumVars);
    std::iota(RootOf.begin(), RootOf.begin() + NumVars, VarId(0));
    Dests.clear();
  }

  VarId rootOf(VarId V) const { return RootOf[V]; }

  /// Records `Dest = Src`; Dest must have no fact.
  void add(VarId Dest, VarId Src) {
    RootOf[Dest] = Src;
    Dests.push_back(Dest);
  }

  /// Invalidates every fact involving \p W (as source or destination).
  void clobber(VarId W) {
    size_t Kept = 0;
    for (VarId D : Dests) {
      if (D == W || RootOf[D] == W)
        RootOf[D] = D;
      else
        Dests[Kept++] = D;
    }
    Dests.resize(Kept);
  }

  /// Drops every fact (at the end of a block).
  void clear() {
    for (VarId D : Dests)
      RootOf[D] = D;
    Dests.clear();
  }
};

} // namespace

uint64_t lcm::propagateCopies(Function &Fn) {
  uint64_t Rewritten = 0;
  ExprPool &Pool = Fn.exprs();
  // Per-thread, kept at the largest variable count seen.
  thread_local CopyFacts Facts;
  Facts.reset(Fn.numVars());

  for (BasicBlock &B : Fn.blocks()) {
    auto rewriteOperand = [&](Operand O) {
      if (!O.isVar())
        return O;
      VarId Root = Facts.rootOf(O.var());
      if (Root != O.var())
        ++Rewritten;
      return Operand::makeVar(Root);
    };

    for (Instr &I : B.instrs()) {
      if (I.isOperation()) {
        const Expr &Old = Pool.expr(I.exprId());
        Expr New = Old;
        New.Lhs = rewriteOperand(Old.Lhs);
        if (Old.isBinary())
          New.Rhs = rewriteOperand(Old.Rhs);
        if (!(New == Old))
          I = Instr::makeOperation(I.dest(), Pool.intern(New));
      } else if (I.isStore()) {
        Operand Addr = rewriteOperand(I.storeAddr());
        Operand Value = rewriteOperand(I.storeValue());
        if (!(Addr == I.storeAddr()) || !(Value == I.storeValue()))
          I.setStoreOperands(Addr, Value);
      } else {
        Operand Src = rewriteOperand(I.src());
        if (!(Src == I.src()))
          I = Instr::makeCopy(I.dest(), Src);
      }

      VarId Dest = I.dest();
      Facts.clobber(Dest);
      if (I.isCopy() && I.src().isVar() && I.src().var() != Dest)
        Facts.add(Dest, I.src().var());
    }

    // The branch condition is read at the very end of the block.
    if (B.hasConditionalBranch()) {
      VarId Root = Facts.rootOf(*B.condVar());
      if (Root != *B.condVar()) {
        B.setCondVar(Root);
        ++Rewritten;
      }
    }
    Facts.clear();
  }
  return Rewritten;
}

CleanupReport lcm::eliminateDeadCode(Function &Fn,
                                     const CleanupOptions &Opts) {
  CleanupReport Report;
  const size_t NumVars = Fn.numVars();
  // Per-thread scratch, kept at the largest function seen.
  thread_local BitVector Observable;
  thread_local BitVector LiveAfter;
  thread_local DataflowResult Live;
  Observable.resize(NumVars);
  Observable.resetAll();
  for (size_t V = 0; V != NumVars && V < Opts.NumObservableVars; ++V)
    Observable.set(V);

  bool Changed = true;
  while (Changed) {
    Changed = false;
    ++Report.Iterations;
    computeVarLivenessInto(Fn, &Observable, SolverStrategy::Sparse, Live);

    for (BasicBlock &B : Fn.blocks()) {
      LiveAfter = Live.Out[B.id()];
      if (B.hasConditionalBranch())
        LiveAfter.set(*B.condVar());

      // Backward in-block sweep, keeping only live assignments: survivors
      // are packed, in order, into Instrs[Kept..], then slid to the front.
      auto &Instrs = B.instrs();
      size_t Kept = Instrs.size();
      for (size_t I = Instrs.size(); I-- != 0;) {
        const Instr &In = Instrs[I];
        // Stores write observable memory: always roots, never removed.
        if (!In.isStore() && !LiveAfter.test(In.dest())) {
          ++Report.InstrsRemoved;
          Changed = true;
          continue; // Dead: expressions have no side effects.
        }
        if (!In.isStore())
          LiveAfter.reset(In.dest());
        if (In.isOperation()) {
          const Expr &E = Fn.exprs().expr(In.exprId());
          if (E.Lhs.isVar())
            LiveAfter.set(E.Lhs.var());
          if (E.isBinary() && E.Rhs.isVar())
            LiveAfter.set(E.Rhs.var());
        } else if (In.isStore()) {
          if (In.storeAddr().isVar())
            LiveAfter.set(In.storeAddr().var());
          if (In.storeValue().isVar())
            LiveAfter.set(In.storeValue().var());
        } else if (In.src().isVar()) {
          LiveAfter.set(In.src().var());
        }
        Instrs[--Kept] = In;
      }
      Instrs.erase(Instrs.begin(), Instrs.begin() + Kept);
    }
  }
  return Report;
}

CleanupReport lcm::runCleanup(Function &Fn, const CleanupOptions &Opts) {
  CleanupReport Total;
  while (true) {
    uint64_t Copies = propagateCopies(Fn);
    Total.CopiesPropagated += Copies;
    // Every DCE round ends with a sweep that removed nothing.  If copy
    // propagation then rewrote nothing, the function is as that sweep left
    // it, and another round would remove nothing either.
    if (Copies == 0 && Total.Iterations != 0)
      return Total;
    CleanupReport Dce = eliminateDeadCode(Fn, Opts);
    Total.InstrsRemoved += Dce.InstrsRemoved;
    Total.Iterations += Dce.Iterations;
  }
}
