//===- tests/cleanup_test.cpp - Copy propagation and DCE tests -----------===//

#include "baseline/Cleanup.h"
#include "core/LocalCse.h"
#include "core/Lcm.h"
#include "interp/Interpreter.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "workload/AddressGen.h"
#include "workload/RandomCfg.h"
#include "workload/StructuredGen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "analysis/VarLiveness.h"

using namespace lcm;

namespace {

Function parse(const char *Source) {
  ParseResult R = parseFunction(Source);
  EXPECT_TRUE(R) << R.Error;
  return std::move(R.Fn);
}

TEST(CopyPropagation, RewritesUsesWithinBlock) {
  Function Fn = parse(R"(
block b0
  x = h
  y = x + 1
  z = x + x
  exit
)");
  uint64_t N = propagateCopies(Fn);
  EXPECT_EQ(N, 3u);
  std::string After = printFunction(Fn);
  EXPECT_NE(After.find("y = h + 1"), std::string::npos) << After;
  EXPECT_NE(After.find("z = h + h"), std::string::npos) << After;
}

TEST(CopyPropagation, StopsAtRedefinition) {
  Function Fn = parse(R"(
block b0
  x = h
  h = 5
  y = x + 1
  exit
)");
  uint64_t N = propagateCopies(Fn);
  EXPECT_EQ(N, 0u) << "h was clobbered; x must keep its old value";
}

TEST(CopyPropagation, ChainsThroughCopies) {
  Function Fn = parse(R"(
block b0
  x = h
  y = x
  z = y + 1
  exit
)");
  propagateCopies(Fn);
  std::string After = printFunction(Fn);
  EXPECT_NE(After.find("z = h + 1"), std::string::npos) << After;
}

TEST(CopyPropagation, RewritesBranchCondition) {
  Function Fn = parse(R"(
block b0
  c2 = c
  if c2 then l else r
block l
  goto j
block r
  goto j
block j
  exit
)");
  propagateCopies(Fn);
  std::string After = printFunction(Fn);
  EXPECT_NE(After.find("if c then"), std::string::npos) << After;
}

TEST(DeadCodeElim, RemovesUnusedAssignments) {
  Function Fn = parse(R"(
block b0
  x = a + b
  x = a - b
  goto b1
block b1
  exit
)");
  CleanupOptions Opts;
  Opts.NumObservableVars = Fn.numVars(); // x observable at exit.
  CleanupReport R = eliminateDeadCode(Fn, Opts);
  EXPECT_EQ(R.InstrsRemoved, 1u) << "the overwritten first assignment dies";
  EXPECT_EQ(Fn.countOperations(), 1u);
}

TEST(DeadCodeElim, ObservabilityKeepsFinalWrites) {
  Function Fn = parse("block b0\n  x = a + b\n  exit\n");
  // With nothing observable the assignment is dead...
  Function Nothing = Fn;
  CleanupOptions None;
  None.NumObservableVars = 0;
  EXPECT_EQ(eliminateDeadCode(Nothing, None).InstrsRemoved, 1u);
  // ...with everything observable it stays.
  CleanupOptions All;
  EXPECT_EQ(eliminateDeadCode(Fn, All).InstrsRemoved, 0u);
}

TEST(DeadCodeElim, CascadesThroughChains) {
  Function Fn = parse(R"(
block b0
  a = 1
  b = a + a
  c = b * b
  exit
)");
  CleanupOptions Opts;
  Opts.NumObservableVars = 0;
  CleanupReport R = eliminateDeadCode(Fn, Opts);
  EXPECT_EQ(R.InstrsRemoved, 3u);
  EXPECT_GE(R.Iterations, 2u) << "chain removal needs a fixpoint";
}

TEST(DeadCodeElim, KeepsBranchConditions) {
  Function Fn = parse(R"(
block b0
  c = a < b
  if c then l else r
block l
  goto j
block r
  goto j
block j
  exit
)");
  CleanupOptions Opts;
  Opts.NumObservableVars = 0;
  CleanupReport R = eliminateDeadCode(Fn, Opts);
  EXPECT_EQ(R.InstrsRemoved, 0u) << "the branch reads c";
}

TEST(DeadCodeElim, LoopCarriedValuesStayLive) {
  Function Fn = parse(R"(
block b0
  i = 5
  goto h
block h
  c = i > 0
  if c then w else d
block w
  i = i - 1
  goto h
block d
  exit
)");
  CleanupOptions Opts;
  Opts.NumObservableVars = 0;
  CleanupReport R = eliminateDeadCode(Fn, Opts);
  EXPECT_EQ(R.InstrsRemoved, 0u);
}

TEST(Cleanup, ShrinksLcmCopyOverhead) {
  // After LCM, a save introduces h = e; x = h; cleanup folds the copies
  // where the saved variable is itself unused afterwards.
  StructuredGenOptions GenOpts;
  GenOpts.Seed = 4;
  Function Fn = generateStructured(GenOpts);
  runLocalCse(Fn);
  Function Original = Fn;
  runPre(Fn, PreStrategy::Lazy);

  size_t InstrsBefore = 0;
  for (const BasicBlock &B : Fn.blocks())
    InstrsBefore += B.instrs().size();

  CleanupOptions Opts;
  Opts.NumObservableVars = Original.numVars();
  CleanupReport R = runCleanup(Fn, Opts);
  EXPECT_TRUE(isValidFunction(Fn));

  size_t InstrsAfter = 0;
  for (const BasicBlock &B : Fn.blocks())
    InstrsAfter += B.instrs().size();
  EXPECT_EQ(InstrsAfter, InstrsBefore - R.InstrsRemoved);

  // Semantics on observable variables preserved.
  FirstSuccessorOracle Oracle;
  Interpreter::Options IOpts;
  std::vector<int64_t> Inputs(Original.numVars(), 2);
  InterpResult A = Interpreter::run(Original, Inputs, Oracle, IOpts);
  InterpResult B = Interpreter::run(Fn, Inputs, Oracle, IOpts);
  ASSERT_TRUE(A.ReachedExit);
  ASSERT_TRUE(B.ReachedExit);
  for (size_t V = 0; V != Original.numVars(); ++V)
    EXPECT_EQ(A.Vars[V], B.Vars[V]) << Original.varName(VarId(V));
}

TEST(Cleanup, FixpointIsIdempotent) {
  Function Fn = parse(R"(
block b0
  h = a + b
  x = h
  y = x + 1
  exit
)");
  CleanupOptions Opts;
  runCleanup(Fn, Opts);
  std::string Once = printFunction(Fn);
  CleanupReport R = runCleanup(Fn, Opts);
  EXPECT_EQ(R.CopiesPropagated, 0u);
  EXPECT_EQ(R.InstrsRemoved, 0u);
  EXPECT_EQ(printFunction(Fn), Once);
}

//===----------------------------------------------------------------------===//
// Reference equivalence
//===----------------------------------------------------------------------===//

/// The straightforward cleanup the pass must match byte for byte: a
/// std::map of copy facts per block, a fresh liveness result on every DCE
/// iteration, a fresh vector of survivors per block, and rounds until both
/// halves change nothing.
namespace reference {

VarId rootOf(const std::map<VarId, VarId> &CopyOf, VarId V) {
  auto It = CopyOf.find(V);
  return It == CopyOf.end() ? V : It->second;
}

void clobber(std::map<VarId, VarId> &CopyOf, VarId W) {
  CopyOf.erase(W);
  for (auto It = CopyOf.begin(); It != CopyOf.end();) {
    if (It->second == W)
      It = CopyOf.erase(It);
    else
      ++It;
  }
}

uint64_t propagateCopies(Function &Fn) {
  uint64_t Rewritten = 0;
  ExprPool &Pool = Fn.exprs();
  for (BasicBlock &B : Fn.blocks()) {
    std::map<VarId, VarId> CopyOf;
    auto rewriteOperand = [&](Operand O) {
      if (!O.isVar())
        return O;
      VarId Root = rootOf(CopyOf, O.var());
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
      clobber(CopyOf, Dest);
      if (I.isCopy() && I.src().isVar() && I.src().var() != Dest)
        CopyOf[Dest] = I.src().var();
    }
    if (B.hasConditionalBranch()) {
      VarId Root = rootOf(CopyOf, *B.condVar());
      if (Root != *B.condVar()) {
        B.setCondVar(Root);
        ++Rewritten;
      }
    }
  }
  return Rewritten;
}

CleanupReport eliminateDeadCode(Function &Fn, const CleanupOptions &Opts) {
  CleanupReport Report;
  const size_t NumVars = Fn.numVars();
  BitVector Observable(NumVars);
  for (size_t V = 0; V != NumVars && V < Opts.NumObservableVars; ++V)
    Observable.set(V);
  bool Changed = true;
  while (Changed) {
    Changed = false;
    ++Report.Iterations;
    VarLivenessResult Live = computeVarLiveness(Fn, &Observable);
    for (BasicBlock &B : Fn.blocks()) {
      BitVector LiveAfter = Live.LiveOut[B.id()];
      if (B.hasConditionalBranch())
        LiveAfter.set(*B.condVar());
      std::vector<Instr> Kept;
      auto &Instrs = B.instrs();
      for (size_t I = Instrs.size(); I-- != 0;) {
        const Instr &In = Instrs[I];
        if (!In.isStore() && !LiveAfter.test(In.dest())) {
          ++Report.InstrsRemoved;
          Changed = true;
          continue;
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
        Kept.push_back(In);
      }
      if (Kept.size() != Instrs.size()) {
        std::reverse(Kept.begin(), Kept.end());
        Instrs = std::move(Kept);
      }
    }
  }
  return Report;
}

/// Also reports how many copy-propagation + DCE rounds ran.
CleanupReport runCleanup(Function &Fn, const CleanupOptions &Opts,
                         unsigned &Rounds) {
  CleanupReport Total;
  for (Rounds = 1;; ++Rounds) {
    uint64_t Copies = reference::propagateCopies(Fn);
    CleanupReport Dce = reference::eliminateDeadCode(Fn, Opts);
    Total.CopiesPropagated += Copies;
    Total.InstrsRemoved += Dce.InstrsRemoved;
    Total.Iterations += Dce.Iterations;
    if (Copies == 0 && Dce.InstrsRemoved == 0)
      return Total;
  }
}

} // namespace reference

/// A cleanup input and the variable count of the program before any pass.
struct CleanupInput {
  Function Fn;
  size_t OriginalVars;
};

/// Randomized programs from every generator, locally CSE'd and moved by
/// LCM: the input cleanup sees in the `lcse,lcm,cleanup` pipeline.
std::vector<CleanupInput> programsAfterLcm() {
  std::vector<Function> Fns;
  for (uint64_t Seed = 1; Seed <= 24; ++Seed) {
    StructuredGenOptions S;
    S.Seed = Seed;
    S.MaxDepth = 2 + Seed % 3;
    S.NumVars = 4 + Seed % 5;
    Fns.push_back(generateStructured(S));
    RandomCfgOptions R;
    R.Seed = Seed;
    R.NumBlocks = 6 + Seed % 20;
    R.NumVars = 3 + Seed % 5;
    Fns.push_back(generateRandomCfg(R));
    AddressGenOptions A;
    A.Seed = Seed;
    A.Depth = 1 + Seed % 3;
    Fns.push_back(generateAddressKernel(A));
    MemoryGenOptions M;
    M.Seed = Seed;
    M.Depth = 1 + Seed % 2;
    Fns.push_back(generateMemoryKernel(M));
  }
  std::vector<CleanupInput> Inputs;
  for (Function &Fn : Fns) {
    const size_t OriginalVars = Fn.numVars();
    runLocalCse(Fn);
    runPre(Fn, PreStrategy::Lazy);
    Inputs.push_back({std::move(Fn), OriginalVars});
  }
  return Inputs;
}

TEST(CleanupReference, MatchesTheStraightforwardCleanupByteForByte) {
  uint64_t Copies = 0, Removed = 0, SkippedSolves = 0;
  for (const CleanupInput &In : programsAfterLcm()) {
    const Function &Input = In.Fn;
    ASSERT_TRUE(isValidFunction(Input)) << printFunction(Input);
    // Default: everything observable; then only the program's own
    // variables, so the temporaries the passes introduced may die.
    CleanupOptions All, Original;
    Original.NumObservableVars = In.OriginalVars;
    for (const CleanupOptions &Opts : {All, Original}) {
      SCOPED_TRACE(Input.name() + " observable " +
                   std::to_string(Opts.NumObservableVars));

      Function Ref = Input, New = Input;
      EXPECT_EQ(propagateCopies(New), reference::propagateCopies(Ref));
      EXPECT_EQ(printFunction(New), printFunction(Ref));

      Ref = Input;
      New = Input;
      CleanupReport RD = reference::eliminateDeadCode(Ref, Opts);
      CleanupReport ND = eliminateDeadCode(New, Opts);
      EXPECT_EQ(ND.InstrsRemoved, RD.InstrsRemoved);
      EXPECT_EQ(ND.Iterations, RD.Iterations);
      EXPECT_EQ(printFunction(New), printFunction(Ref));

      Ref = Input;
      New = Input;
      unsigned Rounds = 0;
      CleanupReport RC = reference::runCleanup(Ref, Opts, Rounds);
      CleanupReport NC = runCleanup(New, Opts);
      EXPECT_EQ(NC.CopiesPropagated, RC.CopiesPropagated);
      EXPECT_EQ(NC.InstrsRemoved, RC.InstrsRemoved);
      // The last round of a multi-round cleanup only confirms the
      // fixpoint; its solve is the one skipped.
      EXPECT_EQ(NC.Iterations + (Rounds > 1 ? 1 : 0), RC.Iterations);
      EXPECT_EQ(printFunction(New), printFunction(Ref));
      EXPECT_TRUE(isValidFunction(New));
      Copies += NC.CopiesPropagated;
      Removed += NC.InstrsRemoved;
      SkippedSolves += RC.Iterations - NC.Iterations;
    }
  }
  // The sample exercises both halves and the skipped confirming solve.
  EXPECT_GT(Copies, 0u);
  EXPECT_GT(Removed, 0u);
  EXPECT_GT(SkippedSolves, 0u);
}

} // namespace
