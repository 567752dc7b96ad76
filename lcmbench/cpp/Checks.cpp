//===- lcmbench/cpp/Checks.cpp - Checks independent of the optimizer ----===//
//
// The outputs are judged by re-execution and by the properties the paper
// proves, never by comparison with a stored copy of an earlier output:
//
//  * behaviour: the interpreter runs input and output under the same seeded
//    inputs and branch oracles; final variables and memory must agree;
//  * computational optimality: on every seeded run that reaches the exit,
//    the output evaluates no more expressions than the input, and `lcm`
//    evaluates exactly as often as `bcm` (both are computationally
//    optimal);
//  * lifetime optimality: `lcm` keeps no more temporaries live at block
//    boundaries than `bcm`.  The lifetimes are counted by a liveness pass
//    written here, over the reparsed text, so the optimizer's own analyses
//    play no part in the verdict.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cstdio>

#include "driver/Pipeline.h"
#include "interp/Interpreter.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "support/Rng.h"

using namespace lcm;

namespace lcmbench {

namespace {

constexpr unsigned SeededRuns = 3;
constexpr uint64_t VisitBudget = 20000;

bool parseText(const std::string &Text, Function &Out) {
  ParseResult P = parseFunction(Text);
  if (!P)
    return false;
  Out = std::move(P.Fn);
  return true;
}

/// Seeded initial values by variable name, so input and output (whose
/// reparse numbers variables differently) start from the same state.
std::vector<int64_t> inputsFor(const Function &Fn, const Function &Ref,
                               uint64_t Seed) {
  std::vector<int64_t> V(Fn.numVars(), 0);
  Rng R(splitmix(Seed ^ 0x1b873593));
  for (VarId I = 0; I != VarId(Ref.numVars()); ++I) {
    const int64_t X = R.range(-4, 9);
    const VarId W = Fn.findVar(Ref.varName(I));
    if (W != InvalidVar)
      V[W] = X;
  }
  return V;
}

InterpResult runSeeded(const Function &Fn, const Function &Ref, uint64_t Seed) {
  RandomOracle Oracle(splitmix(Seed ^ 0x85ebca6b));
  Interpreter::Options Opts;
  Opts.MaxOriginalBlockVisits = VisitBudget;
  Opts.OriginalBlockCount = uint32_t(Ref.numBlocks());
  return Interpreter::run(Fn, inputsFor(Fn, Ref, Seed), Oracle, Opts);
}

/// Empty when \p Out behaves like \p In on this run, else why not.
std::string compareRuns(const Function &In, const InterpResult &A,
                        const Function &Out, const InterpResult &B,
                        const std::vector<int64_t> &InInputs) {
  if (A.ReachedExit != B.ReachedExit ||
      A.OriginalBlocksExecuted != B.OriginalBlocksExecuted)
    return "runs stopped at different points";
  for (VarId V = 0; V != VarId(In.numVars()); ++V) {
    const VarId W = Out.findVar(In.varName(V));
    // A variable the output no longer mentions keeps its initial value.
    const int64_t Got = W == InvalidVar ? InInputs[V] : B.Vars[W];
    if (Got != A.Vars[V])
      return "variable '" + In.varName(V) + "' diverged";
  }
  if (A.Mem != B.Mem)
    return "memory diverged";
  return "";
}

/// Block boundaries (entry and exit of every block) at which a temporary —
/// a variable the input does not have — is live.
uint64_t tempLiveSlots(const Function &Fn, const Function &In) {
  const size_t NV = Fn.numVars(), NB = Fn.numBlocks();
  std::vector<char> IsTemp(NV, 0);
  for (VarId V = 0; V != VarId(NV); ++V)
    IsTemp[V] = In.findVar(Fn.varName(V)) == InvalidVar;
  std::vector<std::vector<char>> Use(NB, std::vector<char>(NV, 0)),
      Def(NB, std::vector<char>(NV, 0));
  for (BlockId B = 0; B != BlockId(NB); ++B) {
    auto Read = [&](Operand O) {
      if (O.isVar() && !Def[B][O.var()])
        Use[B][O.var()] = 1;
    };
    for (const Instr &I : Fn.block(B).instrs()) {
      if (I.isOperation()) {
        const Expr &E = Fn.exprs().expr(I.exprId());
        Read(E.Lhs);
        if (E.isBinary())
          Read(E.Rhs);
      } else if (I.isCopy()) {
        Read(I.src());
      } else {
        Read(I.storeAddr());
        Read(I.storeValue());
        continue;
      }
      Def[B][I.dest()] = 1;
    }
    if (auto C = Fn.block(B).condVar())
      if (!Def[B][*C])
        Use[B][*C] = 1;
  }
  std::vector<std::vector<char>> LiveIn(NB, std::vector<char>(NV, 0)),
      LiveOut = LiveIn;
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (BlockId B = BlockId(NB); B-- != 0;) {
      for (BlockId S : Fn.block(B).succs())
        for (size_t V = 0; V != NV; ++V)
          if (LiveIn[S][V] && !LiveOut[B][V])
            LiveOut[B][V] = 1, Changed = true;
      for (size_t V = 0; V != NV; ++V) {
        const char L = Use[B][V] || (LiveOut[B][V] && !Def[B][V]);
        if (L && !LiveIn[B][V])
          LiveIn[B][V] = 1, Changed = true;
      }
    }
  }
  uint64_t Slots = 0;
  for (size_t B = 0; B != NB; ++B)
    for (size_t V = 0; V != NV; ++V)
      if (IsTemp[V])
        Slots += uint64_t(LiveIn[B][V]) + uint64_t(LiveOut[B][V]);
  return Slots;
}

uint64_t staticInstrs(const Function &Fn) {
  uint64_t N = 0;
  for (const BasicBlock &B : Fn.blocks())
    N += B.instrs().size();
  return N;
}

} // namespace

uint64_t inputEvals(const Function &Fn) {
  uint64_t Evals = 0;
  for (uint64_t Seed = 1; Seed <= SeededRuns; ++Seed)
    Evals += runSeeded(Fn, Fn, Seed).TotalEvals;
  return Evals;
}

std::string optimizeText(const std::string &Text, const std::string &Spec) {
  PipelineParse P = parsePipeline(Spec);
  Function Fn;
  if (!P || !parseText(Text, Fn))
    return "";
  if (!P.P.run(Fn).Ok)
    return "";
  return printFunction(Fn);
}

PipelinePasses timePipeline(const std::vector<std::string> &Fns,
                            const std::string &Spec, double Seconds,
                            const std::function<void(bool)> &Hook) {
  PipelinePasses Out;
  PipelineParse P = parsePipeline(Spec);
  std::vector<Function> Parsed(Fns.size());
  for (size_t I = 0; I != Fns.size(); ++I)
    Out.Ok &= P && parseText(Fns[I], Parsed[I]);
  if (!Out.Ok)
    return Out;
  const Clock::time_point T0 = Clock::now();
  for (unsigned Pass = 0; Pass < 3 || secondsSince(T0) < Seconds; ++Pass) {
    std::vector<Function> Work = Parsed;
    if (Pass == 1 && Hook)
      Hook(false);
    const Clock::time_point A = Clock::now();
    for (Function &Fn : Work)
      Out.Ok &= P.P.run(Fn).Ok;
    Out.PassS.push_back(secondsSince(A));
    if (Pass == 1 && Hook)
      Hook(true);
  }
  return Out;
}

void checkOutput(const std::string &Input, const std::string &Output,
                 const std::string &Pipeline, CheckTotals &T, Report &R) {
  Function In, Out, Lcm, Bcm;
  const std::string LcmText = Pipeline.rfind("lcse,lcm", 0) == 0
                                  ? optimizeText(Input, "lcse,lcm")
                                  : std::string();
  const std::string BcmText = optimizeText(Input, "lcse,bcm");
  auto Fail = [&](const std::string &Why) {
    ++T.Failures;
    const size_t Eol = Input.find('\n');
    R.problem(Input.substr(0, Eol) + ": " + Why);
  };
  if (!parseText(Input, In) || !parseText(Output, Out))
    return Fail("input or output does not parse");
  // The property check reads `lcse,lcm` itself: the output under test when
  // the pipeline is exactly that, else the in-process run of it.
  const std::string &LcmSrc = Pipeline == "lcse,lcm" ? Output : LcmText;
  const bool Optimality = !LcmSrc.empty();
  if (Optimality && (!parseText(LcmSrc, Lcm) || !parseText(BcmText, Bcm)))
    return Fail("lcse,lcm or lcse,bcm output does not parse");

  T.CodeSize += staticInstrs(Out);
  T.TempLiveSlots += tempLiveSlots(Out, In);
  for (uint64_t Seed = 1; Seed <= SeededRuns; ++Seed) {
    const InterpResult A = runSeeded(In, In, Seed);
    const InterpResult B = runSeeded(Out, In, Seed);
    ++T.Runs;
    T.DynEvals += B.TotalEvals;
    const std::string Why = compareRuns(In, A, Out, B, inputsFor(In, In, Seed));
    if (!Why.empty())
      return Fail(Why + " under seed " + std::to_string(Seed));
    if (!A.ReachedExit)
      continue;
    ++T.RunsToExit;
    if (B.TotalEvals > A.TotalEvals)
      return Fail("output evaluates " + std::to_string(B.TotalEvals) +
                  " expressions, input " + std::to_string(A.TotalEvals));
    if (!Optimality)
      continue;
    const InterpResult L = runSeeded(Lcm, In, Seed);
    const InterpResult C = runSeeded(Bcm, In, Seed);
    if (L.TotalEvals != C.TotalEvals)
      return Fail("lcm evaluates " + std::to_string(L.TotalEvals) +
                  " expressions, bcm " + std::to_string(C.TotalEvals));
  }
  if (Optimality && tempLiveSlots(Lcm, In) > tempLiveSlots(Bcm, In))
    return Fail("lcm keeps more temporaries live than bcm");
}

//===----------------------------------------------------------------------===//
// The checks' own tests
//===----------------------------------------------------------------------===//

int selfTest() {
  // The paper's motivating example: LCM inserts after the kill and keeps
  // the temporary's lifetime short.
  const std::string Input = R"(func selftest
block entry
  i = 3
  goto b1
block b1
  br b2 b3
block b2
  x = a + b
  goto b4
block b3
  a = k
  goto b4
block b4
  br b5 b8
block b5
  goto b6
block b6
  y = a + b
  i = i - 1
  ci = i > 0
  if ci then b6 else b7
block b7
  goto b8
block b8
  z = a + b
  goto exit
block exit
  exit
)";
  const std::string Good = optimizeText(Input, "lcse,lcm");
  int Missed = 0;
  auto Expect = [&](const char *What, const std::string &Output,
                    bool WantFail) {
    Report R;
    CheckTotals T;
    checkOutput(Input, Output, "lcse,lcm", T, R);
    const bool Failed = T.Failures != 0;
    std::printf("%-44s %s\n", What,
                Failed == WantFail ? "ok" : "NOT DETECTED");
    if (Failed != WantFail) {
      ++Missed;
      for (const std::string &N : R.Notes)
        std::printf("  %s\n", N.c_str());
    }
  };
  auto Replace = [](std::string S, const std::string &From,
                    const std::string &To) {
    const size_t P = S.find(From);
    if (P != std::string::npos)
      S.replace(P, From.size(), To);
    return S;
  };
  Expect("correct output passes", Good, false);
  Expect("wrong operator is caught (behaviour)",
         Replace(Good, "z = ", "z = 1 + "), true);
  Expect("extra evaluation is caught (evaluations)",
         Replace(Good, "  i = 3\n", "  i = 3\n  w.x = c * d\n"), true);
  // bcm's placement with its temporary held on to the exit: evaluations
  // still optimal, lifetimes longer than bcm's own.
  Expect("temporary held to the exit is caught (lifetimes)",
         Replace(optimizeText(Input, "lcse,bcm"), "block exit\n",
                 "block exit\n  keep = h.0\n"),
         true);
  // The input itself: behaves the same, but re-evaluates a + b where bcm
  // does not.
  Expect("unoptimized input is caught (lcm = bcm evals)", Input, true);
  Expect("unparsable output is caught", Good.substr(0, Good.size() / 2) +
                                             "\nblock\n", true);
  return Missed;
}

} // namespace lcmbench
