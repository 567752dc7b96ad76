//===- interp/Interpreter.cpp ----------------------------------------------===//

#include "interp/Interpreter.h"

using namespace lcm;

InterpResult Interpreter::run(const Function &Fn,
                              const std::vector<int64_t> &InitialVars,
                              BranchOracle &Oracle, const Options &Opts) {
  InterpResult R;
  R.Vars.assign(Fn.numVars(), 0);
  for (size_t V = 0; V != InitialVars.size() && V != R.Vars.size(); ++V)
    R.Vars[V] = InitialVars[V];
  R.EvalsPerExpr.assign(Fn.exprs().size(), 0);
  R.VisitsPerBlock.assign(Fn.numBlocks(), 0);
  R.SuccTraversals.resize(Fn.numBlocks());
  for (const BasicBlock &B : Fn.blocks())
    R.SuccTraversals[B.id()].assign(B.succs().size(), 0);

  auto operandValue = [&R](Operand O) {
    return O.isConst() ? O.constVal() : R.Vars[O.var()];
  };

  uint64_t Decisions = 0;
  BlockId Cur = Fn.entry();
  while (true) {
    if (Cur < Opts.OriginalBlockCount) {
      if (R.OriginalBlocksExecuted == Opts.MaxOriginalBlockVisits)
        break; // Budget exhausted; stop at a comparison point.
      ++R.OriginalBlocksExecuted;
    }
    ++R.BlocksExecuted;
    ++R.VisitsPerBlock[Cur];

    const BasicBlock &B = Fn.block(Cur);
    for (const Instr &I : B.instrs()) {
      ++R.InstrsExecuted;
      if (I.isOperation()) {
        const Expr &E = Fn.exprs().expr(I.exprId());
        int64_t A = operandValue(E.Lhs);
        int64_t C = E.isBinary() ? operandValue(E.Rhs) : 0;
        if (E.Op == Opcode::Load) {
          // Loads read the memory map, not evalOpcode: Lhs is the address
          // and Rhs is the `@mem` epoch (data dependence only).
          auto It = R.Mem.find(A);
          R.Vars[I.dest()] = It == R.Mem.end() ? memDefault(A) : It->second;
        } else {
          R.Vars[I.dest()] = evalOpcode(E.Op, A, C);
        }
        ++R.TotalEvals;
        ++R.EvalsPerExpr[I.exprId()];
      } else if (I.isStore()) {
        R.Mem[operandValue(I.storeAddr())] = operandValue(I.storeValue());
        // `@mem` holds a store epoch: every write advances it, so later
        // loads (which read `@mem`) see a changed operand.
        R.Vars[I.dest()] += 1;
      } else {
        R.Vars[I.dest()] = operandValue(I.src());
      }
    }

    const auto &Succs = B.succs();
    if (Succs.empty()) {
      R.ReachedExit = true;
      break;
    }
    size_t Choice = 0;
    if (Succs.size() == 1) {
      Choice = 0;
    } else if (B.hasConditionalBranch()) {
      Choice = R.Vars[*B.condVar()] != 0 ? 0 : 1;
    } else {
      Choice = Oracle.decide(Cur, Succs.size(), Decisions++);
      assert(Choice < Succs.size() && "oracle returned bad successor");
    }
    ++R.SuccTraversals[Cur][Choice];
    Cur = Succs[Choice];
  }
  return R;
}

bool lcm::sameObservableBehaviour(const InterpResult &A,
                                  const InterpResult &B,
                                  size_t NumOriginalVars) {
  if (A.ReachedExit != B.ReachedExit)
    return false;
  if (A.OriginalBlocksExecuted != B.OriginalBlocksExecuted)
    return false;
  for (size_t V = 0; V != NumOriginalVars; ++V) {
    if (A.Vars.size() <= V || B.Vars.size() <= V)
      return false;
    if (A.Vars[V] != B.Vars[V])
      return false;
  }
  return !firstMemoryDifference(A, B);
}

std::optional<int64_t> lcm::firstMemoryDifference(const InterpResult &A,
                                                  const InterpResult &B) {
  // Memory must agree address-by-address; an address only one run wrote
  // must have been written with the value the other run reads by default.
  for (const auto &[Addr, Val] : A.Mem) {
    auto It = B.Mem.find(Addr);
    if (Val != (It == B.Mem.end() ? memDefault(Addr) : It->second))
      return Addr;
  }
  for (const auto &[Addr, Val] : B.Mem)
    if (!A.Mem.count(Addr) && Val != memDefault(Addr))
      return Addr;
  return std::nullopt;
}
