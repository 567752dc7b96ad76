//===- ir/Verifier.cpp -----------------------------------------------------===//

#include "ir/Verifier.h"

#include <algorithm>
#include <cstdint>

using namespace lcm;

namespace {

/// Per-thread scratch, kept at its largest size so that verifying a
/// function no larger than an earlier one allocates nothing (errors aside).
struct VerifyScratch {
  /// Successor-side edges bucketed by target block (a counting sort):
  /// after the sort, EdgeEnd[S] ends S's bucket in EdgeFrom and the
  /// previous block's end begins it.
  std::vector<uint32_t> EdgeEnd;
  std::vector<BlockId> EdgeFrom;
  /// Per source block, edges into the block being checked; all zero
  /// between checks.
  std::vector<uint32_t> Count;
  /// Reachability marks and DFS stack.
  std::vector<uint8_t> Seen;
  std::vector<BlockId> Stack;
};

/// Marks in \p S.Seen everything reachable from \p Start following
/// \p NextOf.
template <typename SuccFn>
void reach(const Function &Fn, BlockId Start, VerifyScratch &S,
           SuccFn NextOf) {
  S.Seen.assign(Fn.numBlocks(), 0);
  S.Stack.clear();
  S.Stack.push_back(Start);
  S.Seen[Start] = 1;
  while (!S.Stack.empty()) {
    BlockId B = S.Stack.back();
    S.Stack.pop_back();
    for (BlockId N : NextOf(B)) {
      if (!S.Seen[N]) {
        S.Seen[N] = 1;
        S.Stack.push_back(N);
      }
    }
  }
}

} // namespace

std::vector<std::string> lcm::verifyFunction(const Function &Fn) {
  std::vector<std::string> Errors;
  auto fail = [&Errors](std::string Msg) { Errors.push_back(std::move(Msg)); };

  if (Fn.numBlocks() == 0) {
    fail("function has no blocks");
    return Errors;
  }
  if (Fn.entry() >= Fn.numBlocks()) {
    fail("entry block id out of range");
    return Errors;
  }
  if (!Fn.block(Fn.entry()).preds().empty())
    fail("entry block has predecessors");

  thread_local VerifyScratch S;
  const size_t NumBlocks = Fn.numBlocks();

  // Unique exit.
  size_t NumExits = 0;
  BlockId Exit = InvalidBlock;
  for (const BasicBlock &B : Fn.blocks())
    if (B.succs().empty()) {
      ++NumExits;
      Exit = B.id();
    }
  if (NumExits != 1)
    fail("expected exactly one exit block, found " +
         std::to_string(NumExits));

  // Edge symmetry: succ multiset of edges must equal pred multiset.  The
  // successor lists are bucketed by target in O(blocks + edges); then each
  // block's pred list is compared with its bucket through Count.
  S.EdgeEnd.assign(NumBlocks, 0);
  for (const BasicBlock &B : Fn.blocks()) {
    for (BlockId Succ : B.succs()) {
      if (Succ >= NumBlocks) {
        fail("block " + B.label() + " has out-of-range successor");
        continue;
      }
      ++S.EdgeEnd[Succ];
    }
  }
  uint32_t NumEdges = 0;
  for (uint32_t &End : S.EdgeEnd) {
    const uint32_t Size = End;
    End = NumEdges; // Begins the bucket; the fill below moves it to its end.
    NumEdges += Size;
  }
  S.EdgeFrom.resize(NumEdges);
  for (const BasicBlock &B : Fn.blocks())
    for (BlockId Succ : B.succs())
      if (Succ < NumBlocks)
        S.EdgeFrom[S.EdgeEnd[Succ]++] = B.id();
  if (S.Count.size() < NumBlocks)
    S.Count.resize(NumBlocks, 0);
  std::vector<std::pair<BlockId, BlockId>> Missing;
  uint32_t Begin = 0;
  for (const BasicBlock &B : Fn.blocks()) {
    const uint32_t End = S.EdgeEnd[B.id()];
    for (uint32_t E = Begin; E != End; ++E)
      ++S.Count[S.EdgeFrom[E]];
    for (BlockId P : B.preds()) {
      if (P >= NumBlocks) {
        fail("block " + B.label() + " has out-of-range predecessor");
        continue;
      }
      if (S.Count[P] == 0)
        fail("pred list of " + B.label() + " names " + Fn.block(P).label() +
             " more often than the successor lists do");
      else
        --S.Count[P];
    }
    // Whatever the pred list left uncounted is missing from it; zeroing
    // here restores Count for the next block.
    for (uint32_t E = Begin; E != End; ++E) {
      const BlockId P = S.EdgeFrom[E];
      if (S.Count[P] != 0) {
        Missing.push_back({P, B.id()});
        S.Count[P] = 0;
      }
    }
    Begin = End;
  }
  std::sort(Missing.begin(), Missing.end());
  for (const auto &[From, To] : Missing)
    fail("edge " + Fn.block(From).label() + " -> " + Fn.block(To).label() +
         " missing from pred list");

  // Branch condition sanity.
  for (const BasicBlock &B : Fn.blocks()) {
    if (B.condVar() && *B.condVar() >= Fn.numVars())
      fail("block " + B.label() + " branches on an out-of-range variable");
    if (B.condVar() && B.succs().size() != 2)
      fail("block " + B.label() +
           " has a condition variable but not exactly two successors");
  }

  // Instruction sanity.  The `@mem` pseudo-variable may appear only where
  // the memory model puts it: as every load's Rhs and every store's dest.
  const VarId MemVar = Fn.findMemoryVar();
  for (const BasicBlock &B : Fn.blocks()) {
    if (B.condVar() && MemVar != InvalidVar && *B.condVar() == MemVar)
      fail("block " + B.label() + " branches on '@mem'");
    for (const Instr &I : B.instrs()) {
      if (I.dest() >= Fn.numVars()) {
        fail("block " + B.label() + ": destination variable out of range");
        continue;
      }
      if (I.isOperation()) {
        if (I.exprId() >= Fn.exprs().size()) {
          fail("block " + B.label() + ": expression id out of range");
          continue;
        }
        const Expr &E = Fn.exprs().expr(I.exprId());
        if (E.Lhs.isVar() && E.Lhs.var() >= Fn.numVars())
          fail("block " + B.label() + ": expression operand out of range");
        if (E.isBinary() && E.Rhs.isVar() && E.Rhs.var() >= Fn.numVars())
          fail("block " + B.label() + ": expression operand out of range");
        if (E.Op == Opcode::Load &&
            (!E.Rhs.isVar() || E.Rhs.var() != MemVar))
          fail("block " + B.label() + ": load does not read '@mem'");
        if (MemVar != InvalidVar) {
          if (I.dest() == MemVar)
            fail("block " + B.label() + ": operation assigns '@mem'");
          if (E.Lhs.isVar() && E.Lhs.var() == MemVar)
            fail("block " + B.label() +
                 ": expression reads '@mem' as a value");
          if (E.Op != Opcode::Load && E.isBinary() && E.Rhs.isVar() &&
              E.Rhs.var() == MemVar)
            fail("block " + B.label() +
                 ": expression reads '@mem' as a value");
        }
      } else if (I.isStore()) {
        if (MemVar == InvalidVar || I.dest() != MemVar)
          fail("block " + B.label() + ": store does not write '@mem'");
        for (Operand O : {I.storeAddr(), I.storeValue()}) {
          if (O.isVar() && O.var() >= Fn.numVars())
            fail("block " + B.label() + ": store operand out of range");
          else if (O.isVar() && MemVar != InvalidVar && O.var() == MemVar)
            fail("block " + B.label() + ": store operand reads '@mem'");
        }
      } else {
        if (I.src().isVar() && I.src().var() >= Fn.numVars())
          fail("block " + B.label() + ": copy source out of range");
        else if (MemVar != InvalidVar &&
                 (I.dest() == MemVar ||
                  (I.src().isVar() && I.src().var() == MemVar)))
          fail("block " + B.label() + ": copy touches '@mem'");
      }
    }
  }

  // Reachability: every block reachable from entry, exit reachable from all.
  reach(Fn, Fn.entry(), S, [&Fn](BlockId B) -> const std::vector<BlockId> & {
    return Fn.block(B).succs();
  });
  for (const BasicBlock &B : Fn.blocks())
    if (!S.Seen[B.id()])
      fail("block " + B.label() + " unreachable from entry");

  if (NumExits == 1) {
    reach(Fn, Exit, S, [&Fn](BlockId B) -> const std::vector<BlockId> & {
      return Fn.block(B).preds();
    });
    for (const BasicBlock &B : Fn.blocks())
      if (!S.Seen[B.id()])
        fail("block " + B.label() + " cannot reach the exit");
  }

  return Errors;
}
