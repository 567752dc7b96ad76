//===- tests/verifier_test.cpp - Structural invariant checks -------------===//

#include "ir/IRBuilder.h"
#include "ir/Verifier.h"
#include "workload/PaperExamples.h"

#include <gtest/gtest.h>

using namespace lcm;

namespace {

bool anyErrorContains(const std::vector<std::string> &Errors,
                      const std::string &Fragment) {
  for (const std::string &E : Errors)
    if (E.find(Fragment) != std::string::npos)
      return true;
  return false;
}

TEST(Verifier, AcceptsPaperExamples) {
  EXPECT_TRUE(isValidFunction(makeMotivatingExample()));
  EXPECT_TRUE(isValidFunction(makeCriticalEdgeExample()));
  EXPECT_TRUE(isValidFunction(makeDiamondExample()));
  EXPECT_TRUE(isValidFunction(makeLoopNestExample()));
}

TEST(Verifier, RejectsEmptyFunction) {
  Function Fn("f");
  EXPECT_TRUE(anyErrorContains(verifyFunction(Fn), "no blocks"));
}

TEST(Verifier, RejectsMultipleExits) {
  Function Fn("f");
  BlockId B0 = Fn.addBlock();
  Fn.addBlock(); // Unconnected second block: also a "no successor" block.
  Fn.addBlock();
  Fn.addEdge(B0, 1);
  auto Errors = verifyFunction(Fn);
  EXPECT_TRUE(anyErrorContains(Errors, "exactly one exit"));
}

TEST(Verifier, RejectsEntryWithPreds) {
  Function Fn("f");
  BlockId B0 = Fn.addBlock();
  BlockId B1 = Fn.addBlock();
  Fn.addEdge(B0, B1);
  Fn.addEdge(B1, B0); // Back into the entry.
  auto Errors = verifyFunction(Fn);
  EXPECT_TRUE(anyErrorContains(Errors, "entry block has predecessors"));
}

TEST(Verifier, RejectsUnreachableBlock) {
  Function Fn("f");
  BlockId B0 = Fn.addBlock();
  BlockId B1 = Fn.addBlock();
  BlockId B2 = Fn.addBlock(); // Unreachable island feeding the exit.
  Fn.addEdge(B0, B1);
  Fn.addEdge(B2, B1);
  auto Errors = verifyFunction(Fn);
  EXPECT_TRUE(anyErrorContains(Errors, "unreachable from entry"));
}

TEST(Verifier, RejectsBlockThatCannotReachExit) {
  Function Fn("f");
  BlockId B0 = Fn.addBlock();
  BlockId B1 = Fn.addBlock();
  BlockId B2 = Fn.addBlock();
  Fn.addEdge(B0, B1);
  Fn.addEdge(B0, B2);
  Fn.addEdge(B2, B2); // Infinite self-loop, never reaches exit... but then
                      // B2 has a successor, so B1 is the unique exit.
  auto Errors = verifyFunction(Fn);
  EXPECT_TRUE(anyErrorContains(Errors, "cannot reach the exit"));
}

TEST(Verifier, RejectsCondVarOnNonTwoWayBranch) {
  Function Fn("f");
  IRBuilder B(Fn);
  BlockId B0 = B.startBlock();
  BlockId B1 = B.startBlock();
  Fn.addEdge(B0, B1);
  Fn.block(B0).setCondVar(Fn.getOrAddVar("c"));
  auto Errors = verifyFunction(Fn);
  EXPECT_TRUE(anyErrorContains(Errors, "not exactly two successors"));
}

TEST(Verifier, RejectsDanglingVariableIds) {
  Function Fn("f");
  BlockId B0 = Fn.addBlock();
  BlockId B1 = Fn.addBlock();
  Fn.addEdge(B0, B1);
  // Handcraft an instruction with an out-of-range destination.
  Fn.block(B0).instrs().push_back(
      Instr::makeCopy(VarId(99), Operand::makeConst(1)));
  auto Errors = verifyFunction(Fn);
  EXPECT_TRUE(anyErrorContains(Errors, "destination variable out of range"));
}

TEST(Verifier, RejectsOutOfRangeCopySource) {
  Function Fn("f");
  BlockId B0 = Fn.addBlock();
  BlockId B1 = Fn.addBlock();
  Fn.addEdge(B0, B1);
  VarId X = Fn.getOrAddVar("x");
  Fn.block(B0).instrs().push_back(
      Instr::makeCopy(X, Operand::makeVar(VarId(42))));
  auto Errors = verifyFunction(Fn);
  EXPECT_TRUE(anyErrorContains(Errors, "copy source out of range"));
}

TEST(Verifier, AcceptsParallelEdges) {
  Function Fn("f");
  BlockId B0 = Fn.addBlock();
  BlockId B1 = Fn.addBlock();
  Fn.addEdge(B0, B1);
  Fn.addEdge(B0, B1);
  EXPECT_TRUE(isValidFunction(Fn));
}

TEST(Verifier, AcceptsAWideJoinRightAfterASmallerFunction) {
  // The edge check reuses per-block counters across calls; verifying a
  // smaller function first checks that they come back zeroed.
  EXPECT_TRUE(isValidFunction(makeDiamondExample()));

  // entry fans out to 20 arms; every third arm reaches the join twice, so
  // the join has 27 predecessors, 7 of them parallel edges.
  Function Fn("wide");
  BlockId Entry = Fn.addBlock("entry");
  std::vector<BlockId> Arms;
  for (int I = 0; I != 20; ++I)
    Arms.push_back(Fn.addBlock("arm" + std::to_string(I)));
  BlockId Join = Fn.addBlock("join");
  BlockId Exit = Fn.addBlock("exit");
  for (int I = 0; I != 20; ++I) {
    Fn.addEdge(Entry, Arms[I]);
    Fn.addEdge(Arms[I], Join);
    if (I % 3 == 0)
      Fn.addEdge(Arms[I], Join);
  }
  Fn.addEdge(Join, Exit);
  ASSERT_EQ(Fn.block(Join).preds().size(), 27u);
  EXPECT_TRUE(verifyFunction(Fn).empty());

  // And back down to a smaller function, valid and invalid.
  EXPECT_TRUE(isValidFunction(makeDiamondExample()));
  Function Broken("f");
  BlockId B0 = Broken.addBlock();
  BlockId B1 = Broken.addBlock();
  Broken.addEdge(B0, B1);
  Broken.addEdge(B1, B0);
  EXPECT_TRUE(anyErrorContains(verifyFunction(Broken),
                               "entry block has predecessors"));
}

} // namespace
