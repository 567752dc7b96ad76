//===- tests/alloc_regression_test.cpp - Steady-state allocation gate ----===//
//
// Part of the lcm project: a reproduction of "Lazy Code Motion"
// (Knoop, Ruething, Steffen; PLDI 1992).
//
// Pins the hot-path contract behind docs/HOTPATH.md: once every reusable
// buffer has reached its high-water capacity, a full request-shaped
// iteration — parse, local CSE, lazy code motion, print — performs ZERO
// heap allocations, and so does the batch pipeline's iteration, which
// verifies after every pass and runs the copy-propagation/DCE cleanup.
// The binary links lcm_alloc_hook, so the counts are exact process-wide
// `operator new` totals, not estimates.  Under sanitizer builds the hook
// is inert and the tests skip.
//
// The batch contract spans optimizeCorpus calls: a warm 2-thread batch
// allocates no more than the same batch on one thread, because the helper
// thread, and its per-thread storage, outlive each batch.
//
// A nonzero count here means someone re-introduced a per-request
// allocation (a fresh vector, a by-value return, a string temporary) into
// the serving path; find it before relaxing the expectation.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <barrier>

#include "baseline/Cleanup.h"
#include "cache/ContentHash.h"
#include "core/Lcm.h"
#include "core/LocalCse.h"
#include "driver/CorpusDriver.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "support/AllocHook.h"
#include "workload/Corpus.h"
#include "workload/RandomCfg.h"

using namespace lcm;

namespace {

/// The corpus texts every loop below sweeps: each default-corpus program
/// in canonical form.
std::vector<std::string> corpusTexts() {
  std::vector<std::string> Texts;
  for (const CorpusEntry &Entry : makeDefaultCorpus()) {
    Function Fn = Entry.Make();
    Texts.push_back(printFunction(Fn));
  }
  return Texts;
}

constexpr unsigned WarmupIters = 32;
constexpr unsigned MeasuredIters = 8;

/// Runs \p Iteration over every corpus text WarmupIters times, then
/// returns the exact allocation count of MeasuredIters more sweeps.
template <typename Fn>
uint64_t steadyStateAllocations(const std::vector<std::string> &Texts,
                                Fn &&Iteration) {
  for (unsigned I = 0; I != WarmupIters; ++I)
    for (const std::string &Text : Texts)
      Iteration(Text);
  const uint64_t Before = alloccount::allocations();
  for (unsigned I = 0; I != MeasuredIters; ++I)
    for (const std::string &Text : Texts)
      Iteration(Text);
  return alloccount::allocations() - Before;
}

} // namespace

TEST(AllocRegressionTest, HookIsLinked) {
  if (!alloccount::active())
    GTEST_SKIP() << "alloc hook inert under sanitizers";
  // Sanity: the hook actually observes this binary's allocations.
  const uint64_t Before = alloccount::allocations();
  std::vector<int> *V = new std::vector<int>(1000);
  delete V;
  EXPECT_GT(alloccount::allocations(), Before);
}

TEST(AllocRegressionTest, ParseIsAllocationFreeWhenWarm) {
  if (!alloccount::active())
    GTEST_SKIP() << "alloc hook inert under sanitizers";
  const std::vector<std::string> Texts = corpusTexts();
  const IRLimits Limits;
  ParserScratch Scratch;
  ParseResult Ir;
  const uint64_t Allocs =
      steadyStateAllocations(Texts, [&](const std::string &Text) {
        parseFunctionInto(Text, Limits, Scratch, Ir);
        ASSERT_TRUE(Ir.Ok) << Ir.Error;
      });
  EXPECT_EQ(Allocs, 0u);
}

TEST(AllocRegressionTest, PrintIsAllocationFreeWhenWarm) {
  if (!alloccount::active())
    GTEST_SKIP() << "alloc hook inert under sanitizers";
  const std::vector<std::string> Texts = corpusTexts();
  const IRLimits Limits;
  ParserScratch Scratch;
  ParseResult Ir;
  std::string Out;
  const uint64_t Allocs =
      steadyStateAllocations(Texts, [&](const std::string &Text) {
        parseFunctionInto(Text, Limits, Scratch, Ir);
        Out.clear();
        printFunction(Ir.Fn, Out);
        ASSERT_EQ(Out, Text);
      });
  EXPECT_EQ(Allocs, 0u);
}

TEST(AllocRegressionTest, StreamingCacheKeyIsAllocationFreeWhenWarm) {
  if (!alloccount::active())
    GTEST_SKIP() << "alloc hook inert under sanitizers";
  const std::vector<std::string> Texts = corpusTexts();
  const IRLimits Limits;
  cache::PipelineFingerprint FP;
  FP.Pipeline = "lcse,lcm,cleanup";
  ParserScratch Scratch;
  ParseResult Ir;
  uint64_t Fold = 0;
  const uint64_t Allocs =
      steadyStateAllocations(Texts, [&](const std::string &Text) {
        parseFunctionInto(Text, Limits, Scratch, Ir);
        Fold += cache::requestKey(Ir.Fn, FP).Lo;
      });
  EXPECT_EQ(Allocs, 0u);
  EXPECT_NE(Fold, 0u); // The digests are real, not optimized away.
}

TEST(AllocRegressionTest, FullRequestLoopIsAllocationFreeWhenWarm) {
  if (!alloccount::active())
    GTEST_SKIP() << "alloc hook inert under sanitizers";
  const std::vector<std::string> Texts = corpusTexts();
  const IRLimits Limits;
  ParserScratch Scratch;
  ParseResult Ir;
  PreRunResult R;
  std::string Out;
  const uint64_t Allocs =
      steadyStateAllocations(Texts, [&](const std::string &Text) {
        parseFunctionInto(Text, Limits, Scratch, Ir);
        ASSERT_TRUE(Ir.Ok) << Ir.Error;
        runLocalCse(Ir.Fn);
        runPreInto(Ir.Fn, PreStrategy::Lazy, SolverStrategy::Sparse, R);
        Out.clear();
        printFunction(Ir.Fn, Out);
        ASSERT_FALSE(Out.empty());
      });
  EXPECT_EQ(Allocs, 0u);
}

TEST(AllocRegressionTest, VerifiedCleanupLoopIsAllocationFreeWhenWarm) {
  if (!alloccount::active())
    GTEST_SKIP() << "alloc hook inert under sanitizers";
  const std::vector<std::string> Texts = corpusTexts();
  const IRLimits Limits;
  ParserScratch Scratch;
  ParseResult Ir;
  PreRunResult R;
  std::string Out;
  const uint64_t Allocs =
      steadyStateAllocations(Texts, [&](const std::string &Text) {
        parseFunctionInto(Text, Limits, Scratch, Ir);
        ASSERT_TRUE(Ir.Ok) << Ir.Error;
        runLocalCse(Ir.Fn);
        ASSERT_TRUE(verifyFunction(Ir.Fn).empty());
        runPreInto(Ir.Fn, PreStrategy::Lazy, SolverStrategy::Sparse, R);
        ASSERT_TRUE(verifyFunction(Ir.Fn).empty());
        runCleanup(Ir.Fn, CleanupOptions{});
        ASSERT_TRUE(verifyFunction(Ir.Fn).empty());
        Out.clear();
        printFunction(Ir.Fn, Out);
        ASSERT_FALSE(Out.empty());
      });
  EXPECT_EQ(Allocs, 0u);
}

TEST(AllocRegressionTest, WarmHelperBatchAllocatesNoMoreThanOneThread) {
  if (!alloccount::active())
    GTEST_SKIP() << "alloc hook inert under sanitizers";
  // Allocations a 2-thread batch may make beyond the 1-thread batch: the
  // pool posts a batch without allocating, and a warm helper's claim loop
  // allocates only what the pipeline itself does.
  constexpr uint64_t PoolAllocations = 0;

  RandomCfgOptions Opts;
  Opts.Seed = 7;
  Opts.NumBlocks = 128;
  const Function Proto = generateRandomCfg(Opts);
  PipelineParse P = parsePipeline("lcse,lcm,cleanup");
  ASSERT_TRUE(P.Ok) << P.Error;

  // Warm both threads without depending on the scheduler: the extra pass
  // holds each function at a two-party barrier, so the caller and the
  // helper take exactly one function each.
  std::barrier Meet(2);
  Pipeline Warm = P.P;
  Warm.add("meet", [&](Function &) {
    Meet.arrive_and_wait();
    return uint64_t(0);
  });
  std::vector<Function> Two(2, Proto);
  ASSERT_EQ(optimizeCorpus(Two, Warm, {.Threads = 2}).NumFailed, 0u);

  auto BatchAllocations = [&](unsigned Threads) {
    std::vector<Function> Fns(8, Proto);
    const uint64_t Before = alloccount::allocations();
    CorpusDriverResult R = optimizeCorpus(Fns, P.P, {.Threads = Threads});
    const uint64_t Allocs = alloccount::allocations() - Before;
    EXPECT_EQ(R.NumFailed, 0u);
    EXPECT_EQ(R.ThreadsUsed, Threads);
    return Allocs;
  };
  const uint64_t OneThread = BatchAllocations(1);
  for (int Repeat = 0; Repeat != 3; ++Repeat)
    EXPECT_LE(BatchAllocations(2), OneThread + PoolAllocations)
        << "repeat " << Repeat;
}
