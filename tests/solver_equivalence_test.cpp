//===- tests/solver_equivalence_test.cpp - Three solvers, one fixpoint ----===//
//
// Randomized equivalence sweep: the round-robin, FIFO-worklist, and
// sparse-arena solvers must produce bit-identical fixpoints on every
// direction/meet combination over both generator families, and the
// parallel corpus driver must match the serial one function-by-function,
// keep its helper threads across batches, and stay correct when several
// callers share those helpers.
//
//===----------------------------------------------------------------------===//

#include "analysis/LocalProperties.h"
#include "dataflow/Dataflow.h"
#include "driver/CorpusDriver.h"
#include "ir/Printer.h"
#include "workload/Corpus.h"
#include "workload/RandomCfg.h"
#include "workload/StructuredGen.h"

#include <gtest/gtest.h>

#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <unistd.h>

using namespace lcm;

namespace {

std::vector<GenKill> availabilityTransfers(const Function &Fn,
                                           const LocalProperties &LP) {
  std::vector<GenKill> T(Fn.numBlocks());
  for (BlockId B = 0; B != Fn.numBlocks(); ++B) {
    T[B].Gen = LP.comp(B);
    T[B].Kill = complement(LP.transp(B));
  }
  return T;
}

std::vector<GenKill> anticipabilityTransfers(const Function &Fn,
                                             const LocalProperties &LP) {
  std::vector<GenKill> T(Fn.numBlocks());
  for (BlockId B = 0; B != Fn.numBlocks(); ++B) {
    T[B].Gen = LP.antloc(B);
    T[B].Kill = complement(LP.transp(B));
  }
  return T;
}

class SolverEquivalence : public testing::TestWithParam<unsigned> {};

/// Both generator families, sizes ramping with the seed so the sweep
/// crosses the 64-bit word boundary in both blocks and universe.
Function makeProgram(unsigned Seed) {
  if (Seed % 2 == 0) {
    StructuredGenOptions Opts;
    Opts.Seed = Seed + 1;
    Opts.MaxDepth = 2 + Seed % 4;
    Opts.ControlPercent = 50;
    return generateStructured(Opts);
  }
  RandomCfgOptions Opts;
  Opts.Seed = Seed + 1;
  Opts.NumBlocks = 6 + (Seed * 7) % 90;
  return generateRandomCfg(Opts);
}

TEST_P(SolverEquivalence, AllThreeSolversBitIdentical) {
  Function Fn = makeProgram(GetParam());
  LocalProperties LP(Fn);

  struct Case {
    Direction Dir;
    Meet M;
    std::vector<GenKill> Transfers;
    BitVector Boundary;
  };
  const BitVector Empty(LP.numExprs());
  const BitVector Full(LP.numExprs(), true);
  std::vector<Case> Cases;
  Cases.push_back({Direction::Forward, Meet::Intersection,
                   availabilityTransfers(Fn, LP), Empty});
  Cases.push_back({Direction::Forward, Meet::Union,
                   availabilityTransfers(Fn, LP), Full});
  Cases.push_back({Direction::Backward, Meet::Intersection,
                   anticipabilityTransfers(Fn, LP), Empty});
  Cases.push_back({Direction::Backward, Meet::Union,
                   anticipabilityTransfers(Fn, LP), Full});

  for (const Case &C : Cases) {
    DataflowResult RR =
        solveGenKill(Fn, C.Dir, C.M, C.Transfers, C.Boundary);
    DataflowResult WL =
        solveGenKillWorklist(Fn, C.Dir, C.M, C.Transfers, C.Boundary);
    DataflowResult SP =
        solveGenKillSparse(Fn, C.Dir, C.M, C.Transfers, C.Boundary);
    for (BlockId B = 0; B != Fn.numBlocks(); ++B) {
      EXPECT_EQ(RR.In[B], WL.In[B]) << "worklist In, block " << B;
      EXPECT_EQ(RR.Out[B], WL.Out[B]) << "worklist Out, block " << B;
      EXPECT_EQ(RR.In[B], SP.In[B]) << "sparse In, block " << B;
      EXPECT_EQ(RR.Out[B], SP.Out[B]) << "sparse Out, block " << B;
    }
    // The sparse solver is change-driven: it must never visit more blocks
    // than round-robin touches.
    EXPECT_LE(SP.Stats.NodeVisits, RR.Stats.NodeVisits);
    EXPECT_EQ(SP.Stats.Passes, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Corpora, SolverEquivalence,
                         testing::Range(0u, 32u));

TEST(SolverEquivalence, DispatcherSelectsEachStrategy) {
  Function Fn = makeProgram(3);
  LocalProperties LP(Fn);
  auto Transfers = availabilityTransfers(Fn, LP);
  const BitVector Empty(LP.numExprs());
  for (SolverStrategy S : {SolverStrategy::RoundRobin,
                           SolverStrategy::Worklist,
                           SolverStrategy::Sparse}) {
    DataflowResult R = solveGenKill(Fn, Direction::Forward,
                                    Meet::Intersection, Transfers, Empty, S);
    DataflowResult Ref = solveGenKill(Fn, Direction::Forward,
                                      Meet::Intersection, Transfers, Empty);
    for (BlockId B = 0; B != Fn.numBlocks(); ++B) {
      EXPECT_EQ(R.In[B], Ref.In[B]) << solverStrategyName(S);
      EXPECT_EQ(R.Out[B], Ref.Out[B]) << solverStrategyName(S);
    }
  }
}

/// The parallel corpus driver must produce, function by function, exactly
/// the programs and change counts the serial driver produces.
TEST(CorpusDriver, ParallelMatchesSerialFunctionByFunction) {
  std::vector<Function> Serial, Parallel;
  for (const CorpusEntry &E : makeGeneratedCorpus(12, 12)) {
    Serial.push_back(E.Make());
    Parallel.push_back(E.Make());
  }

  PipelineParse P = parsePipeline("lcse,lcm,cleanup");
  ASSERT_TRUE(P.Ok) << P.Error;

  CorpusDriverOptions SerialOpts;
  SerialOpts.Threads = 1;
  CorpusDriverResult SR = optimizeCorpus(Serial, P.P, SerialOpts);

  CorpusDriverOptions ParallelOpts;
  ParallelOpts.Threads = 4;
  CorpusDriverResult PR = optimizeCorpus(Parallel, P.P, ParallelOpts);

  ASSERT_EQ(SR.PerFunction.size(), PR.PerFunction.size());
  EXPECT_EQ(SR.NumFailed, 0u);
  EXPECT_EQ(PR.NumFailed, 0u);
  EXPECT_GT(SR.TotalChanges, 0u);
  EXPECT_EQ(SR.TotalChanges, PR.TotalChanges);
  for (size_t I = 0; I != Serial.size(); ++I) {
    EXPECT_EQ(SR.PerFunction[I].Changes, PR.PerFunction[I].Changes)
        << "function " << I;
    EXPECT_EQ(printFunction(Serial[I]), printFunction(Parallel[I]))
        << "function " << I;
  }
}

/// Helpers outlive their batch: ten 2-thread batches run on the caller and
/// one pool helper, not on a fresh pair of threads each.
TEST(CorpusDriver, HelpersPersistAcrossBatches) {
  std::mutex Mu;
  std::set<pid_t> Tids;
  PipelineParse P = parsePipeline("lcse,lcm");
  ASSERT_TRUE(P.Ok);
  P.P.add("record-tid", [&](Function &) {
    std::lock_guard<std::mutex> Lock(Mu);
    Tids.insert(::gettid());
    return uint64_t(0);
  });
  for (int Batch = 0; Batch != 10; ++Batch) {
    std::vector<Function> Fns;
    for (const CorpusEntry &E : makeGeneratedCorpus(4, 4))
      Fns.push_back(E.Make());
    CorpusDriverResult R = optimizeCorpus(Fns, P.P, {.Threads = 2});
    ASSERT_EQ(R.ThreadsUsed, 2u);
    ASSERT_EQ(R.NumFailed, 0u);
  }
  EXPECT_GE(Tids.size(), 1u);
  EXPECT_LE(Tids.size(), 2u);
}

/// Two callers share the helper pool at once; each must still get the
/// serial run's programs and change counts, function for function.
TEST(CorpusDriver, ConcurrentCallersMatchSerial) {
  std::vector<Function> Pristine;
  for (const CorpusEntry &E : makeGeneratedCorpus(6, 6))
    Pristine.push_back(E.Make());
  PipelineParse P = parsePipeline("lcse,lcm,cleanup");
  ASSERT_TRUE(P.Ok) << P.Error;

  std::vector<Function> Serial = Pristine;
  CorpusDriverResult SR = optimizeCorpus(Serial, P.P, {.Threads = 1});
  ASSERT_EQ(SR.NumFailed, 0u);
  std::vector<std::string> Expected;
  for (const Function &Fn : Serial)
    Expected.push_back(printFunction(Fn));

  auto Caller = [&](unsigned Threads, unsigned &Mismatches) {
    for (int Batch = 0; Batch != 5; ++Batch) {
      std::vector<Function> Fns = Pristine;
      CorpusDriverResult R = optimizeCorpus(Fns, P.P, {.Threads = Threads});
      Mismatches += R.NumFailed != 0 || R.ThreadsUsed != Threads;
      for (size_t I = 0; I != Fns.size(); ++I)
        Mismatches += R.PerFunction[I].Changes != SR.PerFunction[I].Changes ||
                      printFunction(Fns[I]) != Expected[I];
    }
  };
  unsigned MismatchesA = 0, MismatchesB = 0;
  std::thread A(Caller, 2u, std::ref(MismatchesA));
  std::thread B(Caller, 3u, std::ref(MismatchesB));
  A.join();
  B.join();
  EXPECT_EQ(MismatchesA, 0u);
  EXPECT_EQ(MismatchesB, 0u);
}

/// A pass that throws on a helper reaches the caller, and the pool still
/// serves the next batch.
TEST(CorpusDriver, PassExceptionReachesCallerAndPoolSurvives) {
  PipelineParse P = parsePipeline("lcse");
  ASSERT_TRUE(P.Ok);
  P.P.add("throw", [](Function &) -> uint64_t {
    throw std::runtime_error("pass failed");
  });
  std::vector<Function> Fns;
  for (const CorpusEntry &E : makeGeneratedCorpus(4, 4))
    Fns.push_back(E.Make());
  EXPECT_THROW(optimizeCorpus(Fns, P.P, {.Threads = 2}), std::runtime_error);

  PipelineParse Ok = parsePipeline("lcse,lcm");
  ASSERT_TRUE(Ok.Ok);
  CorpusDriverResult R = optimizeCorpus(Fns, Ok.P, {.Threads = 2});
  EXPECT_EQ(R.NumFailed, 0u);
  EXPECT_EQ(R.ThreadsUsed, 2u);
}

TEST(CorpusDriver, ZeroThreadsMeansHardwareConcurrency) {
  std::vector<Function> Fns;
  for (const CorpusEntry &E : makeGeneratedCorpus(2, 2))
    Fns.push_back(E.Make());
  PipelineParse P = parsePipeline("lcse,lcm");
  ASSERT_TRUE(P.Ok);
  CorpusDriverOptions Opts;
  Opts.Threads = 0;
  CorpusDriverResult R = optimizeCorpus(Fns, P.P, Opts);
  EXPECT_GE(R.ThreadsUsed, 1u);
  EXPECT_EQ(R.PerFunction.size(), Fns.size());
  EXPECT_EQ(R.NumFailed, 0u);
}

} // namespace
