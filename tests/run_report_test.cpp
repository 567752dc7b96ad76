//===- tests/run_report_test.cpp - metrics/RunReport.h tests -------------===//
//
// Part of the lcm project: a reproduction of "Lazy Code Motion"
// (Knoop, Ruething, Steffen; PLDI 1992).
//
//===----------------------------------------------------------------------===//
//
// collectRunReport must measure a real pipeline run (per-pass records,
// summed counters, before/after function metrics), and the emitted JSON
// document (schema "lcm-run-report-v1") must survive a full
// serialize -> parse -> fromJson round trip without losing a field.
//
//===----------------------------------------------------------------------===//

#include "metrics/RunReport.h"

#include "driver/CorpusDriver.h"
#include "ir/Verifier.h"
#include "support/Stats.h"
#include "workload/PaperExamples.h"

#include <gtest/gtest.h>

using namespace lcm;

namespace {

RunReport motivatingReport() {
  Function Fn = makeMotivatingExample();
  PipelineParse P = parsePipeline("lcse,lcm,cleanup");
  EXPECT_TRUE(P) << P.Error;
  return collectRunReport(P.P, Fn, "run_report_test", "lcse,lcm,cleanup");
}

TEST(RunReport, MeasuresThePipeline) {
  RunReport R = motivatingReport();
  EXPECT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Tool, "run_report_test");
  EXPECT_EQ(R.Pipeline, "lcse,lcm,cleanup");
  ASSERT_EQ(R.Passes.size(), 3u);
  EXPECT_EQ(R.Passes[0].Name, "lcse");
  EXPECT_EQ(R.Passes[1].Name, "lcm");
  EXPECT_GT(R.Passes[1].Changes, 0u) << "LCM must move a + b";
  EXPECT_GT(R.Passes[1].WordOps, 0u)
      << "the LCM solves must be charged to the lcm pass";
  EXPECT_GE(R.TotalSeconds, 0.0);
}

TEST(RunReport, AttributesStatsDeltasPerPass) {
  RunReport R = motivatingReport();
  ASSERT_EQ(R.Passes.size(), 3u);
  const PassRecord &Lcm = R.Passes[1];
  ASSERT_TRUE(Lcm.Counters.count("dataflow.solves"));
  EXPECT_GE(Lcm.Counters.at("dataflow.solves"), 2u)
      << "LCM solves at least availability and anticipability through the "
         "generic engine (later/isolation iterate in core/Lcm.cpp)";
  EXPECT_TRUE(Lcm.Counters.count("transform.replacements"));
  // The summed view must cover every per-pass counter.
  for (const PassRecord &P : R.Passes)
    for (const auto &[Key, Count] : P.Counters)
      EXPECT_GE(R.Counters.at(Key), Count) << Key;
}

TEST(RunReport, CapturesBeforeAndAfterFunctionMetrics) {
  RunReport R = motivatingReport();
  ASSERT_TRUE(R.HasFunction);
  EXPECT_FALSE(R.HasCorpus);
  EXPECT_GT(R.Before.Blocks, 0u);
  EXPECT_GT(R.Before.StaticOps, 0u);
  EXPECT_EQ(R.Before.NumTemps, 0u)
      << "no pipeline temporaries exist before the pipeline";
  EXPECT_GT(R.After.NumTemps, 0u) << "LCM introduces h-temporaries";
  EXPECT_GT(R.After.TempLiveSlots, 0u);
}

TEST(RunReport, JsonRoundTripsEveryField) {
  RunReport R = motivatingReport();
  json::ParseResult Parsed = json::parse(R.toJsonText());
  ASSERT_TRUE(Parsed.Ok) << Parsed.Error;
  EXPECT_EQ(Parsed.V.find("schema")->asString(), "lcm-run-report-v1");

  RunReport Back;
  ASSERT_TRUE(RunReport::fromJson(Parsed.V, Back));
  EXPECT_EQ(Back.Tool, R.Tool);
  EXPECT_EQ(Back.Pipeline, R.Pipeline);
  EXPECT_EQ(Back.Ok, R.Ok);
  EXPECT_EQ(Back.TotalSeconds, R.TotalSeconds);
  ASSERT_EQ(Back.Passes.size(), R.Passes.size());
  for (size_t I = 0; I != R.Passes.size(); ++I) {
    EXPECT_EQ(Back.Passes[I].Name, R.Passes[I].Name);
    EXPECT_EQ(Back.Passes[I].Seconds, R.Passes[I].Seconds);
    EXPECT_EQ(Back.Passes[I].Changes, R.Passes[I].Changes);
    EXPECT_EQ(Back.Passes[I].WordOps, R.Passes[I].WordOps);
    EXPECT_EQ(Back.Passes[I].Counters, R.Passes[I].Counters);
  }
  EXPECT_EQ(Back.Counters, R.Counters);
  ASSERT_TRUE(Back.HasFunction);
  EXPECT_EQ(Back.Before.StaticOps, R.Before.StaticOps);
  EXPECT_EQ(Back.Before.WeightedStaticOps, R.Before.WeightedStaticOps);
  EXPECT_EQ(Back.After.TempLiveSlots, R.After.TempLiveSlots);
  EXPECT_EQ(Back.After.TempMaxPressure, R.After.TempMaxPressure);
  EXPECT_EQ(Back.After.NumTemps, R.After.NumTemps);
  // The rebuilt report must serialize to the identical document.
  EXPECT_EQ(Back.toJsonText(), R.toJsonText());
}

TEST(RunReport, FromJsonRejectsForeignSchemas) {
  RunReport Out;
  json::Value V = json::Value::object();
  EXPECT_FALSE(RunReport::fromJson(V, Out));
  V.set("schema", json::Value::str("lcm-bench-v1"));
  EXPECT_FALSE(RunReport::fromJson(V, Out));
}

TEST(RunReport, CorpusModeRoundTrips) {
  std::vector<Function> Batch;
  for (int I = 0; I != 6; ++I)
    Batch.push_back(makeMotivatingExample());
  PipelineParse P = parsePipeline("lcse,lcm,cleanup");
  ASSERT_TRUE(P) << P.Error;

  std::map<std::string, uint64_t> Before = Stats::all();
  CorpusDriverResult CR = optimizeCorpus(Batch, P.P, {.Threads = 2});
  std::map<std::string, uint64_t> Delta;
  for (const auto &[Key, Count] : Stats::all()) {
    auto It = Before.find(Key);
    uint64_t Prev = It == Before.end() ? 0 : It->second;
    if (Count > Prev)
      Delta[Key] = Count - Prev;
  }

  RunReport R = makeCorpusReport(CR, "run_report_test", "lcse,lcm,cleanup",
                                 std::move(Delta));
  ASSERT_TRUE(R.HasCorpus);
  EXPECT_FALSE(R.HasFunction);
  EXPECT_EQ(R.Corpus.NumFunctions, 6u);
  EXPECT_EQ(R.Corpus.Failures, 0u);
  EXPECT_GT(R.Corpus.TotalChanges, 0u);

  json::ParseResult Parsed = json::parse(R.toJsonText());
  ASSERT_TRUE(Parsed.Ok) << Parsed.Error;
  RunReport Back;
  ASSERT_TRUE(RunReport::fromJson(Parsed.V, Back));
  ASSERT_TRUE(Back.HasCorpus);
  EXPECT_EQ(Back.Corpus.NumFunctions, R.Corpus.NumFunctions);
  EXPECT_EQ(Back.Corpus.Threads, R.Corpus.Threads);
  EXPECT_EQ(Back.Corpus.TotalChanges, R.Corpus.TotalChanges);
  EXPECT_EQ(Back.toJsonText(), R.toJsonText());
}

/// Corpus-mode reports list the pipeline's passes in order, each summed
/// over the batch's functions, without per-pass counters.
TEST(RunReport, CorpusModeListsPipelinePasses) {
  std::vector<Function> Batch;
  for (int I = 0; I != 6; ++I)
    Batch.push_back(makeMotivatingExample());
  PipelineParse P = parsePipeline("lcse,lcm");
  ASSERT_TRUE(P) << P.Error;
  CorpusDriverResult CR = optimizeCorpus(Batch, P.P, {.Threads = 2});

  RunReport R = makeCorpusReport(CR, "run_report_test", "lcse,lcm", {});
  ASSERT_EQ(R.Passes.size(), 2u);
  EXPECT_EQ(R.Passes[0].Name, "lcse");
  EXPECT_EQ(R.Passes[1].Name, "lcm");
  EXPECT_GT(R.Passes[1].Changes, 0u) << "LCM must move a + b";
  EXPECT_GT(R.Passes[1].WordOps, 0u);
  EXPECT_EQ(R.Passes[0].Changes + R.Passes[1].Changes,
            R.Corpus.TotalChanges);
  for (const PassRecord &Pass : R.Passes)
    EXPECT_TRUE(Pass.Counters.empty()) << Pass.Name;
}

} // namespace
