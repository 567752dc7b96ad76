//===- lcmbench/cpp/Batch.cpp - batch-large: optimizeCorpus, text to text ===//
//
// One operation is one function taken from text to optimized text; one
// round is the whole input set: parse every function, optimizeCorpus on
// two threads, print every result.  Rounds repeat until the run's time is
// up, and every round's output must match the first (cold) round's bytes.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "driver/CorpusDriver.h"
#include "ir/Parser.h"
#include "ir/Printer.h"

using namespace lcm;

namespace lcmbench {

namespace {

constexpr unsigned BatchThreads = 2;

/// One round; false if any function failed to parse or optimize.
bool runRound(const std::vector<FnText> &In, const Pipeline &P,
              std::vector<std::string> &Out) {
  std::vector<Function> Fns;
  Fns.reserve(In.size());
  for (const FnText &F : In) {
    ParseResult Parsed = parseFunction(F.Text);
    if (!Parsed)
      return false;
    Fns.push_back(std::move(Parsed.Fn));
  }
  CorpusDriverOptions Opts;
  Opts.Threads = BatchThreads;
  CorpusDriverResult Res = optimizeCorpus(Fns, P, Opts);
  Out.resize(Fns.size());
  for (size_t I = 0; I != Fns.size(); ++I) {
    Out[I].clear();
    printFunction(Fns[I], Out[I]);
  }
  return Res.NumFailed == 0;
}

} // namespace

void runBatch(const Options &O, Report &R) {
  const std::string BatchPipeline = pipelineOf(O.Workload);
  PipelineParse Spec = parsePipeline(BatchPipeline);
  const std::vector<FnText> In = makeBatchInputs(O.Seed);
  uint64_t Bytes = 0;
  for (const FnText &F : In)
    Bytes += F.Text.size();
  R.note("inputs: " + std::to_string(In.size()) + " functions, " +
         std::to_string(Bytes) + " bytes, digest " + hex64(digestOf(In)));

  // Set-up: the first, cold round.  Making the inputs is the benchmark's
  // own work, and its cost varies with the seed, so the clock starts after.
  std::vector<std::string> Cold;
  const Clock::time_point SetupStart = Clock::now();
  const bool ColdOk = runRound(In, Spec.P, Cold);
  const double SetupS = secondsSince(SetupStart);
  R.Attempted += In.size();
  if (!ColdOk) {
    R.Failed += In.size();
    R.problem("cold round failed to optimize");
  }
  std::vector<uint64_t> ColdHash;
  for (const std::string &S : Cold)
    ColdHash.push_back(hashText(S));

  // Timed rounds.
  std::vector<double> RoundMs, RoundEnd;
  std::vector<std::string> Out;
  const Clock::time_point T0 = Clock::now();
  double Elapsed = 0;
  while (Elapsed < O.Seconds) {
    const Clock::time_point A = Clock::now();
    const bool Ok = runRound(In, Spec.P, Out);
    RoundMs.push_back(secondsSince(A) * 1e3);
    RoundEnd.push_back(secondsSince(T0));
    R.Attempted += In.size();
    for (size_t I = 0; I != In.size(); ++I)
      if (!Ok || I >= Out.size() || hashText(Out[I]) != ColdHash[I]) {
        ++R.Failed;
        R.problem(In[I].Name + ": round output differs from the cold round");
      }
    Elapsed = secondsSince(T0);
  }
  const double PeakMb = selfPeakRssMb();

  // Checks, outside the timed phase, on every output of the timed batch and
  // of the reference batches; the output counts come from the reference
  // batches alone (Bench.h, ReferenceSeed).
  CheckTotals Timed, T;
  auto Check = [&](CheckTotals &Into, const std::string &Input,
                   const std::string &Output) {
    const uint64_t Before = Into.Failures;
    checkOutput(Input, Output, BatchPipeline, Into, R);
    R.Failed += Into.Failures - Before;
  };
  for (size_t I = 0; I != In.size() && I < Cold.size(); ++I)
    Check(Timed, In[I].Text, Cold[I]);
  for (unsigned B = 0; B != ReferenceBatches; ++B)
    for (const FnText &F : makeBatchInputs(ReferenceSeed + B)) {
      ++R.Attempted;
      Check(T, F.Text, optimizeText(F.Text, BatchPipeline));
    }

  // A round is one batch request: all functions, text to text.  Windows of
  // 8 rounds (about half a second).
  const FastStats S = fastWindows(RoundEnd, RoundMs, 8);
  R.metric("setup_s", SetupS, "s");
  R.metric("batch_fns_per_s", S.Rate * double(In.size()), "functions/s");
  R.metric("throughput_rps", S.Rate, "requests/s");
  R.metric("latency_p50_ms", S.P50Ms, "ms");
  R.metric("latency_p99_ms", S.P99Ms, "ms");
  R.metric("dyn_evals", double(T.DynEvals), "count");
  R.metric("code_size_instrs", double(T.CodeSize), "count");
  R.metric("temp_live_slots", double(T.TempLiveSlots), "count");
  R.metric("peak_rss_mb", PeakMb, "MiB");
  R.note("rounds: " + std::to_string(RoundMs.size()) + " in " +
         std::to_string(S.Windows) + " windows" +
         ", round ms p10/p50/p90/p99.9 " +
         std::to_string(quantile(RoundMs, 0.1)) + "/" +
         std::to_string(quantile(RoundMs, 0.5)) + "/" +
         std::to_string(quantile(RoundMs, 0.9)) + "/" +
         std::to_string(quantile(RoundMs, 0.999)) +
         ", rounds over 10x the fast p50 " +
         std::to_string(slowerThan(RoundMs, S.P50Ms)) +
         ", seeded runs to exit " +
         std::to_string(Timed.RunsToExit + T.RunsToExit) + "/" +
         std::to_string(Timed.Runs + T.Runs));
}

} // namespace lcmbench
