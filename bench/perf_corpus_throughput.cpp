//===- bench/perf_corpus_throughput.cpp - Parallel driver throughput ------===//
//
// Companion to the zero-allocation dataflow engine: functions/second of the
// full verified pipeline (lcse,lcm,cleanup) over a generated corpus, single-
// vs multi-thread, via driver/CorpusDriver.h.  Each thread claims functions
// from a shared cursor and solves in its own thread_local storage; helper
// threads persist across batches, so that storage stays warm.  Each thread
// count gets one untimed warm-up batch, then the table prints the median
// and quartiles of its timed batches, the median speedup over one thread,
// and a determinism check: every batch at every thread count must produce
// bit-identical optimized programs.
//
// NOTE: speedup is hardware-dependent; the printed "hardware threads" line
// gives the context for the numbers (EXPERIMENTS.md records a 4-vCPU run).
// Link no counting allocator into this binary: lcm_alloc_hook bumps shared
// atomics on every allocation, which slows multi-threaded batches.
//
//===----------------------------------------------------------------------===//

#include <algorithm>
#include <cstdio>
#include <thread>

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "driver/CorpusDriver.h"
#include "ir/Printer.h"
#include "support/SimdWords.h"
#include "workload/RandomCfg.h"
#include "workload/StructuredGen.h"

using namespace lcm;

namespace {

/// A corpus heavy enough that one serial sweep takes a measurable chunk of
/// time: structured nests plus 64-block random CFGs.
std::vector<Function> makeThroughputCorpus() {
  std::vector<Function> Fns;
  for (unsigned Seed = 1; Seed <= 96; ++Seed) {
    StructuredGenOptions Opts;
    Opts.Seed = Seed;
    Opts.MaxDepth = 4;
    Opts.ControlPercent = 50;
    Opts.MaxStmtsPerSeq = 6;
    Fns.push_back(generateStructured(Opts));
  }
  for (unsigned Seed = 1; Seed <= 96; ++Seed) {
    RandomCfgOptions Opts;
    Opts.Seed = Seed;
    Opts.NumBlocks = 64;
    Fns.push_back(generateRandomCfg(Opts));
  }
  return Fns;
}

/// Timed batches per thread count, after one untimed warm-up batch.
constexpr unsigned TimedBatches = 15;

/// Linear-interpolated quantile \p Q of sorted \p V.
double quantile(const std::vector<double> &V, double Q) {
  const double Pos = Q * double(V.size() - 1);
  const size_t Lo = size_t(Pos);
  const size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (Pos - double(Lo)) * (V[Hi] - V[Lo]);
}

void runThroughputTable() {
  printHeading("corpus-throughput",
               "parallel pipeline driver (lcse,lcm,cleanup)");
  std::printf("hardware threads available: %u, kernel backend: %s\n"
              "%u timed batches per thread count after one warm-up "
              "batch\n\n",
              std::thread::hardware_concurrency(), simdwords::backendName(),
              TimedBatches);
  benchRecordMetric("hardware_threads",
                    uint64_t(std::thread::hardware_concurrency()));
  benchRecordMetric("simd_backend",
                    json::Value::str(simdwords::backendName()));
  benchRecordMetric("timed_batches", uint64_t(TimedBatches));

  PipelineParse P = parsePipeline("lcse,lcm,cleanup");
  if (!P.Ok) {
    std::fprintf(stderr, "pipeline parse failed: %s\n", P.Error.c_str());
    return;
  }
  const std::vector<Function> Pristine = makeThroughputCorpus();

  Table T({"threads", "q1 fn/s", "median fn/s", "q3 fn/s", "speedup",
           "failures"});
  double SerialMedian = 0.0;
  std::vector<std::string> SerialOutputs;
  uint64_t DeterminismViolations = 0;

  for (unsigned Threads : {1u, 2u, 4u, 8u}) {
    CorpusDriverOptions Opts;
    Opts.Threads = Threads;
    std::vector<double> Rates;
    size_t Failures = 0;
    for (unsigned Batch = 0; Batch != TimedBatches + 1; ++Batch) {
      std::vector<Function> Fns = Pristine;
      CorpusDriverResult R = optimizeCorpus(Fns, P.P, Opts);
      if (Batch == 0)
        continue; // Warm-up: grows every thread's storage, untimed.
      Rates.push_back(R.functionsPerSecond());
      Failures += R.NumFailed;
      if (SerialOutputs.empty())
        for (const Function &Fn : Fns)
          SerialOutputs.push_back(printFunction(Fn));
      else
        for (size_t I = 0; I != Fns.size(); ++I)
          DeterminismViolations += printFunction(Fns[I]) != SerialOutputs[I];
    }
    std::sort(Rates.begin(), Rates.end());
    const double Q1 = quantile(Rates, 0.25), Median = quantile(Rates, 0.5),
                 Q3 = quantile(Rates, 0.75);
    if (Threads == 1)
      SerialMedian = Median;
    char Q1s[32], Ms[32], Q3s[32], Sp[32];
    std::snprintf(Q1s, sizeof(Q1s), "%.1f", Q1);
    std::snprintf(Ms, sizeof(Ms), "%.1f", Median);
    std::snprintf(Q3s, sizeof(Q3s), "%.1f", Q3);
    std::snprintf(Sp, sizeof(Sp), "%.2fx",
                  SerialMedian > 0 ? Median / SerialMedian : 0.0);
    T.row()
        .add(uint64_t(Threads))
        .add(Q1s)
        .add(Ms)
        .add(Q3s)
        .add(Sp)
        .add(uint64_t(Failures));
    // Named per-thread-count metrics so scaling curves across hosts can be
    // assembled from the JSON artifacts without parsing the table rows.
    char Key[64];
    std::snprintf(Key, sizeof(Key), "threads_%u_functions_per_second",
                  Threads);
    benchRecordMetric(Key, Median);
    std::snprintf(Key, sizeof(Key), "threads_%u_q1_functions_per_second",
                  Threads);
    benchRecordMetric(Key, Q1);
    std::snprintf(Key, sizeof(Key), "threads_%u_q3_functions_per_second",
                  Threads);
    benchRecordMetric(Key, Q3);
  }
  printTable(T);
  benchRecordMetric("determinism_violations", DeterminismViolations);
  std::printf("\ndeterminism check (all thread counts produce identical "
              "programs): %s (%llu violations)\n",
              DeterminismViolations == 0 ? "HOLDS" : "VIOLATED",
              (unsigned long long)DeterminismViolations);
}

void BM_CorpusPipeline(benchmark::State &State) {
  PipelineParse P = parsePipeline("lcse,lcm,cleanup");
  const std::vector<Function> Pristine = makeThroughputCorpus();
  CorpusDriverOptions Opts;
  Opts.Threads = unsigned(State.range(0));
  uint64_t Functions = 0;
  for (auto _ : State) {
    std::vector<Function> Fns = Pristine;
    CorpusDriverResult R = optimizeCorpus(Fns, P.P, Opts);
    benchmark::DoNotOptimize(R.TotalChanges);
    Functions += Fns.size();
  }
  State.counters["functions/s"] =
      benchmark::Counter(double(Functions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CorpusPipeline)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

} // namespace

int main(int argc, char **argv) {
  benchInit(&argc, argv, "perf_corpus_throughput");
  runThroughputTable();
  if (benchJsonEnabled())
    return benchFinish();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
