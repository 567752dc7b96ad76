//===- lcmbench/cpp/main.cpp - Benchmark entry point ---------------------===//
//
// lcmbench --workload NAME --seed N --seconds S [--serve-bin PATH]
//          [--run-dir DIR] [--untraced-bin PATH]
// lcmbench --pipeline-passes --workload NAME --seed N --seconds S
// lcmbench --self-test
//
// Runs one workload and prints, as its last line, the result document:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// Built twice: `lcmbench` reports the end-to-end metrics, and
// `lcmbench_traced` (LCMBENCH_TRACED, counting allocator linked in) the
// per-layer ones.  lcmbench/run.py builds both and picks one.  With
// --pipeline-passes, `lcmbench` only makes the traced run's sample, prints
// `ready`, and prints the seconds per function that Pipeline::run takes
// over it (the low quartile over passes); the traced run compares its own
// time with it.
//
//===----------------------------------------------------------------------===//

#include "Serve.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

using namespace lcmbench;

static int usage() {
  std::fprintf(stderr,
               "usage: lcmbench [--pipeline-passes] --workload NAME --seed N "
               "--seconds S [--serve-bin PATH] [--run-dir DIR] "
               "[--untraced-bin PATH]\n"
               "       lcmbench --self-test\n");
  return 2;
}

int main(int argc, char **argv) {
  Options O;
  bool PipelineOnly = false;
  for (int I = 1; I < argc; ++I) {
    const std::string A = argv[I];
    if (A == "--self-test")
      return selfTest() + serveSelfTest() == 0 ? 0 : 1;
    if (A == "--pipeline-passes") {
      PipelineOnly = true;
      continue;
    }
    if (I + 1 >= argc)
      return usage();
    const char *V = argv[++I];
    if (A == "--workload")
      O.Workload = V;
    else if (A == "--seed")
      O.Seed = std::strtoull(V, nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = std::strtod(V, nullptr);
    else if (A == "--untraced-bin")
      O.UntracedBin = V;
    else if (A == "--serve-bin")
      O.ServeBin = V;
    else if (A == "--run-dir")
      O.RunDir = V;
    else
      return usage();
  }
  if (O.Seconds <= 0)
    return usage();

  static const std::string Workloads[] = {"batch-large", "serve-fresh",
                                         "serve-edit", "serve-validated"};
  if (std::find(std::begin(Workloads), std::end(Workloads), O.Workload) ==
      std::end(Workloads)) {
    std::fprintf(stderr, "lcmbench: unknown workload '%s'\n",
                 O.Workload.c_str());
    return 2;
  }
  if (PipelineOnly) {
    std::string Describe;
    const std::vector<std::string> Fns =
        tracedSample(O.Workload, O.Seed, Describe);
    // The traced run starts its own timing when this line arrives.
    std::printf("ready\n");
    std::fflush(stdout);
    const PipelinePasses P =
        timePipeline(Fns, pipelineOf(O.Workload), O.Seconds);
    if (!P.Ok || Fns.empty())
      return 1;
    std::printf("%.17g\n", calm(P.PassS) / double(Fns.size()));
    return 0;
  }
  Report R;
#ifdef LCMBENCH_TRACED
  runTraced(O, R);
#else
  if (O.Workload == "batch-large")
    runBatch(O, R);
  else
    runServe(O, R);
#endif
  for (const std::string &N : R.Notes)
    std::printf("# %s\n", N.c_str());
  std::printf("%s\n", R.json().c_str());
  return 0;
}
