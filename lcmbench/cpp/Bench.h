//===- lcmbench/cpp/Bench.h - Shared pieces of the benchmark -------------===//
//
// Part of the lcm project: a reproduction of "Lazy Code Motion"
// (Knoop, Ruething, Steffen; PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Declarations shared by the benchmark's workloads: run options, the
/// result document, seeded inputs, the output checks and the robust
/// timing statistics.  The benchmark reaches the system only through the
/// public headers under src/.
///
//===----------------------------------------------------------------------===//

#ifndef LCMBENCH_BENCH_H
#define LCMBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace lcm {
class Function;
}

namespace lcmbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

//===----------------------------------------------------------------------===//
// Options and the result document
//===----------------------------------------------------------------------===//

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  /// The lcm_serve binary the serving mixes start.
  std::string ServeBin;
  /// The untraced benchmark binary; the traced run times the plain
  /// pipeline with it for trace.overhead_ratio.
  std::string UntracedBin;
  /// Directory for the daemon's socket (relative paths keep it short).
  std::string RunDir = ".";
};

/// What one run prints as its last line.
struct Report {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  struct Metric {
    std::string Name;
    double Value;
    std::string Unit;
  };
  std::vector<Metric> Metrics;
  /// Descriptive lines (digests, spreads) printed before the result.
  std::vector<std::string> Notes;

  void metric(std::string Name, double Value, std::string Unit) {
    Metrics.push_back({std::move(Name), Value, std::move(Unit)});
  }
  /// Records a failed check: the run's outputs are not correct.
  void problem(const std::string &Why);
  void note(const std::string &Line) { Notes.push_back(Line); }
  /// The one-line JSON document.
  std::string json() const;
};

//===----------------------------------------------------------------------===//
// Seeded inputs (Inputs.cpp)
//===----------------------------------------------------------------------===//

/// A function as text, the way a client sends it.
struct FnText {
  std::string Name;
  std::string Text;
};

uint64_t splitmix(uint64_t X);
/// A word-at-a-time hash of the benchmark's own, for input digests and for
/// comparing served bytes with in-process ones (cheap enough for the client
/// to take of every answer, and independent of the system's hashing).
uint64_t hashText(std::string_view S);
std::string hex64(uint64_t V);
uint64_t digestOf(const std::vector<FnText> &Fns);

/// batch-large: random CFGs of 256-2048 blocks and deep structured nests.
std::vector<FnText> makeBatchInputs(uint64_t Seed);
/// The output counts (dyn_evals, code_size_instrs, temp_live_slots) are
/// taken over a reference sample drawn from this fixed seed, whatever the
/// run's --seed: per-function counts are heavy-tailed (one large nest in
/// eight keeps twenty times the usual live temporaries), so totals over one
/// seed's inputs would move by a quarter from seed to seed, while over a
/// fixed sample they are exact and any change is the optimizer's.  The
/// checks run on the run's own outputs as well.
inline constexpr uint64_t ReferenceSeed = 1;
/// batch-large's reference sample: this many batches.
inline constexpr unsigned ReferenceBatches = 2;
/// One function of default-corpus size from generator \p Index % 4.
FnText makeCorpusSized(uint64_t Seed, uint64_t Index, const std::string &Name);
/// A module of the default corpus's mix (paper examples + seeded
/// structured, random, address and memory kernels).
std::vector<FnText> makeEditModule(uint64_t Seed, unsigned Conn);
/// The fixed working set of serve-validated.
std::vector<FnText> makeValidatedSet(uint64_t Seed);

/// Inserts `nonce = N` after the entry block header: a never-sent program
/// whose optimization does the same work as its base.
std::string withNonce(const std::string &Text, uint64_t N);

//===----------------------------------------------------------------------===//
// Output checks (Checks.cpp)
//===----------------------------------------------------------------------===//

/// Expression evaluations of \p Fn over the checks' seeded runs.
uint64_t inputEvals(const lcm::Function &Fn);

/// In-process reference: parse, run \p Pipeline, print.  Empty on error.
std::string optimizeText(const std::string &Text, const std::string &Pipeline);

/// The pipeline a workload runs.
inline const char *pipelineOf(const std::string &Workload) {
  return Workload == "batch-large" ? "lcse,lcm,cleanup" : "lcse,lcm";
}

/// Pipeline::run over copies of \p Fns (parsed once), pass after pass, for
/// at least \p Seconds and three passes.  \p Hook, if set, is called just
/// before (false) and after (true) the second pass, for counters.
struct PipelinePasses {
  std::vector<double> PassS; ///< Wall time of each pass.
  bool Ok = true;
};
PipelinePasses timePipeline(const std::vector<std::string> &Fns,
                            const std::string &Spec, double Seconds,
                            const std::function<void(bool After)> &Hook = {});

/// Totals of the independent checks over a set of (input, output) pairs.
struct CheckTotals {
  uint64_t Failures = 0;
  /// Expression evaluations of the outputs over every seeded run.
  uint64_t DynEvals = 0;
  /// Static instructions of the outputs.
  uint64_t CodeSize = 0;
  /// Block boundaries with a live PRE temporary (the checks' own liveness).
  uint64_t TempLiveSlots = 0;
  /// Seeded runs that reached the exit (the evaluation bound is checked
  /// on those).
  uint64_t RunsToExit = 0;
  uint64_t Runs = 0;
};

/// Checks one optimized output against its input with the interpreter as
/// reference, and the paper's optimality properties against `lcse,bcm`:
///  * equal observable behaviour on every seeded run;
///  * no more evaluations than the input on every run that reaches exit;
///  * `lcse,lcm` evaluates exactly as often as `lcse,bcm` and keeps no more
///    temporaries live at block boundaries.
/// \p Output is the printed result of \p Pipeline on \p Input.  Failures
/// are described through \p R.
void checkOutput(const std::string &Input, const std::string &Output,
                 const std::string &Pipeline, CheckTotals &T, Report &R);

/// Runs the checks' own tests: each check must reject a deliberately
/// corrupted output.  Returns the number of checks that did not.
int selfTest();

//===----------------------------------------------------------------------===//
// Robust timing statistics (Common.cpp)
//===----------------------------------------------------------------------===//

/// Linear-interpolated quantile of an unsorted sample.
double quantile(std::vector<double> V, double Q);

/// Timing statistics that hold across the host's fast and slow spells.
/// Operations, ordered by completion, are cut into windows of \p PerWindow;
/// each window yields its rate and its latency p50 and p99.  A spell lasts
/// longer than a window, so the fast decile over windows — the 90th
/// percentile of rates, the 10th of latencies — reads the same state in
/// every run, where a whole-run figure moves with the share of slow spells.
struct FastStats {
  double Rate = 0;  ///< Operations per second.
  double P50Ms = 0;
  double P99Ms = 0;
  size_t Windows = 0;
};
FastStats fastWindows(const std::vector<double> &DoneAt,
                      const std::vector<double> &LatencyMs, size_t PerWindow);

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

void runBatch(const Options &O, Report &R);
void runServe(const Options &O, Report &R);
void runTraced(const Options &O, Report &R);

/// The functions a traced run replays stage by stage: the batch, or up to
/// 64 of a serving mix's functions.
std::vector<std::string> tracedSample(const std::string &Workload,
                                      uint64_t Seed, std::string &Describe);

/// Low quartile of per-pass values: the calm passes.
inline double calm(const std::vector<double> &V) { return quantile(V, 0.25); }

/// Operations slower than \p Times the fast p50 \p P50: the stalls that the
/// fast-decile statistics (FastStats) cannot see.
inline uint64_t slowerThan(const std::vector<double> &V, double P50,
                           double Times = 10) {
  uint64_t N = 0;
  for (double X : V)
    N += X > P50 * Times;
  return N;
}

/// Peak resident set of this process, MiB.
double selfPeakRssMb();

} // namespace lcmbench

#endif // LCMBENCH_BENCH_H
