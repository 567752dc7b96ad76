//===- tools/bench_gate.cpp - Bench regression gate -----------------------===//
//
// Part of the lcm project: a reproduction of "Lazy Code Motion"
// (Knoop, Ruething, Steffen; PLDI 1992).
//
//===----------------------------------------------------------------------===//
//
// The CI regression gate (schema "lcm-bench-gate-v1").  Three modes:
//
//   bench_gate --baseline=BENCH_baseline.json [--out=current.json]
//              [--tolerance=R]
//     Runs the deterministic measured suite in-process, optionally writes
//     the fresh document, compares it against the committed baseline, and
//     exits nonzero on any regression.
//
//   bench_gate --write-baseline=BENCH_baseline.json
//     Runs the suite and (re)writes the baseline.  Do this consciously —
//     the diff of the committed file is the review artifact.
//
//   bench_gate --update
//     Shorthand for the above against the repository's committed
//     BENCH_baseline.json (the path is baked in at configure time), so
//     a conscious re-baseline is one command from any directory.
//
//   bench_gate --compare BASELINE.json CURRENT.json [--tolerance=R]
//     Pure comparison of two existing documents (what the unit tests and
//     ad-hoc investigations use).
//
// The suite measures, for every experiment-corpus program and strategy
// (CSE, MR, BCM, ALCM, LCM): static operation counts, seeded dynamic
// evaluation counts, temp-lifetime metrics, and placement counts, plus
// the LCM solver's pass/word-op cost (round-robin pinned, so pass counts
// are meaningful).  All of those are exact-checked: they are deterministic
// functions of the algorithms, not the machine.  Wall-clock metrics land
// under "timing" and are tolerance-checked (see metrics/Gate.h).
//
//===----------------------------------------------------------------------===//

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "baseline/Cleanup.h"
#include "baseline/GlobalCse.h"
#include "baseline/MorelRenvoise.h"
#include "core/Lcm.h"
#include "core/LocalCse.h"
#include "driver/CorpusDriver.h"
#include "driver/Pipeline.h"
#include "gvn/Gvn.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "metrics/Compare.h"
#include "metrics/Gate.h"
#include "server/IncrementalBench.h"
#include "specpre/SpecPre.h"
#include "support/AllocHook.h"
#include "support/Json.h"
#include "workload/Corpus.h"

using namespace lcm;
using json::Value;

namespace {

const char *SchemaName = "lcm-bench-gate-v1";

std::vector<CorpusEntry> gateCorpus() {
  std::vector<CorpusEntry> Corpus = makeDefaultCorpus();
  for (CorpusEntry &Entry : Corpus) {
    auto Raw = Entry.Make;
    Entry.Make = [Raw] {
      Function Fn = Raw();
      runLocalCse(Fn);
      return Fn;
    };
  }
  return Corpus;
}

Value strategyRecord(const std::string &Name, const Function &Original,
                     const TransformFn &Transform) {
  // Three seeded runs keep the suite fast; determinism is what matters.
  StrategyOutcome O =
      evaluateStrategy(Name, Original, Transform, /*DynSeedBase=*/1,
                       /*NumDynRuns=*/3);
  Value R = Value::object();
  R.set("static_ops", Value::number(O.StaticOps))
      .set("weighted_static_ops", Value::number(O.WeightedStaticOps))
      .set("dyn_evals", Value::number(O.DynamicEvals))
      .set("all_runs_exit", Value::boolean(O.AllRunsReachedExit))
      .set("temp_live_slots", Value::number(O.TempLiveSlots))
      .set("temp_max_pressure", Value::number(O.TempMaxPressure))
      .set("num_temps", Value::number(O.NumTemps))
      .set("blocks_after", Value::number(O.BlocksAfter));
  return R;
}

/// The hot-path allocation contract (docs/HOTPATH.md), measured the same
/// way tests/alloc_regression_test.cpp pins it: after a warm-up, a full
/// parse -> local CSE -> LCM -> cleanup -> print iteration over the corpus,
/// verified after every pass, performs zero heap allocations (a failed
/// verify's error strings would count).  Exact-gated at 0.  Under sanitizer
/// builds the counting hook is inert (support/AllocHook.h), so the metric
/// is vacuously zero there; the plain CI build carries the real contract.
uint64_t measureSteadyAllocations() {
  std::vector<std::string> Texts;
  for (const CorpusEntry &Entry : makeDefaultCorpus()) {
    Function Fn = Entry.Make();
    Texts.push_back(printFunction(Fn));
  }
  const IRLimits Limits;
  ParserScratch Scratch;
  ParseResult Ir;
  PreRunResult R;
  std::string Out;
  auto Iteration = [&](const std::string &Text) {
    parseFunctionInto(Text, Limits, Scratch, Ir);
    runLocalCse(Ir.Fn);
    verifyFunction(Ir.Fn);
    runPreInto(Ir.Fn, PreStrategy::Lazy, SolverStrategy::Sparse, R);
    verifyFunction(Ir.Fn);
    runCleanup(Ir.Fn, CleanupOptions{});
    verifyFunction(Ir.Fn);
    Out.clear();
    printFunction(Ir.Fn, Out);
  };
  for (unsigned I = 0; I != 16; ++I)
    for (const std::string &Text : Texts)
      Iteration(Text);
  const uint64_t Before = alloccount::allocations();
  for (unsigned I = 0; I != 4; ++I)
    for (const std::string &Text : Texts)
      Iteration(Text);
  return alloccount::allocations() - Before;
}

/// Measures everything the gate checks.  Deterministic by construction:
/// the corpus, seeds, and solver strategy are fixed.
Value measureSuite() {
  const auto SuiteStart = std::chrono::steady_clock::now();
  std::vector<CorpusEntry> Corpus = gateCorpus();

  Value Programs = Value::object();
  for (const CorpusEntry &Entry : Corpus) {
    Function Original = Entry.Make();
    Value P = Value::object();
    P.set("blocks", Value::number(uint64_t(Original.numBlocks())))
        .set("exprs", Value::number(uint64_t(Original.exprs().size())));

    Value Strategies = Value::object();
    Strategies.set("none",
                   strategyRecord("none", Original, [](Function &) {}));
    Strategies.set("CSE", strategyRecord("CSE", Original, [](Function &F) {
                     runGlobalCse(F);
                   }));
    Strategies.set("MR", strategyRecord("MR", Original, [](Function &F) {
                     runMorelRenvoise(F);
                   }));
    Strategies.set("BCM", strategyRecord("BCM", Original, [](Function &F) {
                     runPre(F, PreStrategy::Busy);
                   }));
    Strategies.set("ALCM", strategyRecord("ALCM", Original, [](Function &F) {
                     runPre(F, PreStrategy::AlmostLazy);
                   }));
    Strategies.set("LCM", strategyRecord("LCM", Original, [](Function &F) {
                     runPre(F, PreStrategy::Lazy);
                   }));
    P.set("strategies", std::move(Strategies));

    // Placement counts and solver cost of the paper's transformation.
    // Round-robin is pinned so pass counts measure the classic iteration
    // scheme instead of worklist pop totals.
    Function ForLcm = Original;
    PreRunResult R =
        runPre(ForLcm, PreStrategy::Lazy, SolverStrategy::RoundRobin);
    Value Lcm = Value::object();
    Lcm.set("edge_insertions", Value::number(R.Report.EdgeInsertions))
        .set("node_insertions", Value::number(R.Report.NodeInsertions))
        .set("replacements", Value::number(R.Report.Replacements))
        .set("saves", Value::number(R.Report.Saves))
        .set("split_blocks", Value::number(R.Report.SplitBlocks));
    Value Solver = Value::object();
    Solver.set("avail_passes", Value::number(R.AvailStats.Passes))
        .set("ant_passes", Value::number(R.AntStats.Passes))
        .set("later_passes", Value::number(R.LaterStats.Passes))
        .set("isolation_passes", Value::number(R.IsolationStats.Passes))
        .set("word_ops",
             Value::number(R.AvailStats.WordOps + R.AntStats.WordOps +
                           R.LaterStats.WordOps +
                           R.IsolationStats.WordOps));
    Lcm.set("solver", std::move(Solver));
    P.set("lcm", std::move(Lcm));

    Programs.set(Entry.Name, std::move(P));
  }

  // Aggregate optimality totals: the headline numbers of the paper.
  uint64_t TotalNone = 0, TotalLcm = 0;
  for (const auto &[Name, P] : Programs.members()) {
    const Value *S = P.find("strategies");
    TotalNone += S->find("none")->find("dyn_evals")->asUInt();
    TotalLcm += S->find("LCM")->find("dyn_evals")->asUInt();
  }
  Value Totals = Value::object();
  Totals.set("none_dyn_evals", Value::number(TotalNone))
      .set("lcm_dyn_evals", Value::number(TotalLcm));

  Value Suite = Value::object();
  Suite.set("corpus_size", Value::number(uint64_t(Corpus.size())))
      .set("programs", std::move(Programs))
      .set("totals", std::move(Totals));

  // Speculative placement backend (docs/SPECPRE.md), exact-gated: under
  // the fixed skewed synthetic profile both placements are priced
  // analytically, so every number here is a deterministic function of the
  // algorithms.  A specpre change that alters cuts or costs must re-run
  // `bench_gate --update` and review the diff.
  Value SpecPre = Value::object();
  {
    uint64_t LcmEvals = 0, SpecEvals = 0, Speculated = 0, Improved = 0,
             Regressions = 0;
    for (const CorpusEntry &Entry : Corpus) {
      Function Fn = Entry.Make();
      specpre::EdgeProfile Profile = specpre::synthesizeEdgeProfile(
          Fn, specpre::ProfileMode::Skewed, /*Seed=*/11);
      CfgEdges Edges(Fn);
      LocalProperties LP(Fn);
      specpre::ResolvedProfile RP;
      specpre::resolveProfile(Profile, Fn, Edges, RP);
      LazyCodeMotion Engine(Fn, Edges, LP);
      PrePlacement LcmP = Engine.placement(PreStrategy::Lazy);
      PrePlacement SpecP;
      specpre::SpecPreStats S;
      specpre::computeSpecPrePlacement(Fn, Edges, LP, LcmP, RP, SpecP, S);
      const uint64_t LcmCost =
          specpre::profiledPlacementCost(Fn, Edges, LcmP, RP);
      const uint64_t SpecCost =
          specpre::profiledPlacementCost(Fn, Edges, SpecP, RP);
      LcmEvals += LcmCost;
      SpecEvals += SpecCost;
      Speculated += S.ExprsSpeculated;
      Improved += SpecCost < LcmCost;
      Regressions += SpecCost > LcmCost;
    }
    SpecPre.set("profiled_evals_lcm", Value::number(LcmEvals))
        .set("profiled_evals_spec", Value::number(SpecEvals))
        .set("exprs_speculated", Value::number(Speculated))
        .set("programs_improved", Value::number(Improved))
        .set("regressions", Value::number(Regressions));
  }

  // GVN front end (docs/GVN.md), exact-gated: seeded dynamic evaluation
  // counts of the `gvn,lcm` pipeline against plain lexical LCM on the same
  // corpus, plus the congruence-class/merge totals.  All deterministic
  // functions of the algorithms; `regressions` is pinned at 0 by the
  // merge-never-split contract, so a GVN change that makes any program
  // dynamically worse fails the gate outright.
  Value Gvn = Value::object();
  {
    uint64_t LexEvals = 0, GvnEvals = 0, Merged = 0, Classes = 0,
             Improved = 0, Regressions = 0;
    for (const CorpusEntry &Entry : Corpus) {
      Function Original = Entry.Make();
      StrategyOutcome Lex = evaluateStrategy(
          "LCM", Original,
          [](Function &F) { runPre(F, PreStrategy::Lazy); },
          /*DynSeedBase=*/1, /*NumDynRuns=*/3);
      gvn::GvnReport Report;
      StrategyOutcome Gv = evaluateStrategy(
          "GVN+LCM", Original,
          [&Report](Function &F) {
            // Mirrors the `gvn` pipeline pass: value-number, then restore
            // the LCSE precondition the merges may have broken.
            Report = gvn::runGvn(F);
            runLocalCse(F);
            runPre(F, PreStrategy::Lazy);
          },
          /*DynSeedBase=*/1, /*NumDynRuns=*/3);
      if (!Lex.AllRunsReachedExit || !Gv.AllRunsReachedExit)
        continue;
      LexEvals += Lex.DynamicEvals;
      GvnEvals += Gv.DynamicEvals;
      Merged += Report.MergedExprs;
      Classes += Report.Classes;
      Improved += Gv.DynamicEvals < Lex.DynamicEvals;
      Regressions += Gv.DynamicEvals > Lex.DynamicEvals;
    }
    Gvn.set("dyn_evals_lexical", Value::number(LexEvals))
        .set("dyn_evals_gvn", Value::number(GvnEvals))
        .set("merged_exprs", Value::number(Merged))
        .set("classes", Value::number(Classes))
        .set("programs_improved", Value::number(Improved))
        .set("regressions", Value::number(Regressions));
  }

  // Hot-path contract: exact steady-state allocation count, gated at 0.
  Value Hotpath = Value::object();
  Hotpath.set("steady_allocations",
              Value::number(measureSteadyAllocations()));

  // Incremental reoptimization (docs/INCREMENTAL.md): a fixed stream of
  // 1-block edits replayed down the protocol-v4 delta path and a
  // cacheless full reoptimization side by side.  The counters and the
  // byte-identity of the two paths' responses are deterministic and
  // exact-gated; `delta_speedup_ge5x` is a ratio of the two paths in the
  // same process, so it holds regardless of machine speed (both slow down
  // together).  Raw p50s land under timing for tolerance checking.
  Value EditLoop = Value::object();
  server::EditLoopBenchResult EL = server::runEditLoopBench(/*Edits=*/24);
  EditLoop.set("functions", Value::number(uint64_t(EL.Functions)))
      .set("edits", Value::number(uint64_t(EL.Edits)))
      .set("delta_applied", Value::number(EL.DeltaApplied))
      .set("delta_fallbacks", Value::number(EL.DeltaFallbacks))
      .set("failures", Value::number(EL.Failures))
      .set("delta_full_equal", Value::boolean(EL.DeltaFullEqual))
      .set("delta_speedup_ge5x", Value::boolean(EL.speedupP50() >= 5.0));

  // Timing block (tolerance-checked): suite wall time, the verified
  // parallel pipeline's throughput on a small generated batch, and the
  // hot path's parse/print throughput (one warm scratch, MB/s).
  PipelineParse Parsed = parsePipeline("lcse,lcm,cleanup");
  std::vector<Function> Batch;
  for (const CorpusEntry &E : makeGeneratedCorpus(12, 12))
    Batch.push_back(E.Make());
  CorpusDriverResult Throughput = optimizeCorpus(Batch, Parsed.P);

  double ParseMbPerSec = 0, PrintMbPerSec = 0;
  {
    std::vector<std::string> Texts;
    size_t Bytes = 0;
    std::vector<Function> Fns;
    for (const CorpusEntry &Entry : Corpus) {
      Fns.push_back(Entry.Make());
      Texts.push_back(printFunction(Fns.back()));
      Bytes += Texts.back().size();
    }
    const IRLimits Limits;
    ParserScratch Scratch;
    ParseResult Ir;
    const unsigned Reps = 64;
    auto T0 = std::chrono::steady_clock::now();
    for (unsigned R = 0; R != Reps; ++R)
      for (const std::string &Text : Texts)
        parseFunctionInto(Text, Limits, Scratch, Ir);
    double S = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - T0)
                   .count();
    ParseMbPerSec = S > 0 ? double(Bytes) * Reps / S / 1e6 : 0;
    std::string Out;
    T0 = std::chrono::steady_clock::now();
    for (unsigned R = 0; R != Reps; ++R)
      for (const Function &Fn : Fns) {
        Out.clear();
        printFunction(Fn, Out);
      }
    S = std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
            .count();
    PrintMbPerSec = S > 0 ? double(Bytes) * Reps / S / 1e6 : 0;
  }

  const double SuiteSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    SuiteStart)
          .count();
  Value Timing = Value::object();
  Timing.set("suite_seconds", Value::number(SuiteSeconds))
      .set("corpus_functions_per_second",
           Value::number(Throughput.functionsPerSecond()))
      .set("parse_mb_per_second", Value::number(ParseMbPerSec))
      .set("print_mb_per_second", Value::number(PrintMbPerSec))
      .set("editloop_delta_p50_ms", Value::number(EL.deltaP50()))
      .set("editloop_full_p50_ms", Value::number(EL.fullP50()));

  Value Root = Value::object();
  Root.set("schema", Value::str(SchemaName))
      .set("suite", std::move(Suite))
      .set("specpre", std::move(SpecPre))
      .set("gvn", std::move(Gvn))
      .set("hotpath", std::move(Hotpath))
      .set("editloop", std::move(EditLoop))
      .set("timing", std::move(Timing));
  return Root;
}

int reportGate(const GateResult &G) {
  if (G.Ok) {
    std::printf("bench_gate: PASS (%zu metrics: %zu exact, %zu within "
                "tolerance)\n",
                G.MetricsCompared, G.ExactMetrics, G.ToleranceMetrics);
    return 0;
  }
  std::printf("bench_gate: FAIL (%zu issue%s over %zu metrics)\n",
              G.Issues.size(), G.Issues.size() == 1 ? "" : "s",
              G.MetricsCompared);
  for (const GateIssue &I : G.Issues)
    std::printf("  %-16s %s: %s\n", I.Kind.c_str(), I.Path.c_str(),
                I.Detail.c_str());
  return 1;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: bench_gate --baseline=FILE [--out=FILE] [--tolerance=R]\n"
      "       bench_gate --write-baseline=FILE\n"
      "       bench_gate --update[=FILE]   (default: committed baseline)\n"
      "       bench_gate --compare BASELINE CURRENT [--tolerance=R]\n");
  return 2;
}

} // namespace

// Sanitized builds run the suite many times slower than the build that
// captured the baseline; their wall clock measures the sanitizer, not a
// regression.  Exact metrics stay fully enforced.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define LCM_GATE_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define LCM_GATE_SANITIZED 1
#endif
#endif
#ifndef LCM_GATE_SANITIZED
#define LCM_GATE_SANITIZED 0
#endif

int main(int argc, char **argv) {
  std::string BaselinePath, WritePath, OutPath;
  std::vector<std::string> ComparePaths;
  bool CompareMode = false;
  GateOptions Opts;
  if (LCM_GATE_SANITIZED) {
    Opts.RelTolerance = 100.0;
    std::fprintf(stderr, "bench_gate: sanitized build, timing tolerance "
                         "widened to %.0fx (exact metrics unaffected)\n",
                 Opts.RelTolerance);
  }

  for (int I = 1; I != argc; ++I) {
    if (std::strncmp(argv[I], "--baseline=", 11) == 0) {
      BaselinePath = argv[I] + 11;
    } else if (std::strncmp(argv[I], "--write-baseline=", 17) == 0) {
      WritePath = argv[I] + 17;
    } else if (std::strcmp(argv[I], "--update") == 0) {
#ifdef LCM_BASELINE_PATH
      WritePath = LCM_BASELINE_PATH;
#else
      std::fprintf(stderr,
                   "error: --update needs the baked-in baseline path; "
                   "use --write-baseline=FILE\n");
      return 2;
#endif
    } else if (std::strncmp(argv[I], "--update=", 9) == 0) {
      WritePath = argv[I] + 9;
    } else if (std::strncmp(argv[I], "--out=", 6) == 0) {
      OutPath = argv[I] + 6;
    } else if (std::strncmp(argv[I], "--tolerance=", 12) == 0) {
      Opts.RelTolerance = std::strtod(argv[I] + 12, nullptr);
    } else if (std::strcmp(argv[I], "--compare") == 0) {
      CompareMode = true;
    } else if (argv[I][0] == '-') {
      return usage();
    } else if (CompareMode && ComparePaths.size() < 2) {
      ComparePaths.push_back(argv[I]);
    } else {
      return usage();
    }
  }

  if (CompareMode) {
    if (ComparePaths.size() != 2)
      return usage();
    json::ParseResult Baseline = json::parseFile(ComparePaths[0]);
    if (!Baseline) {
      std::fprintf(stderr, "error: %s: %s\n", ComparePaths[0].c_str(),
                   Baseline.Error.c_str());
      return 2;
    }
    json::ParseResult Current = json::parseFile(ComparePaths[1]);
    if (!Current) {
      std::fprintf(stderr, "error: %s: %s\n", ComparePaths[1].c_str(),
                   Current.Error.c_str());
      return 2;
    }
    return reportGate(compareReports(Baseline.V, Current.V, Opts));
  }

  if (!WritePath.empty()) {
    Value Suite = measureSuite();
    if (!json::writeFile(WritePath, Suite)) {
      std::fprintf(stderr, "error: cannot write %s\n", WritePath.c_str());
      return 1;
    }
    std::printf("bench_gate: wrote baseline %s\n", WritePath.c_str());
    return 0;
  }

  if (BaselinePath.empty())
    return usage();

  json::ParseResult Baseline = json::parseFile(BaselinePath);
  if (!Baseline) {
    std::fprintf(stderr, "error: %s: %s\n", BaselinePath.c_str(),
                 Baseline.Error.c_str());
    return 2;
  }
  Value Current = measureSuite();
  if (!OutPath.empty() && !json::writeFile(OutPath, Current)) {
    std::fprintf(stderr, "error: cannot write %s\n", OutPath.c_str());
    return 1;
  }
  return reportGate(compareReports(Baseline.V, Current, Opts));
}
