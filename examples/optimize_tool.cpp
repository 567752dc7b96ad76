//===- examples/optimize_tool.cpp - Command-line PRE driver ---------------===//
//
// Part of the lcm project: a reproduction of "Lazy Code Motion"
// (Knoop, Ruething, Steffen; PLDI 1992).
//
//===----------------------------------------------------------------------===//
//
// A small driver exposing the whole library on textual IR:
//
//   optimize_tool [--pipeline=p1,p2,...] [--dot] [--stats]
//                 [--timeout-ms=N] [--report=out.json]
//                 [--strategy=classic|speculative] [--profile=FILE] [FILE]
//
// Reads the program from FILE (or stdin), applies the requested pass
// pipeline (default "lcse,lcm", the paper's prescription), and prints the
// optimized program (or its Graphviz rendering with --dot).  Run with
// --list-passes to see every registered pass.
//
// --strategy=speculative swaps every `lcm` step for `specpre`, the
// profile-guided min-cut placement backend (docs/SPECPRE.md); pair it
// with --profile=FILE, an lcm-profile-v1 edge-profile document, or the
// run degenerates to classic LCM by specpre's fallback rule.
// --strategy=gvn swaps every `lcm` step for `gvn,lcm`: global value
// numbering first folds algebraically equal expressions into one lexical
// shape (docs/GVN.md), then classic LCM places the survivors.
//
// --emit-profile=FILE measures the *input* program: it interprets the
// original under seeded inputs and oracles (the property-test execution
// idiom), aggregates the per-edge traversal counts across seeds, and
// writes an lcm-profile-v1 document usable directly as --profile on a
// later run or as the `profile` field of a server request.
//
// --report=out.json writes the structured run report (schema
// "lcm-run-report-v1", see docs/OBSERVABILITY.md): per-pass wall time and
// word-op counts, solver iteration counters, insertion/replacement/save
// counts, and before/after function metrics including temp lifetimes.
// Setting LCM_TRACE=1 (or =<path>) additionally emits per-stage begin/end
// trace events.
//
// Batch mode exercises the parallel corpus driver instead of a file:
//
//   optimize_tool --corpus=N [--threads=M] [--pipeline=...]
//                 [--report=out.json] [--cache-bytes=N] [--cache-dir=PATH]
//
// generates N functions (half structured, half random CFGs), optimizes
// them on M threads, this one included (0 = all hardware threads), and
// prints a throughput summary (--report captures it plus the batch's
// per-pass sums and counters).
// --cache-bytes / --cache-dir route the batch through the content-addressed
// result cache (docs/CACHE.md): repeat functions — and, with --cache-dir,
// repeat *runs* — skip the pipeline.
//
//===----------------------------------------------------------------------===//

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "cache/ResultCache.h"
#include "driver/CorpusDriver.h"
#include "driver/Pipeline.h"
#include "interp/Interpreter.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "metrics/Cost.h"
#include "metrics/RunReport.h"
#include "specpre/EdgeProfile.h"
#include "support/Cancel.h"
#include "support/Stats.h"
#include "workload/Corpus.h"

using namespace lcm;

namespace {

std::string readAll(std::FILE *In) {
  std::string Data;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), In)) > 0)
    Data.append(Buf, N);
  return Data;
}

int usage() {
  std::fprintf(stderr, "usage: optimize_tool [--pipeline=p1,p2,...] "
                       "[--pass=NAME] [--dot] [--stats] [--list-passes] "
                       "[--timeout-ms=N] [--report=FILE.json]\n"
                       "                     "
                       "[--strategy=classic|speculative|gvn] "
                       "[--profile=FILE.json] [--emit-profile=FILE.json] "
                       "[FILE]\n"
                       "       optimize_tool --corpus=N [--threads=M] "
                       "[--pipeline=p1,p2,...] [--report=FILE.json] "
                       "[--cache-bytes=N] [--cache-dir=PATH]\n"
                       "\n"
                       "  --timeout-ms=N  cancel the pipeline cooperatively "
                       "after N milliseconds\n"
                       "  --strategy=speculative  run `specpre` instead of "
                       "`lcm` (profile-guided min-cut\n"
                       "                  placement, docs/SPECPRE.md)\n"
                       "  --strategy=gvn  run `gvn,lcm` instead of `lcm` "
                       "(value-numbered placement,\n"
                       "                  docs/GVN.md)\n"
                       "  --profile=FILE  lcm-profile-v1 edge profile driving "
                       "the speculative placement\n"
                       "  --emit-profile=FILE  measure the input program "
                       "under seeded runs and write\n"
                       "                  the lcm-profile-v1 edge counts to "
                       "FILE\n"
                       "  --cache-bytes=N  corpus mode: result-cache memory "
                       "budget (enables the cache)\n"
                       "  --cache-dir=PATH corpus mode: persistent result "
                       "cache at PATH (enables the cache)\n"
                       "\n"
                       "exit codes:\n"
                       "  0  success\n"
                       "  1  parse/verify/pipeline failure or I/O error\n"
                       "  2  usage error\n"
                       "  4  timed out (--timeout-ms deadline exceeded)\n");
  return 2;
}

int writeReportOrFail(const RunReport &Report, const std::string &Path) {
  if (Report.writeFile(Path))
    return 0;
  std::fprintf(stderr, "error: cannot write report to %s\n", Path.c_str());
  return 1;
}

int runCorpusMode(const std::string &Spec, unsigned CorpusSize,
                  unsigned Threads, const std::string &ReportPath,
                  size_t CacheBytes, const std::string &CacheDir) {
  PipelineParse Parsed = parsePipeline(Spec);
  if (!Parsed) {
    std::fprintf(stderr, "error: %s\n", Parsed.Error.c_str());
    return usage();
  }
  std::vector<Function> Fns;
  for (const CorpusEntry &E :
       makeGeneratedCorpus(CorpusSize / 2, CorpusSize - CorpusSize / 2))
    Fns.push_back(E.Make());

  std::unique_ptr<cache::ResultCache> Cache;
  if (CacheBytes != 0 || !CacheDir.empty()) {
    cache::ResultCacheConfig CC;
    if (CacheBytes != 0)
      CC.MemoryBytes = CacheBytes;
    CC.DiskDir = CacheDir;
    Cache = std::make_unique<cache::ResultCache>(CC);
    std::string Error;
    if (!Cache->open(Error)) {
      std::fprintf(stderr, "error: cache: %s\n", Error.c_str());
      return 1;
    }
  }

  CorpusDriverOptions Opts;
  Opts.Threads = Threads;
  Opts.Cache = Cache.get();
  std::map<std::string, uint64_t> StatsBefore = Stats::all();
  CorpusDriverResult R = optimizeCorpus(Fns, Parsed.P, Opts);

  std::printf("corpus: %zu functions, pipeline \"%s\"\n", Fns.size(),
              Spec.c_str());
  std::printf("threads=%u  time=%.3fs  throughput=%.1f functions/s  "
              "changes=%llu  failures=%zu\n",
              R.ThreadsUsed, R.Seconds, R.functionsPerSecond(),
              (unsigned long long)R.TotalChanges, R.NumFailed);
  if (Cache)
    std::printf("cache: hits=%zu/%zu  %s\n", R.CacheHits, Fns.size(),
                Cache->summary().c_str());
  if (!ReportPath.empty()) {
    std::map<std::string, uint64_t> Delta;
    for (const auto &[Name, After] : Stats::all()) {
      auto It = StatsBefore.find(Name);
      uint64_t Prev = It == StatsBefore.end() ? 0 : It->second;
      if (After != Prev)
        Delta[Name] = After - Prev;
    }
    RunReport Report =
        makeCorpusReport(R, "optimize_tool", Spec, std::move(Delta));
    if (int Rc = writeReportOrFail(Report, ReportPath))
      return Rc;
  }
  if (R.NumFailed != 0) {
    for (size_t I = 0; I != R.PerFunction.size(); ++I)
      if (!R.PerFunction[I].Ok)
        std::fprintf(stderr, "function %zu: %s\n", I,
                     R.PerFunction[I].Error.c_str());
    return 1;
  }
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  std::string Spec = "lcse,lcm";
  std::string ReportPath;
  bool Dot = false, ShowStats = false;
  std::string Strategy = "classic";
  const char *Path = nullptr;
  unsigned CorpusSize = 0, Threads = 1;
  long long TimeoutMs = -1;
  size_t CacheBytes = 0;
  std::string CacheDir;
  std::string ProfilePath;
  std::string EmitProfilePath;

  for (int I = 1; I != argc; ++I) {
    if (std::strncmp(argv[I], "--pipeline=", 11) == 0) {
      Spec = argv[I] + 11;
    } else if (std::strncmp(argv[I], "--pass=", 7) == 0) {
      Spec = argv[I] + 7;
    } else if (std::strncmp(argv[I], "--strategy=", 11) == 0) {
      Strategy = argv[I] + 11;
      if (Strategy != "classic" && Strategy != "speculative" &&
          Strategy != "gvn")
        return usage();
    } else if (std::strncmp(argv[I], "--profile=", 10) == 0) {
      ProfilePath = argv[I] + 10;
      if (ProfilePath.empty())
        return usage();
    } else if (std::strncmp(argv[I], "--emit-profile=", 15) == 0) {
      EmitProfilePath = argv[I] + 15;
      if (EmitProfilePath.empty())
        return usage();
    } else if (std::strncmp(argv[I], "--report=", 9) == 0) {
      ReportPath = argv[I] + 9;
      if (ReportPath.empty())
        return usage();
    } else if (std::strncmp(argv[I], "--corpus=", 9) == 0) {
      char *End = nullptr;
      long long N = std::strtoll(argv[I] + 9, &End, 10);
      if (*End != '\0' || N <= 0 || N > 10'000'000)
        return usage();
      CorpusSize = unsigned(N);
    } else if (std::strncmp(argv[I], "--threads=", 10) == 0) {
      char *End = nullptr;
      long long N = std::strtoll(argv[I] + 10, &End, 10);
      if (*End != '\0' || N < 0 || N > 4096)
        return usage();
      Threads = unsigned(N);
    } else if (std::strncmp(argv[I], "--cache-bytes=", 14) == 0) {
      char *End = nullptr;
      long long N = std::strtoll(argv[I] + 14, &End, 10);
      if (*End != '\0' || N <= 0)
        return usage();
      CacheBytes = size_t(N);
    } else if (std::strncmp(argv[I], "--cache-dir=", 12) == 0) {
      CacheDir = argv[I] + 12;
      if (CacheDir.empty())
        return usage();
    } else if (std::strncmp(argv[I], "--timeout-ms=", 13) == 0) {
      char *End = nullptr;
      TimeoutMs = std::strtoll(argv[I] + 13, &End, 10);
      if (*End != '\0' || TimeoutMs < 0)
        return usage();
    } else if (std::strcmp(argv[I], "--list-passes") == 0) {
      for (const std::string &Name : standardPassNames())
        std::printf("%s\n", Name.c_str());
      return 0;
    } else if (std::strcmp(argv[I], "--dot") == 0) {
      Dot = true;
    } else if (std::strcmp(argv[I], "--stats") == 0) {
      ShowStats = true;
    } else if (argv[I][0] == '-') {
      return usage();
    } else if (Path) {
      return usage();
    } else {
      Path = argv[I];
    }
  }

  if (Strategy != "classic") {
    // Token-wise swap of the `lcm` steps, so the default pipeline and
    // custom ones alike pick up the requested placement backend:
    // speculative replaces lcm with specpre, gvn prepends value numbering
    // to each lcm step.
    std::string Rewritten, Tok;
    for (char C : Spec + ",") {
      if (C == ',') {
        if (!Tok.empty()) {
          if (!Rewritten.empty())
            Rewritten += ',';
          if (Tok != "lcm")
            Rewritten += Tok;
          else
            Rewritten += Strategy == "speculative" ? "specpre" : "gvn,lcm";
          Tok.clear();
        }
      } else if (!std::isspace(static_cast<unsigned char>(C))) {
        Tok += C;
      }
    }
    Spec = Rewritten;
  }

  // The scope stays active for the rest of main, covering both the
  // single-file and corpus paths (the corpus driver's workers inherit
  // nothing — profiles are per-program, so batch mode stays classic).
  specpre::EdgeProfile Profile;
  bool HasProfile = false;
  if (!ProfilePath.empty()) {
    json::ParseResult Doc = json::parseFile(ProfilePath);
    if (!Doc) {
      std::fprintf(stderr, "error: profile %s: %s\n", ProfilePath.c_str(),
                   Doc.Error.c_str());
      return 1;
    }
    specpre::ProfileParse PP = specpre::parseProfile(Doc.V);
    if (!PP) {
      std::fprintf(stderr, "error: profile %s: %s\n", ProfilePath.c_str(),
                   PP.Error.c_str());
      return 1;
    }
    Profile = std::move(PP.P);
    HasProfile = true;
  }
  specpre::ProfileContext::Scope ProfileScope(HasProfile ? &Profile
                                                          : nullptr);

  if (CorpusSize != 0)
    return runCorpusMode(Spec, CorpusSize, Threads, ReportPath, CacheBytes,
                         CacheDir);

  std::string Source;
  if (Path) {
    std::FILE *In = std::fopen(Path, "rb");
    if (!In) {
      std::fprintf(stderr, "error: cannot open %s\n", Path);
      return 1;
    }
    Source = readAll(In);
    std::fclose(In);
  } else {
    Source = readAll(stdin);
  }

  ParseResult Parsed = parseFunction(Source);
  if (!Parsed) {
    std::fprintf(stderr, "parse error: %s\n", Parsed.Error.c_str());
    return 1;
  }
  Function Fn = std::move(Parsed.Fn);
  auto Errors = verifyFunction(Fn);
  if (!Errors.empty()) {
    for (const std::string &E : Errors)
      std::fprintf(stderr, "invalid function: %s\n", E.c_str());
    return 1;
  }

  PipelineParse Parsed2 = parsePipeline(Spec);
  if (!Parsed2) {
    std::fprintf(stderr, "error: %s\n", Parsed2.Error.c_str());
    return usage();
  }

  if (!EmitProfilePath.empty()) {
    // Measure the *original* program before any pass mutates it: the
    // property-test execution idiom (seeded inputs, seeded oracle) keeps
    // the runs deterministic, and the traversal counts of several seeds
    // sum into one lcm-profile-v1 document.
    constexpr uint64_t MeasureRuns = 3;
    specpre::EdgeProfile Measured;
    for (uint64_t Seed = 1; Seed <= MeasureRuns; ++Seed) {
      RandomOracle Oracle(Seed ^ 0x94d049bb133111ebULL);
      Interpreter::Options IOpts;
      IOpts.MaxOriginalBlockVisits = 3000;
      IOpts.OriginalBlockCount = uint32_t(Fn.numBlocks());
      InterpResult Run = Interpreter::run(
          Fn, makeSeededInputs(Seed, Fn.numVars()), Oracle, IOpts);
      specpre::accumulateTraversals(Fn, Run.SuccTraversals, Measured);
    }
    const std::string Text =
        specpre::profileToJson(Measured).dump(2) + "\n";
    std::FILE *Out = std::fopen(EmitProfilePath.c_str(), "wb");
    const bool Written =
        Out && std::fwrite(Text.data(), 1, Text.size(), Out) == Text.size();
    if (Out)
      std::fclose(Out);
    if (!Written) {
      std::fprintf(stderr, "error: cannot write profile to %s\n",
                   EmitProfilePath.c_str());
      return 1;
    }
  }

  CancelToken Deadline;
  if (TimeoutMs >= 0)
    Deadline.setTimeoutMs(TimeoutMs);
  const CancelToken *Cancel = TimeoutMs >= 0 ? &Deadline : nullptr;

  if (!ReportPath.empty()) {
    RunReport Report =
        collectRunReport(Parsed2.P, Fn, "optimize_tool", Spec, Cancel);
    if (Report.Cancelled) {
      std::fprintf(stderr, "timed out: %s\n", Report.Error.c_str());
      return 4;
    }
    if (!Report.Ok) {
      std::fprintf(stderr, "internal error: %s\n", Report.Error.c_str());
      return 1;
    }
    if (int Rc = writeReportOrFail(Report, ReportPath))
      return Rc;
    if (ShowStats)
      for (const PassRecord &P : Report.Passes)
        std::fprintf(stderr, "pass=%s changes=%llu seconds=%.6f\n",
                     P.Name.c_str(), (unsigned long long)P.Changes,
                     P.Seconds);
    std::fputs((Dot ? printDot(Fn) : printFunction(Fn)).c_str(), stdout);
    return 0;
  }

  Pipeline::RunResult Run = Parsed2.P.run(Fn, Cancel);
  if (Run.Cancelled) {
    std::fprintf(stderr, "timed out: %s\n", Run.Error.c_str());
    return 4;
  }
  if (!Run.Ok) {
    std::fprintf(stderr, "internal error: %s\n", Run.Error.c_str());
    return 1;
  }

  if (ShowStats)
    for (const Pipeline::StepResult &S : Run.Steps)
      std::fprintf(stderr, "pass=%s changes=%llu\n", S.Name.c_str(),
                   (unsigned long long)S.Changes);

  std::fputs((Dot ? printDot(Fn) : printFunction(Fn)).c_str(), stdout);
  return 0;
}
