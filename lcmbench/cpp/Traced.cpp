//===- lcmbench/cpp/Traced.cpp - Per-layer numbers of one workload --------===//
//
// The traced run replays the workload's inputs through each module's public
// functions in process, timing every stage with spans kept in memory.  On
// the serving mixes it then runs the request stream once more through an
// in-process Service and through the real daemon for its /metrics counters;
// batch-large loads neither, and those layers read 0 there.  Its numbers
// explain the end-to-end ones; they are never compared with them run for
// run, since spans and the counting allocator slow what they watch:
// trace.overhead_ratio is the staged replay's time over the time the
// untraced binary, run alongside, takes for the same Pipeline::run work.
//
//===----------------------------------------------------------------------===//

#include "Serve.h"

#include <cstdio>
#include <cstdlib>
#include <unistd.h>

#include "analysis/ExprDataflow.h"
#include "baseline/Cleanup.h"
#include "cache/ContentHash.h"
#include "core/Lcm.h"
#include "core/LocalCse.h"
#include "driver/Pipeline.h"
#include "interp/Interpreter.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "server/Service.h"
#include "support/AllocHook.h"
#include "support/Json.h"
#include "support/Stats.h"

using namespace lcm;

namespace lcmbench {

namespace {

enum Stage {
  Parse,
  Verify,
  Lcse,
  Edges,
  Local,
  Avail,
  Antic,
  Recompute,
  Placement,
  Rewrite,
  Cleanup,
  Print,
  Key,
  NumStages
};

/// Spans of one pass over the sample, summed per stage.
struct Spans {
  double S[NumStages] = {};
  Clock::time_point T = Clock::now();
  void mark(Stage St) {
    const Clock::time_point N = Clock::now();
    S[St] += std::chrono::duration<double>(N - T).count();
    T = N;
  }
};

/// One staged pass: the pipeline's passes taken apart into the paper's
/// stages, each a public call, with the verifier after every pass as
/// Pipeline::run does.  \p Keyed: the workload keys requests for the result
/// cache (the serving mixes); \p WithCleanup: `cleanup` is in its pipeline
/// (batch-large).  Stages a workload does not run stay at 0.
bool stagedPass(const std::vector<std::string> &Fns, bool Keyed,
                bool WithCleanup,
                const cache::PipelineFingerprint &FP, Spans &Sp,
                uint64_t &Bytes) {
  static thread_local CfgEdges E;
  static thread_local LocalProperties LP;
  static thread_local LazyCodeMotion Engine;
  static thread_local DataflowResult AvR, AnR;
  static thread_local PrePlacement P;
  static thread_local ApplyReport Rep;
  std::string Out;
  bool Ok = true;
  for (const std::string &Text : Fns) {
    Bytes += Text.size();
    Sp.T = Clock::now();
    ParseResult Parsed = parseFunction(Text);
    Sp.mark(Parse);
    if (!Parsed)
      return false;
    Function &Fn = Parsed.Fn;
    if (Keyed) {
      cache::requestKey(Fn, FP);
      Sp.mark(Key);
    }
    runLocalCse(Fn);
    Sp.mark(Lcse);
    Ok &= verifyFunction(Fn).empty();
    Sp.mark(Verify);
    E.rebuild(Fn);
    Sp.mark(Edges);
    LP.recompute(Fn);
    Sp.mark(Local);
    computeAvailabilityInto(Fn, LP, SolverStrategy::Sparse, AvR);
    Sp.mark(Avail);
    computeAnticipabilityInto(Fn, LP, SolverStrategy::Sparse, AnR);
    Sp.mark(Antic);
    Engine.recompute(Fn, E, LP, SolverStrategy::Sparse);
    Sp.mark(Recompute);
    Engine.placementInto(PreStrategy::Lazy, P);
    Sp.mark(Placement);
    applyPlacement(Fn, E, P, Rep);
    Sp.mark(Rewrite);
    Ok &= verifyFunction(Fn).empty();
    Sp.mark(Verify);
    if (WithCleanup) {
      runCleanup(Fn, CleanupOptions{});
      Sp.mark(Cleanup);
      Ok &= verifyFunction(Fn).empty();
      Sp.mark(Verify);
    }
    Out.clear();
    printFunction(Fn, Out);
    Sp.mark(Print);
  }
  return Ok;
}

/// `lcmbench --pipeline-passes` over the same sample: the seconds per
/// function that Pipeline::run takes untraced.  It runs alongside the staged
/// replay, on another core and for as long, so both see the host in the
/// same state.
class UntracedPipeline {
public:
  UntracedPipeline(const Options &O, double Seconds) {
    if (O.UntracedBin.empty())
      return;
    const std::string Cmd = "'" + O.UntracedBin +
                            "' --pipeline-passes --workload " + O.Workload +
                            " --seed " + std::to_string(O.Seed) +
                            " --seconds " + std::to_string(Seconds);
    P = ::popen(Cmd.c_str(), "r");
  }
  UntracedPipeline(const UntracedPipeline &) = delete;
  UntracedPipeline &operator=(const UntracedPipeline &) = delete;
  ~UntracedPipeline() { secondsPerFunction(); }
  /// Blocks until the child has made its inputs and starts timing.
  void waitReady() {
    char Line[128];
    if (P && !std::fgets(Line, sizeof Line, P))
      secondsPerFunction();
  }
  /// Waits for the child; 0 if it failed.
  double secondsPerFunction() {
    if (!P)
      return Result;
    char Line[128] = {};
    const bool Read = std::fgets(Line, sizeof Line, P) != nullptr;
    const int Status = ::pclose(P);
    P = nullptr;
    Result = Read && Status == 0 ? std::strtod(Line, nullptr) : 0;
    return Result;
  }

private:
  FILE *P = nullptr;
  double Result = 0;
};

uint64_t stat(const std::map<std::string, uint64_t> &A,
              const std::map<std::string, uint64_t> &B, const char *Name) {
  auto IA = A.find(Name), IB = B.find(Name);
  const uint64_t VA = IA == A.end() ? 0 : IA->second;
  const uint64_t VB = IB == B.end() ? 0 : IB->second;
  return VB - VA;
}

} // namespace

void runTraced(const Options &O, Report &R) {
  const bool Batch = O.Workload == "batch-large";
  const std::string Spec = pipelineOf(O.Workload);
  std::string Describe;
  const std::vector<std::string> Fns =
      tracedSample(O.Workload, O.Seed, Describe);
  R.note(Describe);
  R.note("traced sample: " + std::to_string(Fns.size()) + " functions");
  const double Phase = O.Seconds / 4;
  const double N = double(Fns.size());

  //===--- Stages, in process ---------------------------------------------===
  cache::PipelineFingerprint FP;
  FP.Pipeline = Spec;
  std::vector<std::vector<double>> PerPass(NumStages);
  std::vector<double> PassBytes;
  UntracedPipeline Untraced(O, Phase);
  Untraced.waitReady();
  Clock::time_point T0 = Clock::now();
  for (unsigned Pass = 0; Pass < 3 || secondsSince(T0) < Phase; ++Pass) {
    Spans Sp;
    uint64_t Bytes = 0;
    const bool Ok = stagedPass(Fns, !Batch, Batch, FP, Sp, Bytes);
    R.Attempted += Fns.size();
    if (!Ok) {
      ++R.Failed;
      R.problem("staged replay: a verifier check failed");
    }
    for (int S = 0; S != NumStages; ++S)
      PerPass[S].push_back(Sp.S[S]);
    PassBytes.push_back(double(Bytes));
  }
  double Stage[NumStages];
  for (int S = 0; S != NumStages; ++S)
    Stage[S] = calm(PerPass[S]) / N;
  const double UntracedS = Untraced.secondsPerFunction();
  if (UntracedS <= 0)
    R.problem("the untraced pipeline timing did not run");

  // The pipeline as one call: wall time, Stats deltas and allocations of
  // the second pass.
  std::map<std::string, uint64_t> S0, S1;
  uint64_t Allocs = 0, A0 = 0;
  const PipelinePasses Pipe =
      timePipeline(Fns, Spec, Phase, [&](bool After) {
        if (!After) {
          S0 = Stats::all();
          A0 = alloccount::allocations();
          return;
        }
        Allocs = alloccount::allocations() - A0;
        S1 = Stats::all();
      });
  R.Attempted += Fns.size() * Pipe.PassS.size();
  if (!Pipe.Ok) {
    ++R.Failed;
    R.problem("pipeline replay failed");
  }
  const double PipelineS = calm(Pipe.PassS) / N;
  // The staged replay's share that Pipeline::run also does, against the
  // untraced binary's Pipeline::run over the same sample.
  const double StagedS = Stage[Verify] + Stage[Lcse] + Stage[Edges] +
                         Stage[Local] + Stage[Recompute] + Stage[Placement] +
                         Stage[Rewrite] + Stage[Cleanup];

  // The interpreter as the validator uses it: three seeded runs of input
  // and output.
  std::vector<double> InterpPass;
  uint64_t Instrs = 0;
  std::vector<std::pair<Function, Function>> Pairs;
  for (const std::string &T : Fns)
    Pairs.emplace_back(parseFunction(T).Fn,
                       parseFunction(optimizeText(T, Spec)).Fn);
  T0 = Clock::now();
  for (unsigned Pass = 0; Pass < 3 || secondsSince(T0) < Phase / 2; ++Pass) {
    const Clock::time_point A = Clock::now();
    uint64_t I = 0;
    for (const auto &[In, Out] : Pairs)
      for (uint64_t Seed = 1; Seed <= 3; ++Seed) {
        RandomOracle OA(Seed), OB(Seed);
        Interpreter::Options Opts;
        Opts.MaxOriginalBlockVisits = 3000;
        Opts.OriginalBlockCount = uint32_t(In.numBlocks());
        std::vector<int64_t> Vars(In.numVars(), 1);
        I += Interpreter::run(In, Vars, OA, Opts).InstrsExecuted;
        std::vector<int64_t> OutVars(Out.numVars(), 1);
        I += Interpreter::run(Out, OutVars, OB, Opts).InstrsExecuted;
      }
    InterpPass.push_back(secondsSince(A));
    Instrs = I;
  }

  // The serving layers, on the serving mixes only: batch-large sends no
  // request, so its cache, server and JSON figures stay 0.
  std::vector<double> HandleMs, DecodeS, EncodeS;
  uint64_t SvcAllocs = 0, SvcOps = 0;
  std::map<std::string, double> Metrics;
  uint64_t Sent = 0, ReqBytes = 0, RespBytes = 0, Stalls = 0;
  std::vector<double> Lat;
  double CpuS = 0;
  if (!Batch) {
    //===--- The request stream through an in-process Service -------------===
    server::ServiceConfig SC;
    SC.Cache =
        std::make_shared<cache::ResultCache>(cache::ResultCacheConfig());
    SC.Retained = std::make_shared<cache::RetainedIrCache>(size_t(32) << 20);
    server::Service Svc(SC);
    std::unique_ptr<Mix> Replay = makeMix(O.Workload, O.Seed);
    std::map<std::string, std::string> F;
    std::string Why, Dumped;
    T0 = Clock::now();
    for (uint64_t K = 0; K < 2 || secondsSince(T0) < Phase; ++K)
      for (unsigned C = 0; C != ServeConnections; ++C) {
        const std::string Payload = Replay->request(C, K);
        Clock::time_point A = Clock::now();
        json::ParseResult Doc = json::parse(Payload);
        DecodeS.push_back(secondsSince(A));
        const uint64_t A0 = alloccount::allocations();
        A = Clock::now();
        json::Value Resp = Svc.handle(Payload);
        HandleMs.push_back(secondsSince(A) * 1e3);
        if (K >= Replay->warmupPerConn()) {
          SvcAllocs += alloccount::allocations() - A0;
          ++SvcOps;
        }
        A = Clock::now();
        Dumped.clear();
        Resp.dumpTo(Dumped, 0);
        EncodeS.push_back(secondsSince(A));
        ++R.Attempted;
        if (!Doc.Ok || !parseTop(Dumped, F) ||
            !Replay->response(C, K, F, Why)) {
          ++R.Failed;
          R.problem("in-process Service: " + Why);
        }
      }
    R.Failed += Replay->check({}, R);

    //===--- The daemon, for its own counters -----------------------------===
    std::unique_ptr<Mix> Live = makeMix(O.Workload, O.Seed);
    Daemon D;
    std::string Error;
    const std::string Socket =
        O.RunDir + "/lcmbench-" + std::to_string(::getpid()) + ".sock";
    std::vector<ConnLog> Logs;
    if (!D.start(O.ServeBin, Socket, Error) ||
        !driveMix(*Live, Socket, Phase, Logs, Error)) {
      R.problem(Error);
      ++R.Failed;
    } else if (!D.scrape(Metrics)) {
      R.problem("/metrics scrape failed");
    }
    if (!D.stop())
      R.problem("lcm_serve did not drain and exit 0");
    CpuS = D.cpuSeconds();
    std::vector<double> Done;
    for (const ConnLog &L : Logs) {
      Sent += L.Sent;
      R.Failed += L.Failed;
      if (!L.FirstProblem.empty())
        R.problem(L.FirstProblem);
      ReqBytes += L.RequestBytes;
      RespBytes += L.ResponseBytes;
      Lat.insert(Lat.end(), L.LatencyMs.begin(), L.LatencyMs.end());
      Done.insert(Done.end(), L.DoneAt.begin(), L.DoneAt.end());
    }
    R.Attempted += Sent;
    R.Failed += Live->check(Metrics, R);
    Stalls = slowerThan(Lat, fastWindows(Done, Lat, 1000).P50Ms);
  }
  const double Timed = double(Lat.size());
  double LatSum = 0;
  for (double V : Lat)
    LatSum += V;
  const double Count = metricOr0(Metrics, "lcm_request_duration_seconds_count");
  const double ServiceMs =
      Count > 0
          ? metricOr0(Metrics, "lcm_request_duration_seconds_sum") / Count * 1e3
          : 0;
  const double Hits = metricOr0(Metrics, "cache.mem.hits");
  const double Misses = metricOr0(Metrics, "cache.mem.misses");

  //===--- Report ----------------------------------------------------------===
  const double ParsePass = calm(PerPass[Parse]);
  R.metric("ir.parse_s", Stage[Parse], "s");
  R.metric("ir.parse_mbps",
           ParsePass > 0 ? PassBytes[0] / ParsePass / 1e6 : 0, "MB/s");
  R.metric("ir.verify_s", Stage[Verify], "s");
  R.metric("ir.print_s", Stage[Print], "s");
  R.metric("graph.edges_s", Stage[Edges], "s");
  R.metric("analysis.local_s", Stage[Local], "s");
  R.metric("analysis.avail_s", Stage[Avail], "s");
  R.metric("analysis.antic_s", Stage[Antic], "s");
  R.metric("core.lcse_s", Stage[Lcse], "s");
  // LazyCodeMotion::recompute runs both solves, then EARLIEST and LATER.
  R.metric("core.earliest_later_s",
           std::max(0.0, Stage[Recompute] - Stage[Avail] - Stage[Antic]), "s");
  R.metric("core.placement_s", Stage[Placement], "s");
  R.metric("core.rewrite_s", Stage[Rewrite], "s");
  R.metric("baseline.cleanup_s", Stage[Cleanup], "s");
  R.metric("driver.pipeline_s", PipelineS, "s");
  R.metric("driver.stalls",
           double(slowerThan(Pipe.PassS, quantile(Pipe.PassS, 0.5))),
           "count");
  R.metric("trace.overhead_ratio", UntracedS > 0 ? StagedS / UntracedS : 0,
           "ratio");
  R.metric("dataflow.solves", double(stat(S0, S1, "dataflow.solves")), "count");
  R.metric("dataflow.node_visits", double(stat(S0, S1, "dataflow.node_visits")),
           "count");
  R.metric("dataflow.word_ops", double(stat(S0, S1, "dataflow.word_ops")),
           "count");
  R.metric("dataflow.word_ops_simd",
           double(stat(S0, S1, "dataflow.word_ops_simd")), "count");
  R.metric("core.later_passes", double(stat(S0, S1, "lcm.later.passes")),
           "count");
  R.metric("cache.key_s", Stage[Key], "s");
  R.metric("cache.hit_ratio", Hits + Misses > 0 ? Hits / (Hits + Misses) : 0,
           "ratio");
  R.metric("cache.insertions", metricOr0(Metrics, "cache.mem.insertions"),
           "count");
  R.metric("cache.evictions", metricOr0(Metrics, "cache.mem.evictions"),
           "count");
  R.metric("cache.coalesced",
           metricOr0(Metrics, "cache.singleflight.coalesced"), "count");
  R.metric("cache.retained_insertions",
           metricOr0(Metrics, "cache.retained.insertions"), "count");
  R.metric("cache.pipeline_runs", metricOr0(Metrics, "server.pipeline_runs"),
           "count");
  R.metric("server.handle_ms", calm(HandleMs), "ms");
  R.metric("server.service_ms", ServiceMs, "ms");
  R.metric("server.outside_ms", Timed > 0 ? LatSum / Timed - ServiceMs : 0,
           "ms");
  R.metric("server.cpu_ms_per_req", Sent ? CpuS * 1e3 / double(Sent) : 0,
           "ms");
  R.metric("server.request_bytes", Timed > 0 ? double(ReqBytes) / Timed : 0,
           "bytes");
  R.metric("server.response_bytes", Timed > 0 ? double(RespBytes) / Timed : 0,
           "bytes");
  R.metric("server.stalls", double(Stalls), "count");
  R.metric("support.json_decode_s", calm(DecodeS), "s");
  R.metric("support.json_encode_s", calm(EncodeS), "s");
  R.metric("interp.run_s", calm(InterpPass) / N, "s");
  R.metric("interp.instrs", double(Instrs) / N, "count");
  R.metric("interp.validations", metricOr0(Metrics, "lcm_validations_total"),
           "count");
  // Steady-state allocations per operation: per function through the
  // pipeline for the batch, per request through Service::handle otherwise.
  R.metric("support.allocs_per_op",
           Batch ? double(Allocs) / N
                 : (SvcOps ? double(SvcAllocs) / double(SvcOps) : 0),
           "count");
}

} // namespace lcmbench
