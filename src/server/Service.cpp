//===- server/Service.cpp --------------------------------------------------===//

#include "server/Service.h"

#include <chrono>
#include <thread>

#include "driver/Pipeline.h"
#include "interp/Interpreter.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "metrics/Cost.h"
#include "metrics/RunReport.h"
#include "specpre/EdgeProfile.h"
#include "support/Cancel.h"
#include "support/SimdWords.h"
#include "support/Stats.h"
#include "support/Trace.h"

using namespace lcm;
using namespace lcm::server;
using json::Value;

namespace {

using Clock = std::chrono::steady_clock;

Value finish(Value Response) {
  const Value *S = Response.find("status");
  Stats::bump("server.response." +
              (S && S->isString() ? S->asString() : std::string("unknown")));
  return Response;
}

/// The property-test execution idiom: inputs and oracle depend only on the
/// seed and the original shape, so original/optimized runs are
/// path-aligned.
InterpResult runSeeded(const Function &Fn, uint64_t Seed,
                       size_t NumInputVars, uint32_t OriginalBlockCount) {
  RandomOracle Oracle(Seed ^ 0x94d049bb133111ebULL);
  Interpreter::Options Opts;
  Opts.MaxOriginalBlockVisits = 3000;
  Opts.OriginalBlockCount = OriginalBlockCount;
  return Interpreter::run(Fn, makeSeededInputs(Seed, NumInputVars), Oracle,
                          Opts);
}

/// The per-request translation validation behind the v2 `validate` flag:
/// re-execute the original program and the *response text* (reparsed, so a
/// cached entry is validated as the bytes that will actually be served)
/// under identically seeded oracles, aligning variables by name because
/// reparsing renumbers VarIds around new PRE temporaries, and memory address
/// by address.  Returns false — and the request answers `validation_failed`
/// — on any observable divergence.
bool validateServedIr(const Function &Original, const Function &Served,
                      unsigned Runs, std::string &Why) {
  for (uint64_t Seed = 1; Seed <= Runs; ++Seed) {
    std::vector<int64_t> Inputs = makeSeededInputs(Seed, Original.numVars());
    std::vector<int64_t> ServedInputs(Served.numVars(), 0);
    for (VarId V = 0; V != VarId(Original.numVars()); ++V) {
      VarId W = Served.findVar(Original.varName(V));
      if (W != InvalidVar)
        ServedInputs[W] = Inputs[V];
    }
    Interpreter::Options Opts;
    Opts.MaxOriginalBlockVisits = 3000;
    Opts.OriginalBlockCount = uint32_t(Original.numBlocks());
    RandomOracle OracleA(Seed ^ 0x94d049bb133111ebULL);
    RandomOracle OracleB(Seed ^ 0x94d049bb133111ebULL);
    InterpResult Base = Interpreter::run(Original, Inputs, OracleA, Opts);
    InterpResult After = Interpreter::run(Served, ServedInputs, OracleB, Opts);
    if (Base.ReachedExit != After.ReachedExit ||
        Base.OriginalBlocksExecuted != After.OriginalBlocksExecuted) {
      Why = "runs stopped at different points under seed " +
            std::to_string(Seed);
      return false;
    }
    for (VarId V = 0; V != VarId(Original.numVars()); ++V) {
      VarId W = Served.findVar(Original.varName(V));
      if (W == InvalidVar || Base.Vars[V] != After.Vars[W]) {
        Why = "variable '" + Original.varName(V) + "' diverged under seed " +
              std::to_string(Seed);
        return false;
      }
    }
    if (std::optional<int64_t> Addr = firstMemoryDifference(Base, After)) {
      Why = "memory at address " + std::to_string(*Addr) +
            " diverged under seed " + std::to_string(Seed);
      return false;
    }
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Modules and deltas (docs/INCREMENTAL.md)
//===----------------------------------------------------------------------===//

/// A `func` header line (canonical text puts it at column 0, but leading
/// whitespace is tolerated like the parser does).
bool isFuncHeaderLine(std::string_view Line) {
  const size_t I = Line.find_first_not_of(" \t");
  if (I == std::string_view::npos)
    return false;
  const std::string_view Rest = Line.substr(I);
  return Rest.size() > 4 && Rest.substr(0, 4) == "func" &&
         (Rest[4] == ' ' || Rest[4] == '\t');
}

/// A `block LABEL` header line; extracts the label when \p LabelOut is set.
bool isBlockHeaderLine(std::string_view Line, std::string_view *LabelOut) {
  const size_t I = Line.find_first_not_of(" \t");
  if (I == std::string_view::npos)
    return false;
  const std::string_view Rest = Line.substr(I);
  if (Rest.size() < 6 || Rest.substr(0, 5) != "block" ||
      (Rest[5] != ' ' && Rest[5] != '\t'))
    return false;
  if (LabelOut) {
    std::string_view L = Rest.substr(6);
    const size_t B = L.find_first_not_of(" \t");
    if (B == std::string_view::npos)
      return false;
    const size_t E = L.find_first_of(" \t\r", B);
    *LabelOut = L.substr(B, E == std::string_view::npos ? E : E - B);
  }
  return true;
}

/// Splits module text into per-function chunks at `func` header lines.
/// Text with zero or one header is a single chunk (the existing
/// single-function request shape).
void splitModuleInto(std::string_view Text,
                     std::vector<std::string_view> &Out) {
  Out.clear();
  size_t ChunkStart = 0;
  bool SeenHeader = false;
  size_t Pos = 0;
  while (Pos < Text.size()) {
    const size_t Nl = Text.find('\n', Pos);
    const size_t LineEnd = Nl == std::string_view::npos ? Text.size() : Nl;
    if (isFuncHeaderLine(Text.substr(Pos, LineEnd - Pos))) {
      if (SeenHeader) {
        Out.push_back(Text.substr(ChunkStart, Pos - ChunkStart));
        ChunkStart = Pos;
      }
      SeenHeader = true;
    }
    Pos = Nl == std::string_view::npos ? Text.size() : Nl + 1;
  }
  Out.push_back(Text.substr(ChunkStart));
}

/// Locates block \p Label's span [\p Begin, \p End) in canonical function
/// text: its header line through the line before the next block header.
bool findBlockSpan(std::string_view Text, std::string_view Label,
                   size_t &Begin, size_t &End) {
  size_t Pos = 0;
  bool In = false;
  Begin = End = 0;
  while (Pos < Text.size()) {
    const size_t Nl = Text.find('\n', Pos);
    const size_t LineEnd = Nl == std::string_view::npos ? Text.size() : Nl;
    std::string_view L;
    if (isBlockHeaderLine(Text.substr(Pos, LineEnd - Pos), &L)) {
      if (In) {
        End = Pos;
        return true;
      }
      if (L == Label) {
        In = true;
        Begin = Pos;
      }
    }
    Pos = Nl == std::string_view::npos ? Text.size() : Nl + 1;
  }
  End = Text.size();
  return In;
}

enum class DeltaFail { None, Miss, Malformed };

/// Materializes a delta request's effective input: fetches the retained
/// base module and applies the block-level patch in order, marking patched
/// functions dirty.  Structural problems (unknown label/function,
/// ambiguous scope) report Malformed; an unavailable base reports Miss.
DeltaFail resolveDelta(const ServiceConfig &Config, const Request &R,
                       const cache::Digest &FPD, cache::RetainedModule &Base,
                       std::vector<uint8_t> &DirtyFn, std::string &Why) {
  cache::Digest Key;
  if (!cache::Digest::fromHex(R.BaseKey, Key)) {
    Why = "malformed base_key";
    return DeltaFail::Malformed;
  }
  if (!Config.Cache || !Config.Retained) {
    Why = "delta serving disabled (no retained tier)";
    return DeltaFail::Miss;
  }
  if (!Config.Retained->get(Key, Base)) {
    Why = "base key not retained";
    return DeltaFail::Miss;
  }
  if (!(Base.Fp == FPD)) {
    // The retained per-function keys embed the base's fingerprint; a delta
    // under a different pipeline/check configuration cannot reuse them.
    Why = "base was optimized under a different configuration";
    return DeltaFail::Miss;
  }
  DirtyFn.assign(Base.Functions.size(), 0);
  for (const PatchOp &Op : R.Patch) {
    size_t FnIdx = size_t(-1);
    if (!Op.Func.empty()) {
      for (size_t I = 0; I != Base.Functions.size(); ++I)
        if (Base.Functions[I].Name == Op.Func) {
          FnIdx = I;
          break;
        }
      if (FnIdx == size_t(-1)) {
        Why = "patch names unknown function '" + Op.Func + "'";
        return DeltaFail::Malformed;
      }
    } else if (Base.Functions.size() == 1) {
      FnIdx = 0;
    } else {
      Why = "patch op needs 'func' on a multi-function base";
      return DeltaFail::Malformed;
    }
    std::string &Text = Base.Functions[FnIdx].Text;
    std::string Block = Op.Ir;
    if (!Block.empty() && Block.back() != '\n')
      Block += '\n';
    size_t B = 0, E = 0;
    switch (Op.K) {
    case PatchOp::Kind::ReplaceBlock:
      if (Block.empty()) {
        Why = "replace_block: empty 'ir'";
        return DeltaFail::Malformed;
      }
      if (Op.Label.empty() || !findBlockSpan(Text, Op.Label, B, E)) {
        Why = "replace_block: label '" + Op.Label + "' not found";
        return DeltaFail::Malformed;
      }
      Text.replace(B, E - B, Block);
      break;
    case PatchOp::Kind::RemoveBlock:
      if (Op.Label.empty() || !findBlockSpan(Text, Op.Label, B, E)) {
        Why = "remove_block: label '" + Op.Label + "' not found";
        return DeltaFail::Malformed;
      }
      Text.erase(B, E - B);
      break;
    case PatchOp::Kind::InsertBlock: {
      if (Block.empty()) {
        Why = "insert_block: empty 'ir'";
        return DeltaFail::Malformed;
      }
      size_t At = 0;
      if (Op.After.empty()) {
        // Head of the function body: right after the `func` header line.
        const size_t Nl = Text.find('\n');
        if (Nl != std::string::npos &&
            isFuncHeaderLine(std::string_view(Text).substr(0, Nl)))
          At = Nl + 1;
      } else {
        if (!findBlockSpan(Text, Op.After, B, E)) {
          Why = "insert_block: label '" + Op.After + "' not found";
          return DeltaFail::Malformed;
        }
        At = E;
      }
      Text.insert(At, Block);
      break;
    }
    }
    DirtyFn[FnIdx] = 1;
  }
  return DeltaFail::None;
}

/// One function a request serves, in answer order.
struct ServedFn {
  /// Its input text: a function of the request's `ir`, or of a delta's
  /// patched base.
  std::string_view Text;
  /// The retained key of a delta function the patch left untouched.
  const cache::Digest *Known = nullptr;
  /// The name it answers under: its parse's, or its base record's.
  const std::string *Name = nullptr;
  cache::Digest Key;
  bool Cached = false;
  cache::CacheEntry E;
};

/// Prefixes an error about function \p I of an \p N-function request with
/// its index and name, so a module's client can tell which one failed.
std::string fnError(size_t I, size_t N, const std::string *Name,
                    const std::string &Why) {
  if (N < 2)
    return Why;
  std::string Where = "function " + std::to_string(I);
  if (Name)
    Where += " ('" + *Name + "')";
  return Where + ": " + Why;
}

} // namespace

Value Service::handle(const std::string &Payload) const {
  return handleImpl(Payload, nullptr);
}

Value Service::handle(const std::string &Payload,
                      PendingValidation &Deferred) const {
  Deferred.Active = false;
  return handleImpl(Payload, &Deferred);
}

Value Service::finishValidation(PendingValidation &&P) const {
  // Validate the serving path end to end: the reply IR is split and
  // reparsed exactly as a client would see it, and each function is
  // compared against its original under seeded oracles.  A divergence
  // refuses to serve the IR — the checker, not the optimizer, is the
  // trusted component (Monniaux & Six).
  Trace::Scope T("server.request", "validate");
  Stats::bump("server.validations");
  thread_local std::vector<std::string_view> Served;
  splitModuleInto(P.ServedIr, Served);
  const size_t N = P.Originals.size();
  std::string Why;
  bool ValidOk = Served.size() == N;
  if (!ValidOk)
    Why = "served IR does not hold " + std::to_string(N) + " functions";
  for (size_t I = 0; ValidOk && I != N; ++I) {
    ParseResult S = parseFunction(Served[I], Config.Limits);
    ValidOk = S ? validateServedIr(P.Originals[I], S.Fn, P.Runs, Why)
                : (Why = "served IR unparsable: " + S.Error, false);
    if (!ValidOk)
      Why = fnError(I, N, &P.Originals[I].name(), Why);
  }
  if (!ValidOk) {
    Stats::bump("server.validation_mismatches");
    T.note("status", "validation_failed");
    return finish(makeErrorResponse(P.Id, Status::ValidationFailed, Why));
  }
  T.note("status", "ok");
  return finish(std::move(P.Response));
}

Value Service::handleImpl(const std::string &Payload,
                          PendingValidation *Deferred) const {
  Stats::bump("server.requests");
  const auto Start = Clock::now();

  RequestParse Parsed = parseRequest(Payload);
  if (!Parsed)
    return finish(
        makeErrorResponse(Parsed.Id, Status::BadRequest, Parsed.Error));
  const Request &R = Parsed.R;

  Trace::Scope T("server.request", "handle",
                 "bytes=" + std::to_string(Payload.size()));
  auto Fail = [&](Status S, const std::string &Why) {
    T.note("status", statusName(S));
    return finish(makeErrorResponse(R.Id, S, Why));
  };

  // Arm the deadline before any work so parse/verify time counts too.
  CancelToken Deadline;
  int64_t DeadlineMs = R.DeadlineMs >= 0 ? R.DeadlineMs
                                         : Config.DefaultDeadlineMs;
  if (DeadlineMs >= 0 && Config.MaxDeadlineMs > 0)
    DeadlineMs = std::min(DeadlineMs, Config.MaxDeadlineMs);
  if (DeadlineMs >= 0)
    Deadline.setTimeoutMs(DeadlineMs);
  const CancelToken *Cancel = DeadlineMs >= 0 ? &Deadline : nullptr;

  // A plain request is one function.  A module request is several, split
  // at their `func` headers, and a delta patches a retained module
  // (docs/INCREMENTAL.md); both answer with a `functions` array under a
  // module key.
  thread_local std::vector<std::string_view> Chunks;
  splitModuleInto(R.Ir, Chunks);
  const bool IsDelta = !R.BaseKey.empty();
  const bool Module = IsDelta || Chunks.size() > 1;
  if (Module) {
    Stats::bump(IsDelta ? "server.delta_requests" : "server.module_requests");
    if (R.WantReport || !R.Profile.isNull())
      return Fail(Status::BadRequest,
                  std::string(R.WantReport ? "'report'" : "'profile'") +
                      " is not supported for module/delta requests");
  }

  PipelineParse Spec = parsePipeline(R.Pipeline);
  if (!Spec)
    return Fail(Status::BadRequest, Spec.Error);

  // v3: decode the edge profile up front so malformed contents answer a
  // diagnostic instead of silently serving an unprofiled result.
  specpre::EdgeProfile Profile;
  const bool HasProfile = !R.Profile.isNull();
  if (HasProfile) {
    specpre::ProfileParse PP = specpre::parseProfile(R.Profile);
    if (!PP)
      return Fail(Status::BadRequest, "field 'profile': " + PP.Error);
    Profile = std::move(PP.P);
    Stats::bump("server.profiled_requests");
  }

  // The key covers the *canonical* forms: the printed (parsed) IR and the
  // parsed pipeline's step names, so formatting variants of the same
  // request share an entry, while any config bit that can change the
  // output keeps entries apart.
  cache::PipelineFingerprint FP;
  for (size_t I = 0, N = Spec.P.size(); I != N; ++I) {
    if (I)
      FP.Pipeline += ',';
    FP.Pipeline += Spec.P.stepName(I);
  }
  FP.Limits = Config.Limits;
  FP.Check = R.Check;
  FP.CheckRuns = R.Check ? Config.CheckRuns : 0;
  FP.Report = R.WantReport;
  if (HasProfile)
    FP.ProfileKey = Profile.canonicalKey();
  const cache::Digest FPD = FP.digest();

  // The functions to serve: the request's own, or a delta's patched base.
  std::vector<ServedFn> Fns;
  cache::RetainedModule Base;
  std::string DeltaReason;
  bool Applied = false;
  if (IsDelta) {
    std::vector<uint8_t> DirtyFn;
    const DeltaFail F =
        resolveDelta(Config, R, FPD, Base, DirtyFn, DeltaReason);
    if (F == DeltaFail::None) {
      Applied = true;
      Stats::bump("server.delta_applied");
      Fns.resize(Base.Functions.size());
      for (size_t I = 0; I != Fns.size(); ++I) {
        Fns[I].Text = Base.Functions[I].Text;
        Fns[I].Known = DirtyFn[I] ? nullptr : &Base.Functions[I].Key;
        Fns[I].Name = &Base.Functions[I].Name;
      }
    } else if (!R.Ir.empty()) {
      // The request carried its full text: optimize that instead, and say
      // so — the client learns its base is gone and re-anchors.
      Stats::bump("server.delta_fallbacks");
    } else {
      return Fail(F == DeltaFail::Miss ? Status::BaseMiss
                                       : Status::BadRequest,
                  DeltaReason);
    }
  }
  if (!Applied) {
    Fns.resize(Chunks.size());
    for (size_t I = 0; I != Fns.size(); ++I)
      Fns[I].Text = Chunks[I];
  }
  const size_t N = Fns.size();

  // Parse, verify and key every function before any pipeline runs.  Each
  // parse is per-worker storage that reaches a high-water capacity and is
  // recycled, so steady-state parses allocate nothing; only the last
  // request's function count is kept.
  thread_local ParserScratch Scratch;
  thread_local std::vector<ParseResult> Ir;
  Ir.resize(N);
  for (size_t I = 0; I != N; ++I) {
    ServedFn &F = Fns[I];
    // An untouched function of an applied delta is answered by its retained
    // key alone — no parse, no hash, no pipeline — which is where the
    // edit-loop speedup comes from (bench/perf_editloop.cpp).  A validating
    // request still parses it as the check's baseline.
    if (F.Known && Config.Cache->get(*F.Known, F.E)) {
      F.Key = *F.Known;
      F.Cached = true;
      Stats::bump("server.delta_fn_reused");
      if (!R.Validate)
        continue;
    }
    ParseResult &P = Ir[I];
    parseFunctionInto(F.Text, Config.Limits, Scratch, P);
    if (!P)
      return Fail(P.OverLimit ? Status::Limits : Status::ParseError,
                  fnError(I, N, nullptr, P.Error));
    std::vector<std::string> Errors = verifyFunction(P.Fn);
    if (!Errors.empty())
      return Fail(Status::VerifyError,
                  fnError(I, N, &P.Fn.name(), Errors.front()));
    F.Name = &P.Fn.name();
    // Streaming form: the canonical IR is printed directly into the
    // incremental hasher, never materialized as a string.  A cacheless
    // plain answer carries no key.
    if (!F.Cached && (Config.Cache || Module))
      F.Key = F.Known ? *F.Known : cache::requestKey(P.Fn, FP);
  }

  // A plain answer is keyed by its function.  A module answer's key
  // digests the function keys under this fingerprint: it is what the
  // client's next delta names as its base.
  cache::Digest Key = Fns[0].Key;
  if (Module) {
    cache::Hasher H;
    H.update("lcm-module-v1");
    H.updateU64(FPD.Hi).updateU64(FPD.Lo);
    for (const ServedFn &F : Fns)
      H.updateU64(F.Key.Hi).updateU64(F.Key.Lo);
    Key = H.digest();
  }

  // Retain the canonical input so a later delta can name this answer as
  // its base.  The record is printed before the pipeline mutates the
  // parses, and only when the tier does not hold the key yet.  Texts are
  // printed into a reused buffer and copied out at their exact size: the
  // tier's budget counts text sizes, and the printer over-reserves.
  cache::RetainedModule Record;
  const bool Retain = Config.Cache && Config.Retained &&
                      !Config.Retained->touch(Key);
  if (Retain) {
    thread_local std::string Canon;
    Record.Fp = FPD;
    Record.Functions.reserve(N);
    for (size_t I = 0; I != N; ++I) {
      std::string_view Text = Fns[I].Text;
      if (!Fns[I].Known) {
        Canon.clear();
        printFunction(Ir[I].Fn, Canon);
        Text = Canon;
      }
      Record.Functions.push_back(
          {*Fns[I].Name, std::string(Text), Fns[I].Key});
    }
  }

  // Per-request translation validation re-executes the originals against
  // the served bytes *after* the cache lookup, so keep pristine copies
  // before the pipeline (or a coalesced leader) can mutate the parses.
  std::vector<Function> Originals;
  if (R.Validate) {
    Originals.reserve(N);
    for (size_t I = 0; I != N; ++I)
      Originals.push_back(Ir[I].Fn);
  }

  for (size_t I = 0; I != N; ++I) {
    ServedFn &F = Fns[I];
    if (F.Cached)
      continue;
    Function &Fn = Ir[I].Fn;
    // Everything the pipeline produces, packaged so the result cache can
    // store it and coalesced followers can share it.  Runs at most once per
    // function (as the single-flight leader, or directly when caching is
    // off).
    auto Compute = [&]() -> cache::SingleFlight::Result {
      // Test-only latency injection lives *inside* the computation so the
      // coalescing tests can hold a leader mid-flight deterministically.
      if (Config.EnableTestOptions && R.TestSleepMs > 0)
        std::this_thread::sleep_for(
            std::chrono::milliseconds(R.TestSleepMs));
      Stats::bump("server.pipeline_runs");

      // Activate the request's profile for the `specpre` pass.  Scoped
      // here — not around the cache lookup — because under single-flight
      // the leader runs Compute on its own thread; the thread-local must be
      // set where the pipeline actually executes.
      specpre::ProfileContext::Scope ProfileScope(HasProfile ? &Profile
                                                             : nullptr);

      // Keep the pre-optimization program for the semantic check.
      Function Original = R.Check ? Fn : Function();

      RunReport Report;
      Pipeline::RunResult Run;
      if (R.WantReport) {
        Report = collectRunReport(Spec.P, Fn, "lcm_server", R.Pipeline,
                                  Cancel);
        Run.Ok = Report.Ok;
        Run.Cancelled = Report.Cancelled;
        Run.Error = Report.Error;
        for (const PassRecord &P : Report.Passes)
          Run.Steps.push_back({P.Name, P.Changes, P.Seconds, P.WordOps, {}});
      } else {
        Run = Spec.P.run(Fn, Cancel);
      }
      if (Run.Cancelled)
        return cache::SingleFlight::Result::cancelled(Run.Error);
      if (!Run.Ok)
        return cache::SingleFlight::Result::error(Run.Error,
                                                  int(Status::PipelineError));

      // The check runs execute the original anyway, so their traversal
      // counts are a free *measured* edge profile of the function —
      // served back as `profile_out` for the client to feed into a later
      // profiled (specpre) request.
      specpre::EdgeProfile Measured;
      if (R.Check) {
        for (uint64_t Seed = 1; Seed <= Config.CheckRuns; ++Seed) {
          InterpResult BaseRun = runSeeded(Original, Seed, Original.numVars(),
                                           uint32_t(Original.numBlocks()));
          InterpResult After = runSeeded(Fn, Seed, Original.numVars(),
                                         uint32_t(Original.numBlocks()));
          if (!sameObservableBehaviour(BaseRun, After, Original.numVars()))
            return cache::SingleFlight::Result::error(
                "optimized program diverges from input under seed " +
                    std::to_string(Seed),
                int(Status::CheckFailed));
          specpre::accumulateTraversals(Original, BaseRun.SuccTraversals,
                                        Measured);
        }
      }

      cache::CacheEntry E;
      printFunction(Fn, E.Ir);
      for (const Pipeline::StepResult &S : Run.Steps)
        E.Changes += S.Changes;
      E.Checked = R.Check;
      E.CheckRuns = R.Check ? Config.CheckRuns : 0;
      if (R.Check && !Measured.empty())
        E.ProfileJson = specpre::profileToJson(Measured).dump(0);
      if (R.WantReport)
        E.ReportJson = Report.toJson().dump(0);
      return cache::SingleFlight::Result::value(std::move(E));
    };

    cache::ResultCache::Lookup L;
    if (Config.Cache) {
      L = Config.Cache->getOrCompute(F.Key, Cancel, Compute);
    } else {
      L.Src = cache::ResultCache::Source::Computed;
      L.R = Compute();
    }
    using RK = cache::SingleFlight::Result::Kind;
    if (L.R.K == RK::Cancelled)
      return Fail(Status::DeadlineExceeded, L.R.Error);
    if (L.R.K == RK::Error)
      return Fail(L.R.Code != 0 ? Status(L.R.Code) : Status::PipelineError,
                  fnError(I, N, F.Name, L.R.Error));
    F.Cached = L.cached();
    F.E = std::move(L.R.Entry);
  }
  if (Module)
    Stats::bump("server.module_functions", N);
  if (Retain)
    Config.Retained->put(Key, std::move(Record));

  bool AllCached = true;
  uint64_t Changes = 0;
  std::string IrOut;
  Value Functions = Value::array();
  for (const ServedFn &F : Fns) {
    AllCached &= F.Cached;
    Changes += F.E.Changes;
    IrOut += F.E.Ir;
    if (!IrOut.empty() && IrOut.back() != '\n')
      IrOut += '\n';
    if (Module) {
      Value FV = Value::object();
      FV.set("name", Value::str(*F.Name));
      FV.set("cache_key", Value::str(F.Key.hex()));
      FV.set("cached", Value::boolean(F.Cached));
      Functions.push(std::move(FV));
    }
  }
  Value Response = makeResponse(R.Id, Status::Ok);
  Response.set("ir", Value::str(std::move(IrOut)));
  Response.set("pipeline", Value::str(R.Pipeline));
  Response.set("changes", Value::number(Changes));
  Response.set(
      "seconds",
      Value::number(std::chrono::duration<double>(Clock::now() - Start)
                        .count()));
  if (R.Check) {
    Response.set("checked", Value::boolean(true));
    Response.set("check_runs", Value::number(uint64_t(Config.CheckRuns)));
    if (!Module && !Fns[0].E.ProfileJson.empty()) {
      // Measured profile of the original program (lcm-profile-v1), ready
      // to be sent back verbatim as a future request's `profile` field.
      json::ParseResult PP = json::parse(Fns[0].E.ProfileJson);
      if (PP.Ok)
        Response.set("profile_out", std::move(PP.V));
    }
  }
  if (R.Validate)
    Response.set("validated", Value::boolean(true));
  if (R.WantReport && !Fns[0].E.ReportJson.empty()) {
    // Cached hits replay the leader's report verbatim (its timings
    // describe the run that actually happened).
    json::ParseResult PR = json::parse(Fns[0].E.ReportJson);
    if (PR.Ok)
      Response.set("report", std::move(PR.V));
  }
  if (Module)
    Response.set("functions", std::move(Functions));
  if (Config.Cache) {
    Response.set("cached", Value::boolean(AllCached));
    Response.set("cache_key", Value::str(Key.hex()));
  }
  if (IsDelta) {
    Response.set("delta", Value::str(Applied ? "applied" : "fallback"));
    if (!Applied && !DeltaReason.empty())
      Response.set("delta_reason", Value::str(DeltaReason));
  }
  if (R.ServerInfo) {
    // Identify what served the request so clients (lcm_loadgen) can label
    // their artifacts with the kernel backend that produced the numbers.
    Value Srv = Value::object();
    Srv.set("kernel_backend", Value::str(simdwords::backendName()));
    if (Config.ReportWorkers > 0)
      Srv.set("workers", Value::number(uint64_t(Config.ReportWorkers)));
    Srv.set("hardware_threads",
            Value::number(uint64_t(std::thread::hardware_concurrency())));
    // Placement strategy actually in effect: "speculative" only when the
    // pipeline runs specpre *and* a profile arrived to drive it — specpre
    // without a profile is classic LCM by construction (docs/SPECPRE.md).
    bool RunsSpecPre = false;
    for (size_t I = 0; I != Spec.P.size(); ++I)
      RunsSpecPre |= Spec.P.stepName(I) == "specpre";
    Srv.set("placement_strategy", Value::str(RunsSpecPre && HasProfile
                                                 ? "speculative"
                                                 : "classic"));
    if (!R.ProfileMode.empty())
      Srv.set("profile_mode", Value::str(R.ProfileMode));
    Response.set("server", std::move(Srv));
  }
  T.note("status", "ok");
  T.note("changes", Changes);
  if (Config.Cache)
    T.note("cached", AllCached ? "true" : "false");

  if (R.Validate) {
    // The response is fully assembled but not yet trustworthy: package the
    // equivalence check and either run it here (single-threaded callers)
    // or hand it to the caller's validator pool.
    PendingValidation P;
    P.Active = true;
    P.Id = R.Id;
    P.Originals = std::move(Originals);
    P.ServedIr = Response.find("ir")->asString();
    P.Runs = std::max(1u, Config.CheckRuns);
    P.Response = std::move(Response);
    if (Deferred) {
      *Deferred = std::move(P);
      return Value::null();
    }
    return finishValidation(std::move(P));
  }
  return finish(Response);
}
