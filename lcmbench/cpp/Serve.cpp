//===- lcmbench/cpp/Serve.cpp - The three serving mixes ------------------===//
//
//  serve-fresh      every request a function never sent before
//  serve-edit       chained protocol-v4 deltas over a module, one edit in
//                   ten resubmitted as full text
//  serve-validated  a fixed working set with `validate: true`
//
// Each runs against lcm_serve --workers=2 with 2 closed-loop connections.
//
//===----------------------------------------------------------------------===//

#include "Serve.h"

#include "cache/ResultCache.h"
#include "cache/RetainedIr.h"
#include "server/Service.h"
#include "support/Stats.h"

#include <atomic>
#include <cstdio>
#include <set>
#include <thread>
#include <unistd.h>

using namespace lcm;

namespace lcmbench {

namespace {

constexpr const char *ServePipeline = "lcse,lcm";
/// Functions the output checks and counts cover on a serving mix.
constexpr uint64_t QualitySample = 512;

const std::string &field(const std::map<std::string, std::string> &F,
                         const char *Key) {
  static const std::string None;
  auto It = F.find(Key);
  return It == F.end() ? None : It->second;
}

bool statusOk(const std::map<std::string, std::string> &F, std::string &Why) {
  const std::string &S = field(F, "status");
  if (S == "ok")
    return true;
  Why = "status " + S + ": " + field(F, "error");
  return false;
}

/// Checks a daemon total against the count the client arrived at.
void expectTotal(const std::map<std::string, double> &M, const char *Name,
                 uint64_t Want, Report &R) {
  if (M.empty())
    return;
  const double Got = metricOr0(M, Name);
  if (Got != double(Want))
    R.problem(std::string("/metrics ") + Name + " = " +
              std::to_string(uint64_t(Got)) + ", expected " +
              std::to_string(Want));
}

//===----------------------------------------------------------------------===//
// serve-fresh
//===----------------------------------------------------------------------===//

class FreshMix : public Mix {
public:
  explicit FreshMix(uint64_t Seed) {
    for (unsigned I = 0; I != PoolSize; ++I)
      Pool.push_back(makeCorpusSized(Seed, I, "f" + std::to_string(I)));
  }

  uint64_t warmupPerConn() const override { return 2000; }

  std::string request(unsigned C, uint64_t K) override {
    const uint64_t N = nonce(C, K);
    return "{\"schema\":\"lcm-request-v1\",\"id\":" + std::to_string(N) +
           ",\"pipeline\":\"lcse,lcm\",\"ir\":" + jsonString(text(N)) + "}";
  }

  bool response(unsigned C, uint64_t,
                const std::map<std::string, std::string> &F,
                std::string &Why) override {
    if (!statusOk(F, Why))
      return false;
    Served[C].push_back(hashText(field(F, "ir")));
    return true;
  }

  uint64_t check(const std::map<std::string, double> &Metrics,
                 Report &R) override {
    // Every answer is recomputed in process, one thread per connection.
    std::atomic<uint64_t> Failed{0};
    std::vector<std::thread> Threads;
    for (unsigned C = 0; C != ServeConnections; ++C)
      Threads.emplace_back([&, C] {
        for (uint64_t K = 0; K != Served[C].size(); ++K)
          if (hashText(optimizeText(text(nonce(C, K)), ServePipeline)) !=
              Served[C][K])
            ++Failed;
      });
    for (std::thread &T : Threads)
      T.join();
    if (Failed)
      R.problem(std::to_string(Failed.load()) +
                " served IRs differ from in-process Pipeline output");
    // Every request was new: each one missed and ran the pipeline.
    const uint64_t Total = Served[0].size() + Served[1].size();
    expectTotal(Metrics, "cache.mem.misses", Total, R);
    expectTotal(Metrics, "server.pipeline_runs", Total, R);
    return Failed;
  }

  std::vector<std::string> sampleFunctions(size_t Max) const override {
    std::vector<std::string> Out;
    for (uint64_t N = 0; N != Max; ++N)
      Out.push_back(text(N));
    return Out;
  }

  std::string describe() const override {
    return "serve-fresh: pool of " + std::to_string(Pool.size()) +
           " default-size functions (digest " + hex64(digestOf(Pool)) +
           "), request n = pool[n % " + std::to_string(PoolSize) +
           "] with `nonce = n` after its entry label";
  }

private:
  static constexpr unsigned PoolSize = 1024;
  std::vector<FnText> Pool;
  std::vector<uint64_t> Served[ServeConnections];

  static uint64_t nonce(unsigned C, uint64_t K) {
    return K * ServeConnections + C;
  }
  std::string text(uint64_t N) const {
    return withNonce(Pool[N % Pool.size()].Text, N);
  }
};

//===----------------------------------------------------------------------===//
// serve-edit
//===----------------------------------------------------------------------===//

/// Block spans of one function's canonical text.
struct Blocks {
  std::vector<std::string> Labels;
  std::vector<std::string> Texts; ///< Header line plus body, as printed.
  std::string Head;               ///< The `func` line.
};

Blocks splitBlocks(const std::string &Fn) {
  Blocks B;
  size_t Pos = 0;
  while (Pos < Fn.size()) {
    size_t Eol = Fn.find('\n', Pos);
    Eol = Eol == std::string::npos ? Fn.size() : Eol + 1;
    const std::string Line = Fn.substr(Pos, Eol - Pos);
    if (Line.rfind("block ", 0) == 0) {
      B.Labels.push_back(Line.substr(6, Line.find_last_not_of("\n") - 5));
      B.Texts.push_back(Line);
    } else if (B.Texts.empty()) {
      B.Head += Line;
    } else {
      B.Texts.back() += Line;
    }
    Pos = Eol;
  }
  return B;
}

class EditMix : public Mix {
public:
  explicit EditMix(uint64_t Seed) {
    for (unsigned C = 0; C != ServeConnections; ++C) {
      Side &S = Sides[C];
      S.Module = makeEditModule(Seed, C);
      for (const FnText &F : S.Module) {
        S.Orig.push_back(splitBlocks(F.Text));
        S.Cur.push_back(F.Text);
        S.Edited.push_back(-1);
      }
      S.Rng = splitmix(Seed * 31 + C);
    }
  }

  uint64_t warmupPerConn() const override { return 600; }
  unsigned functionsPerResponse() const override {
    return unsigned(Sides[0].Module.size());
  }

  std::string request(unsigned C, uint64_t K) override {
    Side &S = Sides[C];
    S.Pending = Step();
    if (K == 0) {
      S.Pending.Full = true;
      return fullRequest(S, K);
    }
    // One edit: a fresh computation `ed = ed + N` at the top of one block;
    // the function's previous edit, if in another block, is undone, so the
    // module keeps its size and every edit yields a never-seen function.
    S.Rng = splitmix(S.Rng);
    const size_t Fn = S.Rng % S.Module.size();
    const Blocks &B = S.Orig[Fn];
    const size_t Blk = (S.Rng >> 20) % B.Labels.size();
    const uint64_t N = K * ServeConnections + C;
    std::string NewBlock = B.Texts[Blk];
    NewBlock.insert(NewBlock.find('\n') + 1,
                    "  ed = ed + " + std::to_string(N) + "\n");
    std::string Patch;
    if (S.Edited[Fn] >= 0 && size_t(S.Edited[Fn]) != Blk)
      Patch += patchOp(S.Module[Fn].Name, B.Labels[size_t(S.Edited[Fn])],
                       B.Texts[size_t(S.Edited[Fn])]) +
               ",";
    Patch += patchOp(S.Module[Fn].Name, B.Labels[Blk], NewBlock);
    S.Edited[Fn] = int(Blk);
    std::string Text = B.Head;
    for (size_t I = 0; I != B.Texts.size(); ++I)
      Text += I == Blk ? NewBlock : B.Texts[I];
    S.Cur[Fn] = Text;
    S.Pending.Fn = int(Fn);
    S.Pending.Text = std::move(Text);
    // One edit in ten comes back as the whole file.
    if (K % 10 == 0) {
      S.Pending.Full = true;
      return fullRequest(S, K);
    }
    return "{\"schema\":\"lcm-request-v4\",\"id\":" + std::to_string(K) +
           ",\"pipeline\":\"lcse,lcm\",\"base_key\":" + jsonString(S.BaseKey) +
           ",\"patch\":[" + Patch + "]}";
  }

  bool response(unsigned C, uint64_t,
                const std::map<std::string, std::string> &F,
                std::string &Why) override {
    Side &S = Sides[C];
    if (!statusOk(F, Why))
      return false;
    S.Pending.IrHash = hashText(field(F, "ir"));
    S.Steps.push_back(std::move(S.Pending));
    S.BaseKey = field(F, "cache_key");
    if (!S.Steps.back().Full && field(F, "delta") != "applied") {
      Why = "delta answered '" + field(F, "delta") + "'";
      return false;
    }
    return true;
  }

  uint64_t check(const std::map<std::string, double> &Metrics,
                 Report &R) override {
    uint64_t Failed = 0;
    std::map<uint64_t, std::string> Optimized;
    std::set<uint64_t> Distinct;
    auto Opt = [&](const std::string &Text) -> const std::string & {
      const uint64_t H = hashText(Text);
      Distinct.insert(H);
      auto It = Optimized.find(H);
      if (It == Optimized.end())
        It = Optimized.emplace(H, optimizeText(Text, ServePipeline)).first;
      return It->second;
    };
    for (unsigned C = 0; C != ServeConnections; ++C) {
      Side &S = Sides[C];
      std::vector<std::string> Cur;
      for (const FnText &F : S.Module)
        Cur.push_back(F.Text);
      for (const Step &St : S.Steps) {
        if (St.Fn >= 0)
          Cur[size_t(St.Fn)] = St.Text;
        // The module answer: each function's output, newline-terminated.
        std::string Module;
        for (const std::string &Fn : Cur) {
          Module += Opt(Fn);
          if (!Module.empty() && Module.back() != '\n')
            Module += '\n';
        }
        if (hashText(Module) != St.IrHash) {
          ++Failed;
          R.problem("served module differs from in-process Pipeline output");
        }
      }
    }
    // Per-function memoization: the pipeline ran once per distinct text.
    expectTotal(Metrics, "server.pipeline_runs", Distinct.size(), R);
    return Failed;
  }

  std::vector<std::string> sampleFunctions(size_t Max) const override {
    std::vector<std::string> Out;
    for (const Side &S : Sides)
      for (const FnText &F : S.Module)
        if (Out.size() < Max)
          Out.push_back(F.Text);
    return Out;
  }

  std::string describe() const override {
    std::string D = "serve-edit: modules";
    for (const Side &S : Sides) {
      size_t Bytes = 0;
      for (const FnText &F : S.Module)
        Bytes += F.Text.size();
      D += " [" + std::to_string(S.Module.size()) + " functions, " +
           std::to_string(Bytes) + " bytes, digest " +
           hex64(digestOf(S.Module)) + "]";
    }
    return D + "; edits: `ed = ed + n` atop one block, 1 in 10 full text";
  }

private:
  struct Step {
    int Fn = -1;
    std::string Text;
    bool Full = false;
    uint64_t IrHash = 0;
  };
  struct Side {
    std::vector<FnText> Module;
    std::vector<Blocks> Orig;
    std::vector<std::string> Cur;
    std::vector<int> Edited;
    std::string BaseKey;
    uint64_t Rng = 0;
    Step Pending;
    std::vector<Step> Steps;
  };
  Side Sides[ServeConnections];

  static std::string patchOp(const std::string &Fn, const std::string &Label,
                             const std::string &Text) {
    return "{\"op\":\"replace_block\",\"func\":" + jsonString(Fn) +
           ",\"label\":" + jsonString(Label) + ",\"ir\":" + jsonString(Text) +
           "}";
  }
  static std::string fullRequest(const Side &S, uint64_t K) {
    std::string Ir;
    for (const std::string &T : S.Cur)
      Ir += T;
    return "{\"schema\":\"lcm-request-v1\",\"id\":" + std::to_string(K) +
           ",\"pipeline\":\"lcse,lcm\",\"ir\":" + jsonString(Ir) + "}";
  }
};

//===----------------------------------------------------------------------===//
// serve-validated
//===----------------------------------------------------------------------===//

class ValidatedMix : public Mix {
public:
  explicit ValidatedMix(uint64_t Seed) : Set(makeValidatedSet(Seed)) {
    Payloads.reserve(Set.size());
    for (const FnText &F : Set)
      Payloads.push_back(",\"pipeline\":\"lcse,lcm\",\"validate\":true,"
                         "\"ir\":" +
                         jsonString(F.Text) + "}");
    for (unsigned C = 0; C != ServeConnections; ++C)
      Hashes[C].assign(Set.size(), 0);
  }

  uint64_t warmupPerConn() const override { return 2500; }

  std::string request(unsigned C, uint64_t K) override {
    return "{\"schema\":\"lcm-request-v2\",\"id\":" + std::to_string(K) +
           Payloads[program(C, K)];
  }

  bool response(unsigned C, uint64_t K,
                const std::map<std::string, std::string> &F,
                std::string &Why) override {
    ++Answers;
    if (!statusOk(F, Why))
      return false;
    if (field(F, "validated") != "true") {
      Why = "ok response without validated: true";
      return false;
    }
    const size_t P = program(C, K);
    const uint64_t H = hashText(field(F, "ir"));
    if (Hashes[C][P] == 0)
      Hashes[C][P] = H;
    else if (Hashes[C][P] != H) {
      Why = "answer for one program changed between requests";
      return false;
    }
    return true;
  }

  uint64_t check(const std::map<std::string, double> &Metrics,
                 Report &R) override {
    uint64_t Failed = 0;
    for (size_t P = 0; P != Set.size(); ++P) {
      const std::string Want = optimizeText(Set[P].Text, ServePipeline);
      for (unsigned C = 0; C != ServeConnections; ++C)
        if (Hashes[C][P] != hashText(Want)) {
          ++Failed;
          R.problem(Set[P].Name + ": served IR differs from in-process "
                                  "Pipeline output");
        }
    }
    // The daemon re-executed every answer, cache hits included.
    expectTotal(Metrics, "lcm_validations_total", Answers, R);
    return Failed;
  }

  std::vector<std::string> sampleFunctions(size_t Max) const override {
    std::vector<std::string> Out;
    for (const FnText &F : Set)
      if (Out.size() < Max)
        Out.push_back(F.Text);
    return Out;
  }

  std::string describe() const override {
    return "serve-validated: " + std::to_string(Set.size()) +
           " default-size programs (digest " + hex64(digestOf(Set)) + ")";
  }

private:
  std::vector<FnText> Set;
  std::vector<std::string> Payloads;
  std::vector<uint64_t> Hashes[ServeConnections];
  std::atomic<uint64_t> Answers{0};

  size_t program(unsigned C, uint64_t K) const {
    return size_t((K + C * Set.size() / 2) % Set.size());
  }
};

/// Checks the in-process outputs for the functions \p M offers, topped up to
/// QualitySample functions from the same generators; the byte-identity check
/// ties them to what the daemon served.
void checkSample(const Mix &M, uint64_t Seed, CheckTotals &T, Report &R) {
  std::vector<std::string> Sample = M.sampleFunctions(QualitySample);
  for (uint64_t I = Sample.size(); I < QualitySample; ++I)
    Sample.push_back(makeCorpusSized(Seed ^ 0x9a11u, I, "q").Text);
  for (const std::string &Text : Sample) {
    const uint64_t Before = T.Failures;
    checkOutput(Text, optimizeText(Text, ServePipeline), ServePipeline, T, R);
    ++R.Attempted;
    R.Failed += T.Failures - Before;
  }
}

} // namespace

std::unique_ptr<Mix> makeMix(const std::string &Workload, uint64_t Seed) {
  if (Workload == "serve-fresh")
    return std::make_unique<FreshMix>(Seed);
  if (Workload == "serve-edit")
    return std::make_unique<EditMix>(Seed);
  if (Workload == "serve-validated")
    return std::make_unique<ValidatedMix>(Seed);
  return nullptr;
}

std::vector<std::string> tracedSample(const std::string &Workload,
                                      uint64_t Seed, std::string &Describe) {
  std::vector<std::string> Out;
  if (Workload == "batch-large") {
    const std::vector<FnText> In = makeBatchInputs(Seed);
    for (const FnText &F : In)
      Out.push_back(F.Text);
    Describe = "batch-large: " + std::to_string(In.size()) +
               " functions (digest " + hex64(digestOf(In)) + ")";
    return Out;
  }
  std::unique_ptr<Mix> M = makeMix(Workload, Seed);
  Describe = M->describe();
  return M->sampleFunctions(64);
}

//===----------------------------------------------------------------------===//
// The serving checks' own tests
//===----------------------------------------------------------------------===//

int serveSelfTest() {
  enum Fault { None, Bytes, Flag, Total };
  static const char *const FaultName[] = {
      "correct answers pass", "one answer's IR bytes changed is caught",
      "", "a daemon total off by one is caught"};
  int Missed = 0;
  for (const char *W : {"serve-fresh", "serve-edit", "serve-validated"})
    for (Fault X : {None, Bytes, Flag, Total}) {
      const std::string Workload = W;
      std::string What = Workload + ": " + FaultName[X];
      if (X == Flag) {
        if (Workload == "serve-fresh")
          continue;
        What = Workload + (Workload == "serve-edit"
                               ? ": a delta not answered `applied` is caught"
                               : ": an answer without `validated` is caught");
      }
      // A short run against an in-process Service configured like the
      // daemon; its Stats stand in for the daemon's /metrics.
      std::unique_ptr<Mix> M = makeMix(Workload, 1);
      server::ServiceConfig SC;
      SC.Cache =
          std::make_shared<cache::ResultCache>(cache::ResultCacheConfig());
      SC.Retained = std::make_shared<cache::RetainedIrCache>(size_t(32) << 20);
      server::Service Svc(SC);
      const std::map<std::string, uint64_t> Before = Stats::all();
      Report R;
      uint64_t Failed = 0;
      std::map<std::string, std::string> F;
      std::string Resp, Why;
      for (uint64_t K = 0; K != 70; ++K)
        for (unsigned C = 0; C != ServeConnections; ++C) {
          Resp.clear();
          Svc.handle(M->request(C, K)).dumpTo(Resp, 0);
          parseTop(Resp, F);
          if (K == 21 && C == 1) {
            if (X == Bytes)
              F["ir"] += "\n";
            if (X == Flag)
              F[Workload == "serve-edit" ? "delta" : "validated"] = "false";
          }
          Failed += !M->response(C, K, F, Why);
        }
      const std::map<std::string, uint64_t> After = Stats::all();
      auto Delta = [&](const char *Name) {
        auto A = After.find(Name), B = Before.find(Name);
        return double((A == After.end() ? 0 : A->second) -
                      (B == Before.end() ? 0 : B->second));
      };
      std::map<std::string, double> Metrics = {
          {"cache.mem.misses", Delta("cache.mem.misses")},
          {"server.pipeline_runs", Delta("server.pipeline_runs")},
          {"lcm_validations_total", Delta("server.validations")}};
      if (X == Total)
        for (auto &[Name, V] : Metrics)
          V += 1;
      Failed += M->check(Metrics, R);
      const bool Caught = Failed != 0 || !R.Correct;
      std::printf("%-52s %s\n", What.c_str(),
                  Caught == (X != None) ? "ok" : "NOT DETECTED");
      Missed += Caught != (X != None);
    }
  return Missed;
}

//===----------------------------------------------------------------------===//
// The untraced run
//===----------------------------------------------------------------------===//

void runServe(const Options &O, Report &R) {
  std::unique_ptr<Mix> M = makeMix(O.Workload, O.Seed);
  R.note(M->describe());

  // Set-up runs from the daemon's start to the end of the warm-up traffic
  // that fills its caches.  Making the inputs is the benchmark's own work,
  // and its cost varies with the seed, so the clock starts after.
  Daemon D;
  std::string Error;
  const std::string Socket = O.RunDir + "/lcmbench-" +
                             std::to_string(::getpid()) + ".sock";
  std::vector<ConnLog> Logs;
  const Clock::time_point SetupStart = Clock::now();
  Clock::time_point WarmupEnd = SetupStart;
  if (!D.start(O.ServeBin, Socket, Error) ||
      !driveMix(*M, Socket, O.Seconds, Logs, Error, &WarmupEnd)) {
    R.problem(Error);
    R.Failed = R.Attempted = 1;
    return;
  }
  R.note("lcm_serve " + std::string(ServeWorkersFlag) + ": " + D.kernels() +
         ", hardware threads " +
         std::to_string(std::thread::hardware_concurrency()));
  std::map<std::string, double> Metrics;
  if (!D.scrape(Metrics))
    R.problem("/metrics scrape failed");
  if (!D.stop())
    R.problem("lcm_serve did not drain and exit 0");

  std::vector<double> Lat, Done;
  for (const ConnLog &L : Logs) {
    R.Attempted += L.Sent;
    R.Failed += L.Failed;
    if (!L.FirstProblem.empty())
      R.problem(L.FirstProblem);
    Lat.insert(Lat.end(), L.LatencyMs.begin(), L.LatencyMs.end());
    Done.insert(Done.end(), L.DoneAt.begin(), L.DoneAt.end());
  }
  R.Failed += M->check(Metrics, R);
  // The independent checks on this run's inputs, and on the reference
  // sample the output counts come from (Bench.h, ReferenceSeed).
  CheckTotals Own, T;
  checkSample(*M, O.Seed, Own, R);
  checkSample(*makeMix(O.Workload, ReferenceSeed), ReferenceSeed, T, R);

  // Windows of 1000 answers: each window's p99 has ten answers beyond it.
  const FastStats S = fastWindows(Done, Lat, 1000);
  R.metric("setup_s",
           std::chrono::duration<double>(WarmupEnd - SetupStart).count(), "s");
  R.metric("batch_fns_per_s", S.Rate * M->functionsPerResponse(),
           "functions/s");
  R.metric("throughput_rps", S.Rate, "requests/s");
  R.metric("latency_p50_ms", S.P50Ms, "ms");
  R.metric("latency_p99_ms", S.P99Ms, "ms");
  R.metric("dyn_evals", double(T.DynEvals), "count");
  R.metric("code_size_instrs", double(T.CodeSize), "count");
  R.metric("temp_live_slots", double(T.TempLiveSlots), "count");
  R.metric("peak_rss_mb", D.peakRssMb(), "MiB");
  R.note("requests " + std::to_string(Lat.size()) + " in " +
         std::to_string(S.Windows) + " windows, whole-run rps " +
         std::to_string(double(Lat.size()) / O.Seconds) + ", p50/p99/p99.9 " +
         std::to_string(quantile(Lat, 0.5)) + "/" +
         std::to_string(quantile(Lat, 0.99)) + "/" +
         std::to_string(quantile(Lat, 0.999)) +
         " ms, answers over 10x the fast p50 " +
         std::to_string(slowerThan(Lat, S.P50Ms)) + "; daemon cpu " +
         std::to_string(D.cpuSeconds()) + " s");
}

} // namespace lcmbench
