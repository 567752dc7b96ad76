//===- driver/CorpusDriver.cpp ---------------------------------------------===//

#include "driver/CorpusDriver.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>

#include "ir/Parser.h"
#include "ir/Printer.h"
#include "support/Trace.h"

using namespace lcm;

namespace {

/// Runs the pipeline over one function and adds each step's seconds,
/// changes and word ops into \p Sums (index-aligned with the pipeline).
FunctionOutcome runOne(const Pipeline &P, Function &Fn,
                       std::vector<Pipeline::StepResult> &Sums) {
  FunctionOutcome O;
  Pipeline::RunResult R = P.run(Fn);
  O.Ok = R.Ok;
  O.Error = R.Error;
  for (size_t I = 0; I != R.Steps.size(); ++I) {
    const Pipeline::StepResult &S = R.Steps[I];
    O.Changes += S.Changes;
    Sums[I].Changes += S.Changes;
    Sums[I].Seconds += S.Seconds;
    Sums[I].WordOps += S.WordOps;
  }
  return O;
}

/// The cached variant: probe by canonical text, replace the function on a
/// hit, fill both tiers on a computed success.  Identical corpus members
/// racing on a cold key both compute (no single-flight here — corpus
/// members are usually distinct and the pipeline is deterministic, so the
/// duplicate write is harmless).
FunctionOutcome runOneCached(const Pipeline &P, Function &Fn,
                             std::vector<Pipeline::StepResult> &Sums,
                             cache::ResultCache &Cache,
                             const cache::PipelineFingerprint &FP) {
  // Streaming key: print straight into the hasher, no canonical-IR string.
  const cache::Digest Key = cache::requestKey(Fn, FP);

  cache::CacheEntry E;
  if (Cache.get(Key, E)) {
    // The cached text was printed from a verified function under the same
    // limits; re-parsing cannot fail unless the cache was corrupted, and
    // the disk tier already dropped corrupt entries.
    ParseResult Hit = parseFunction(E.Ir, FP.Limits);
    if (Hit) {
      Fn = std::move(Hit.Fn);
      FunctionOutcome O;
      O.Changes = E.Changes;
      O.CacheHit = true;
      return O;
    }
  }

  FunctionOutcome O = runOne(P, Fn, Sums);
  if (O.Ok) {
    cache::CacheEntry Put;
    printFunction(Fn, Put.Ir);
    Put.Changes = O.Changes;
    Cache.put(Key, Put);
  }
  return O;
}

/// One optimizeCorpus call as every participating thread sees it.
struct Batch {
  std::vector<Function> &Fns;
  const Pipeline &P;
  const CorpusDriverOptions &Opts;
  const cache::PipelineFingerprint &FP;
  CorpusDriverResult &R;
  /// Dynamic work claiming: corpus members differ by orders of magnitude
  /// in CFG size, so static slicing would leave threads idle.
  std::atomic<size_t> Next{0};
  /// Guards R.Passes and Error.
  std::mutex MergeMu{};
  /// The first exception a pass threw on any thread; optimizeCorpus
  /// rethrows it once every thread has left the batch.
  std::exception_ptr Error{};

  void claimLoop();
};

void Batch::claimLoop() {
  Trace::Scope WorkerTrace("corpus.worker", "claim-loop");
  // Per-thread pass sums, merged into R.Passes once this loop ends, so the
  // loop itself allocates nothing beyond what the pipeline does.
  thread_local std::vector<Pipeline::StepResult> Sums;
  Sums.assign(P.size(), {});
  uint64_t Claimed = 0;
  std::exception_ptr Thrown;
  try {
    for (size_t I; (I = Next.fetch_add(1, std::memory_order_relaxed)) <
                   Fns.size();
         ++Claimed)
      R.PerFunction[I] = Opts.Cache ? runOneCached(P, Fns[I], Sums,
                                                   *Opts.Cache, FP)
                                    : runOne(P, Fns[I], Sums);
  } catch (...) {
    Thrown = std::current_exception();
    Next.store(Fns.size()); // The other threads claim nothing more.
  }
  {
    std::lock_guard<std::mutex> Lock(MergeMu);
    if (Thrown && !Error)
      Error = Thrown;
    for (size_t S = 0; S != Sums.size(); ++S) {
      R.Passes[S].Changes += Sums[S].Changes;
      R.Passes[S].Seconds += Sums[S].Seconds;
      R.Passes[S].WordOps += Sums[S].WordOps;
    }
  }
  WorkerTrace.note("claimed", Claimed);
}

/// Helper threads shared by every optimizeCorpus call in the process.
/// Helper K serves every batch that asks for more than K helpers and
/// sleeps on a condition variable in between, so its thread_local
/// analysis storage stays warm from one batch to the next.  One batch
/// holds the pool at a time; concurrent callers queue for it.
class HelperPool {
public:
  /// Runs \p B's claim loop on the calling thread and on \p Helpers pool
  /// threads, and returns once every one of them has left it.
  void run(Batch &B, unsigned Helpers);

private:
  void helperLoop(unsigned Index);

  std::mutex Mu;
  std::condition_variable Wake; // helpers: a batch was posted
  std::condition_variable Done; // callers: helpers finished, pool freed
  unsigned NumHelpers = 0;
  Batch *Current = nullptr;
  uint64_t Generation = 0;
  unsigned Wanted = 0;
  /// Set once the caller has left its own claim loop: the cursor is then
  /// exhausted, so helpers that have not joined yet stay asleep.
  bool Closed = false;
  /// Helpers inside the current batch's claim loop.
  unsigned Running = 0;
};

void HelperPool::run(Batch &B, unsigned Helpers) {
  {
    std::unique_lock<std::mutex> Lock(Mu);
    Done.wait(Lock, [&] { return Current == nullptr; });
    for (; NumHelpers < Helpers; ++NumHelpers)
      std::thread([this, K = NumHelpers] { helperLoop(K); }).detach();
    Current = &B;
    ++Generation;
    Wanted = Helpers;
    Closed = false;
  }
  Wake.notify_all();
  B.claimLoop();
  std::unique_lock<std::mutex> Lock(Mu);
  Closed = true;
  Done.wait(Lock, [&] { return Running == 0; });
  Current = nullptr;
  Lock.unlock();
  Done.notify_all();
}

void HelperPool::helperLoop(unsigned Index) {
  uint64_t Seen = 0;
  std::unique_lock<std::mutex> Lock(Mu);
  for (;;) {
    Wake.wait(Lock, [&] {
      return Generation != Seen && Index < Wanted && !Closed;
    });
    Seen = Generation;
    ++Running;
    Batch &B = *Current;
    Lock.unlock();
    B.claimLoop();
    Lock.lock();
    if (--Running == 0)
      Done.notify_all();
  }
}

/// Built by the first batch that needs a helper and never destroyed: the
/// helpers stay blocked on its condition variable through process exit,
/// so exit neither waits for them nor runs their thread_local destructors
/// after the statics those may touch are gone.
HelperPool &helperPool() {
  static HelperPool *Pool = new HelperPool;
  return *Pool;
}

} // namespace

CorpusDriverResult lcm::optimizeCorpus(std::vector<Function> &Fns,
                                       const Pipeline &P,
                                       const CorpusDriverOptions &Opts) {
  CorpusDriverResult R;
  R.PerFunction.resize(Fns.size());
  R.Passes.resize(P.size());
  for (size_t I = 0; I != P.size(); ++I)
    R.Passes[I].Name = P.stepName(I);

  unsigned Threads = Opts.Threads;
  if (Threads == 0)
    Threads = std::max(1u, std::thread::hardware_concurrency());
  if (Threads > Fns.size())
    Threads = std::max<size_t>(1, Fns.size());
  R.ThreadsUsed = Threads;

  Trace::Scope BatchTrace("corpus.batch", "optimize",
                          "functions=" + std::to_string(Fns.size()) +
                              " threads=" + std::to_string(Threads));

  // One fingerprint for the whole batch: the canonical pass list plus the
  // default limits (the driver imposes none of its own; what matters is
  // that every batch keys consistently).
  cache::PipelineFingerprint FP;
  for (size_t I = 0, N = P.size(); I != N; ++I) {
    if (I)
      FP.Pipeline += ',';
    FP.Pipeline += P.stepName(I);
  }

  const auto Start = std::chrono::steady_clock::now();
  Batch B{Fns, P, Opts, FP, R};
  if (Threads == 1)
    B.claimLoop();
  else
    helperPool().run(B, Threads - 1);
  if (B.Error)
    std::rethrow_exception(B.Error);
  R.Seconds = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - Start)
                  .count();

  for (const FunctionOutcome &O : R.PerFunction) {
    R.TotalChanges += O.Changes;
    R.NumFailed += !O.Ok;
    R.CacheHits += O.CacheHit;
  }
  BatchTrace.note("changes", R.TotalChanges);
  BatchTrace.note("failures", uint64_t(R.NumFailed));
  if (Opts.Cache)
    BatchTrace.note("cache_hits", uint64_t(R.CacheHits));
  return R;
}
