//===- driver/CorpusDriver.h - Parallel batch optimization driver --------===//
//
// Part of the lcm project: a reproduction of "Lazy Code Motion"
// (Knoop, Ruething, Steffen; PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The batch front half of a production pipeline: optimize N independent
/// functions on M threads.  Functions are claimed from a shared atomic
/// cursor (dynamic load balancing — CFG sizes vary wildly across a
/// corpus), each thread runs the verified pass pipeline in place, and
/// per-function outcomes land in pre-sized slots so threads never contend
/// on the result container.
///
/// Threading model:
///  - `Threads` counts the caller: `Threads = M` runs the claim loop on the
///    calling thread plus M-1 helper threads, and `Threads = 1` runs the
///    same loop on the caller alone.
///  - Helpers belong to one process-wide pool, built by the first batch
///    that needs one and grown to the largest helper count any batch asks
///    for.  They sleep on a condition variable between batches and are
///    never joined, so each keeps its thread_local analysis storage (the
///    solver arena, the LCM rows, the verifier and cleanup scratch; see
///    docs/HOTPATH.md) at its high-water size for the life of the process.
///  - Concurrent callers are safe: batches that need helpers take the pool
///    one at a time and queue for it; a batch with `Threads = 1` never
///    waits.  A pass must not itself call optimizeCorpus with more than
///    one thread.
///  - fork() without exec after a batch with helpers is unsupported: the
///    child has no helpers but inherits a pool that believes it does.
///
/// Functions never share state (each owns its blocks, variable table, and
/// expression pool), the sparse dataflow engine keeps one FactArena per
/// thread, the word-op counter is thread-local, and the Stats registry is
/// mutex-protected — so the run is race-free and, because every function's
/// transform is deterministic in isolation, the optimized output is
/// bit-identical at every thread count (asserted in
/// tests/solver_equivalence_test.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef LCM_DRIVER_CORPUSDRIVER_H
#define LCM_DRIVER_CORPUSDRIVER_H

#include <string>
#include <vector>

#include "cache/ResultCache.h"
#include "driver/Pipeline.h"
#include "ir/Function.h"

namespace lcm {

struct CorpusDriverOptions {
  /// Threads running the batch, the caller included; 0 means one per
  /// hardware thread.  1 runs on the calling thread alone.
  unsigned Threads = 1;
  /// Optional content-addressed result cache (docs/CACHE.md).  A corpus
  /// member whose canonical text and pipeline match a cached entry is
  /// replaced by the cached optimized IR without running the pipeline —
  /// repeat batches (re-runs, shared functions across corpora) skip the
  /// work.  The cache is internally synchronized; all workers share it.
  cache::ResultCache *Cache = nullptr;
};

/// Outcome of one function's pipeline run.
struct FunctionOutcome {
  bool Ok = true;
  /// "pass NAME: first verifier error" when !Ok (the function is left as
  /// the failing pass produced it; later functions still run).
  std::string Error;
  /// Summed "changes made" over all pipeline steps.
  uint64_t Changes = 0;
  /// The result came from the cache; the pipeline did not run here.
  bool CacheHit = false;
};

struct CorpusDriverResult {
  /// Index-aligned with the input functions.
  std::vector<FunctionOutcome> PerFunction;
  uint64_t TotalChanges = 0;
  size_t NumFailed = 0;
  /// Functions answered from the cache (0 without a cache).
  size_t CacheHits = 0;
  unsigned ThreadsUsed = 1;
  /// Per pipeline step, in pipeline order: its name, and its changes, word
  /// ops and seconds summed over the functions the pipeline ran on (cache
  /// hits run none).  Seconds are thread time, so with several threads
  /// they may exceed the batch's wall clock.  StatsDelta stays empty.
  std::vector<Pipeline::StepResult> Passes;
  /// Wall-clock of the whole batch.
  double Seconds = 0.0;

  double functionsPerSecond() const {
    return Seconds > 0 ? double(PerFunction.size()) / Seconds : 0.0;
  }
};

/// Runs \p P over every function in \p Fns (in place) on
/// \p Opts.Threads threads, the caller included.  If a pass throws, no
/// thread claims another function, and the first exception is rethrown
/// here once every thread has left the batch.
CorpusDriverResult optimizeCorpus(std::vector<Function> &Fns,
                                  const Pipeline &P,
                                  const CorpusDriverOptions &Opts = {});

} // namespace lcm

#endif // LCM_DRIVER_CORPUSDRIVER_H
