//===- bench/perf_hotpath.cpp - Zero-copy hot-path throughput -------------===//
//
// Companion to the allocation-free request path: measures the three
// byte-bound stages the serving hot path is made of —
//
//   parse:  text -> Function       (ir/Parser.h, parseFunctionInto)
//   print:  Function -> text       (ir/Printer.h, append-into-buffer form)
//   hash:   Function -> cache key  (cache/ContentHash.h, streaming form)
//
// in MB/s over the experiment corpus, plus the number that motivates the
// design: heap allocations per steady-state parse->optimize->print
// iteration (local CSE, LCM and cleanup, verified after every pass) once
// every reusable buffer has reached its high-water capacity.  Linked
// against lcm_alloc_hook, so the allocation counts are exact (see
// support/AllocHook.h); under sanitizer builds the hook is inert and the
// counts report as unmeasured.
//
// The corpus sweep is repeated a fixed number of times, so `--json` mode
// (the CI bench-smoke artifact) stays fast and deterministic in shape.
//
//===----------------------------------------------------------------------===//

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "baseline/Cleanup.h"
#include "bench_common.h"
#include "cache/ContentHash.h"
#include "core/Lcm.h"
#include "core/LocalCse.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "support/AllocHook.h"
#include "support/SimdWords.h"

using namespace lcm;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

struct HotpathInputs {
  std::vector<std::string> Texts; ///< Canonical IR per corpus program.
  std::vector<Function> Fns;      ///< The same programs, parsed.
  size_t TotalBytes = 0;          ///< Sum of text sizes (one sweep).
};

HotpathInputs makeInputs() {
  HotpathInputs In;
  for (const CorpusEntry &Entry : experimentCorpus()) {
    Function Fn = Entry.Make();
    In.Texts.push_back(printFunction(Fn));
    In.TotalBytes += In.Texts.back().size();
    In.Fns.push_back(std::move(Fn));
  }
  return In;
}

double mbPerSecond(size_t Bytes, double Seconds) {
  return Seconds > 0 ? double(Bytes) / Seconds / 1e6 : 0.0;
}

/// One full request-shaped iteration: parse the text, run
/// `lcse,lcm,cleanup` verifying after every pass as Pipeline::run does,
/// print the result into \p Out.  Exactly the loop the allocation gate
/// pins.
void requestIteration(const std::string &Text, const IRLimits &Limits,
                      ParserScratch &Scratch, ParseResult &Ir,
                      PreRunResult &R, std::string &Out) {
  parseFunctionInto(Text, Limits, Scratch, Ir);
  runLocalCse(Ir.Fn);
  bool Valid = verifyFunction(Ir.Fn).empty();
  runPreInto(Ir.Fn, PreStrategy::Lazy, SolverStrategy::Sparse, R);
  Valid &= verifyFunction(Ir.Fn).empty();
  runCleanup(Ir.Fn, CleanupOptions{});
  Valid &= verifyFunction(Ir.Fn).empty();
  if (!Valid)
    std::printf("WARNING: %s failed verification\n", Ir.Fn.name().c_str());
  Out.clear();
  printFunction(Ir.Fn, Out);
}

void runThroughput(const HotpathInputs &In) {
  printHeading("hotpath-throughput",
               "parse / print / hash throughput (experiment corpus)");

  const unsigned Reps = 256;
  const IRLimits Limits;
  Table T({"stage", "bytes_per_sweep", "sweeps", "seconds", "mb_per_s"});

  // Parse: the single-pass string_view lexer into recycled storage.
  {
    ParserScratch Scratch;
    ParseResult Ir;
    parseFunctionInto(In.Texts.front(), Limits, Scratch, Ir); // warm
    const auto Start = Clock::now();
    for (unsigned R = 0; R != Reps; ++R)
      for (const std::string &Text : In.Texts)
        parseFunctionInto(Text, Limits, Scratch, Ir);
    const double S = secondsSince(Start);
    const double Mb = mbPerSecond(In.TotalBytes * Reps, S);
    T.row().add("parse").add(uint64_t(In.TotalBytes)).add(uint64_t(Reps))
        .add(S, 4).add(Mb, 1);
    benchRecordMetric("parse_mb_per_second", Mb);
  }

  // Print: append into a caller buffer that keeps its capacity.
  {
    std::string Out;
    const auto Start = Clock::now();
    for (unsigned R = 0; R != Reps; ++R)
      for (const Function &Fn : In.Fns) {
        Out.clear();
        printFunction(Fn, Out);
      }
    const double S = secondsSince(Start);
    const double Mb = mbPerSecond(In.TotalBytes * Reps, S);
    T.row().add("print").add(uint64_t(In.TotalBytes)).add(uint64_t(Reps))
        .add(S, 4).add(Mb, 1);
    benchRecordMetric("print_mb_per_second", Mb);
  }

  // Hash: the streaming cache key (print straight into the hasher).
  {
    cache::PipelineFingerprint FP;
    FP.Pipeline = "lcse,lcm,cleanup";
    uint64_t Fold = 0;
    const auto Start = Clock::now();
    for (unsigned R = 0; R != Reps; ++R)
      for (const Function &Fn : In.Fns)
        Fold += cache::requestKey(Fn, FP).Lo;
    const double S = secondsSince(Start);
    const double Mb = mbPerSecond(In.TotalBytes * Reps, S);
    T.row().add("hash").add(uint64_t(In.TotalBytes)).add(uint64_t(Reps))
        .add(S, 4).add(Mb, 1);
    benchRecordMetric("hash_mb_per_second", Mb);
    if (Fold == 0x5eed) // Defeat over-eager optimizers; never true.
      std::printf("#");
  }

  printTable(T);
}

/// Scalar-reference vs dispatched-backend throughput for each word kernel
/// over 64-word (4096-bit) rows — wide enough that the SIMD dispatch
/// threshold is comfortably crossed and the loops, not the calls, dominate.
/// Rows live in one contiguous buffer like a BitMatrix, so this measures
/// the same access pattern the sparse solver produces.
void runKernels() {
  printHeading("hotpath-kernels",
               "word-kernel throughput, scalar reference vs dispatched "
               "SIMD backend");

  const char *Backend = simdwords::backendName();
  std::printf("dispatched backend: %s%s\n", Backend,
              simdwords::forcedScalar() ? " (LCM_FORCE_SCALAR)" : "");
  benchRecordMetric("simd_backend", json::Value::str(Backend));
  benchRecordMetric("simd_forced_scalar", simdwords::forcedScalar());

  constexpr size_t Words = 64;   // 4096-bit universe
  constexpr size_t Rows = 256;
  constexpr size_t MeetIn = 4;   // fan-in for the fused meet kernel
  constexpr unsigned Reps = 1500;

  // Deterministic pseudo-random row contents (xorshift64*).
  std::vector<uint64_t> Buf((Rows + MeetIn + 4) * Words);
  uint64_t Seed = 0x9e3779b97f4a7c15ULL;
  for (uint64_t &W : Buf) {
    Seed ^= Seed >> 12;
    Seed ^= Seed << 25;
    Seed ^= Seed >> 27;
    W = Seed * 0x2545F4914F6CDD1DULL;
  }
  uint64_t *RowBase = Buf.data();
  uint64_t *Gen = RowBase + Rows * Words;
  uint64_t *Kill = Gen + Words;
  uint64_t *Src = Kill + Words;
  uint64_t *Scratch = Src + Words;
  const uint64_t *Inputs[MeetIn];
  for (size_t J = 0; J != MeetIn; ++J)
    Inputs[J] = RowBase + J * Words;

  struct KernelCase {
    const char *Name;
    // Runs the kernel once over every row with the given table; returns a
    // fold so the work cannot be optimized away.
    uint64_t (*Run)(const simdwords::Kernels &, uint64_t *, uint64_t *,
                    const uint64_t *, const uint64_t *, const uint64_t *,
                    uint64_t *, const uint64_t *const *);
  };
  const KernelCase Cases[] = {
      {"orInto",
       [](const simdwords::Kernels &K, uint64_t *RowBase, uint64_t *,
          const uint64_t *, const uint64_t *, const uint64_t *Src,
          uint64_t *, const uint64_t *const *) {
         for (size_t R = 0; R != Rows; ++R)
           K.orInto(RowBase + R * Words, Src, Words);
         return RowBase[0];
       }},
      {"andInto",
       [](const simdwords::Kernels &K, uint64_t *RowBase, uint64_t *,
          const uint64_t *, const uint64_t *, const uint64_t *Src,
          uint64_t *, const uint64_t *const *) {
         for (size_t R = 0; R != Rows; ++R)
           K.andInto(RowBase + R * Words, Src, Words);
         return RowBase[0];
       }},
      {"andNotInto",
       [](const simdwords::Kernels &K, uint64_t *RowBase, uint64_t *,
          const uint64_t *, const uint64_t *, const uint64_t *Src,
          uint64_t *, const uint64_t *const *) {
         for (size_t R = 0; R != Rows; ++R)
           K.andNotInto(RowBase + R * Words, Src, Words);
         return RowBase[0];
       }},
      {"equal",
       [](const simdwords::Kernels &K, uint64_t *RowBase, uint64_t *,
          const uint64_t *, const uint64_t *, const uint64_t *Src,
          uint64_t *, const uint64_t *const *) {
         uint64_t Fold = 0;
         for (size_t R = 0; R != Rows; ++R)
           Fold += K.equal(RowBase + R * Words, Src, Words);
         return Fold;
       }},
      {"transferInto",
       [](const simdwords::Kernels &K, uint64_t *RowBase, uint64_t *,
          const uint64_t *Gen, const uint64_t *Kill, const uint64_t *Src,
          uint64_t *, const uint64_t *const *) {
         for (size_t R = 0; R != Rows; ++R)
           K.transferInto(RowBase + R * Words, Src, Gen, Kill, Words);
         return RowBase[0];
       }},
      {"transferChanged",
       [](const simdwords::Kernels &K, uint64_t *RowBase, uint64_t *,
          const uint64_t *Gen, const uint64_t *Kill, const uint64_t *Src,
          uint64_t *, const uint64_t *const *) {
         uint64_t Fold = 0;
         for (size_t R = 0; R != Rows; ++R)
           Fold += K.transferChanged(RowBase + R * Words, Src, Gen, Kill,
                                     Words);
         return Fold;
       }},
      {"meetTransferChanged",
       [](const simdwords::Kernels &K, uint64_t *RowBase, uint64_t *Scratch,
          const uint64_t *Gen, const uint64_t *Kill, const uint64_t *,
          uint64_t *, const uint64_t *const *Inputs) {
         uint64_t Fold = 0;
         for (size_t R = 0; R != Rows; ++R)
           Fold += K.meetTransferChanged(Scratch, RowBase + R * Words,
                                         Inputs, MeetIn, (R & 1) != 0, Gen,
                                         Kill, Words);
         return Fold;
       }},
  };

  Table T({"kernel", "scalar_mb_per_s", "simd_mb_per_s", "speedup"});
  uint64_t Sink = 0;
  double LogSum = 0.0;
  size_t NumCases = 0;
  for (const KernelCase &C : Cases) {
    double Mb[2] = {0, 0};
    const simdwords::Kernels *Tables[2] = {&simdwords::scalarKernels(),
                                           &simdwords::kernels()};
    for (int V = 0; V != 2; ++V) {
      Sink += C.Run(*Tables[V], RowBase, Scratch, Gen, Kill, Src, nullptr,
                    Inputs); // warm
      const auto Start = Clock::now();
      for (unsigned R = 0; R != Reps; ++R)
        Sink += C.Run(*Tables[V], RowBase, Scratch, Gen, Kill, Src, nullptr,
                      Inputs);
      const double S = secondsSince(Start);
      Mb[V] = mbPerSecond(uint64_t(Reps) * Rows * Words * 8, S);
    }
    const double Speedup = Mb[0] > 0 ? Mb[1] / Mb[0] : 0.0;
    T.row().add(C.Name).add(Mb[0], 1).add(Mb[1], 1).add(Speedup, 2);
    std::string Prefix = std::string("kernel_") + C.Name;
    benchRecordMetric((Prefix + "_scalar_mb_per_second").c_str(), Mb[0]);
    benchRecordMetric((Prefix + "_simd_mb_per_second").c_str(), Mb[1]);
    if (Speedup > 0) {
      LogSum += std::log(Speedup);
      ++NumCases;
    }
  }
  printTable(T);
  const double Geomean = NumCases ? std::exp(LogSum / NumCases) : 0.0;
  std::printf("geomean speedup (simd/scalar): %.2fx\n", Geomean);
  benchRecordMetric("kernel_speedup_geomean", Geomean);
  if (Sink == 0x5eed) // Defeat over-eager optimizers; never true.
    std::printf("#");
}

void runAllocations(const HotpathInputs &In) {
  printHeading("hotpath-allocations",
               "steady-state heap allocations per request iteration");

  const IRLimits Limits;
  ParserScratch Scratch;
  ParseResult Ir;
  PreRunResult R;
  std::string Out;

  // Warm-up: let every arena, scratch vector, and string reach its
  // high-water capacity.
  const unsigned Warmup = 32, Measured = 8;
  for (unsigned I = 0; I != Warmup; ++I)
    for (const std::string &Text : In.Texts)
      requestIteration(Text, Limits, Scratch, Ir, R, Out);

  const uint64_t Before = alloccount::allocations();
  for (unsigned I = 0; I != Measured; ++I)
    for (const std::string &Text : In.Texts)
      requestIteration(Text, Limits, Scratch, Ir, R, Out);
  const uint64_t Delta = alloccount::allocations() - Before;

  Table T({"hook_active", "warmup_iters", "measured_iters", "allocations"});
  T.row().add(alloccount::active() ? "yes" : "no").add(uint64_t(Warmup))
      .add(uint64_t(Measured)).add(Delta);
  printTable(T);

  benchRecordMetric("alloc_hook_active", alloccount::active());
  benchRecordMetric("steady_allocations", Delta);
  if (alloccount::active() && Delta != 0)
    std::printf("WARNING: steady state allocated %llu times\n",
                (unsigned long long)Delta);
}

} // namespace

int main(int argc, char **argv) {
  benchInit(&argc, argv, "perf_hotpath");
  HotpathInputs In = makeInputs();
  std::printf("corpus programs: %zu, bytes per sweep: %zu\n",
              In.Texts.size(), In.TotalBytes);
  runThroughput(In);
  runKernels();
  runAllocations(In);
  return benchFinish();
}
