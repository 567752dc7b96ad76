//===- metrics/RunReport.h - Structured observability record -------------===//
//
// Part of the lcm project: a reproduction of "Lazy Code Motion"
// (Knoop, Ruething, Steffen; PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The typed record behind `optimize_tool --report <file.json>` and the
/// bench regression gate: everything one optimization run measured, in one
/// machine-readable document (schema "lcm-run-report-v1", described in
/// docs/OBSERVABILITY.md).
///
/// A report carries per-pass wall time, bit-vector word-op counts, and the
/// Stats-registry deltas each pass caused (dataflow solves/passes/visits,
/// placement insertions/replacements/saves), plus — depending on the mode
/// that produced it — before/after function metrics with temp-lifetime
/// counts, or corpus throughput.  Serialization round-trips through
/// support/Json.h without precision loss (integers stay integers).
///
//===----------------------------------------------------------------------===//

#ifndef LCM_METRICS_RUNREPORT_H
#define LCM_METRICS_RUNREPORT_H

#include <map>
#include <string>
#include <vector>

#include "driver/CorpusDriver.h"
#include "driver/Pipeline.h"
#include "support/Json.h"

namespace lcm {

/// One pipeline step, measured.
struct PassRecord {
  std::string Name;
  double Seconds = 0.0;
  uint64_t Changes = 0;
  /// Bit-vector word operations consumed by the pass.
  uint64_t WordOps = 0;
  /// Stats-registry delta attributable to the pass ("dataflow.passes",
  /// "transform.insertions", ...).
  std::map<std::string, uint64_t> Counters;
};

/// Size/cost metrics of one function snapshot.
struct FunctionMetrics {
  uint64_t Blocks = 0;
  uint64_t StaticOps = 0;
  uint64_t WeightedStaticOps = 0;
  /// Lifetime of introduced temporaries (zero in the "before" snapshot).
  uint64_t TempLiveSlots = 0;
  uint64_t TempMaxPressure = 0;
  uint64_t NumTemps = 0;
};

/// Throughput of one parallel corpus batch.
struct CorpusRecord {
  uint64_t NumFunctions = 0;
  uint64_t Threads = 1;
  double Seconds = 0.0;
  double FunctionsPerSecond = 0.0;
  uint64_t TotalChanges = 0;
  uint64_t Failures = 0;
  /// Functions answered from the result cache (0 when the batch ran
  /// without one; see docs/CACHE.md).
  uint64_t CacheHits = 0;
};

/// The complete structured result of one tool run.
struct RunReport {
  std::string Tool;
  std::string Pipeline;
  bool Ok = true;
  /// True when the run stopped cooperatively (deadline or cancel request)
  /// rather than failing; Ok is false too.
  bool Cancelled = false;
  /// Verifier failure message when !Ok.
  std::string Error;
  double TotalSeconds = 0.0;

  std::vector<PassRecord> Passes;
  /// Counters summed over all passes.
  std::map<std::string, uint64_t> Counters;

  bool HasFunction = false;
  FunctionMetrics Before;
  FunctionMetrics After;

  bool HasCorpus = false;
  CorpusRecord Corpus;

  json::Value toJson() const;
  std::string toJsonText() const { return toJson().dump(); }
  /// Writes the pretty-printed JSON document to \p Path.
  bool writeFile(const std::string &Path) const;

  /// Rebuilds a report from its JSON form (used by tests to assert the
  /// schema round-trips and by tools consuming committed reports).
  /// Returns false when \p V does not carry the expected schema.
  static bool fromJson(const json::Value &V, RunReport &Out);
};

/// Runs \p P over \p Fn with full instrumentation and assembles the report:
/// per-pass records plus before/after function metrics (temp lifetimes are
/// measured against the pre-pipeline variable count, so exactly the
/// pipeline's temporaries are charged).  \p Cancel (optional) is polled at
/// pass boundaries; a fired token yields a report with Cancelled set and
/// the steps that did complete.
RunReport collectRunReport(const Pipeline &P, Function &Fn, std::string Tool,
                           std::string PipelineSpec,
                           const CancelToken *Cancel = nullptr);

/// Assembles the corpus-mode report from a finished batch.  \p StatsDelta
/// is the Stats-registry delta over the batch (snapshot around the
/// optimizeCorpus call).  `passes` lists the batch's per-step sums in
/// pipeline order, without per-pass `counters`.
RunReport makeCorpusReport(const CorpusDriverResult &R, std::string Tool,
                           std::string PipelineSpec,
                           std::map<std::string, uint64_t> StatsDelta);

} // namespace lcm

#endif // LCM_METRICS_RUNREPORT_H
