//===- server/Service.h - One optimization request, executed -------------===//
//
// Part of the lcm project: a reproduction of "Lazy Code Motion"
// (Knoop, Ruething, Steffen; PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The transport-independent core of the optimization service: one request
/// payload in, one response document out.  A request holds one function,
/// a module of several, or a delta against a retained module
/// (docs/INCREMENTAL.md); all three are served by the same loop over their
/// functions, a single function being a module of one.  Everything a
/// hostile client can send lands in a structured error response —
/// resource caps bound parsing (ir/Limits.h), the verifier gates the
/// pipeline, the pipeline re-verifies after every pass, and the deadline
/// is enforced cooperatively through the CancelToken the pipeline polls
/// at pass boundaries.
///
/// Following the independent-checking argument of Monniaux & Six
/// (arXiv:2105.01344), a request may opt into `check`: the service
/// re-executes original and optimized programs under identically seeded
/// branch oracles and inputs and compares observable state
/// (interp/Interpreter.h), refusing to return IR whose behaviour diverged.
///
/// The Server (server/Server.h) calls handle() from its worker pool;
/// optimize_tool-style single-shot callers can use it directly.  handle()
/// is const and the Service holds no mutable state of its own (the
/// optional result cache is internally synchronized), so concurrent calls
/// are safe by construction.
///
/// With a cache configured (ServiceConfig::Cache), the request's
/// canonicalized IR and pipeline fingerprint form a content-addressed key:
/// repeat programs are answered from the cache without running the
/// pipeline, and concurrent identical requests coalesce onto a single
/// computation (cache/SingleFlight.h).  Since the pipeline is
/// deterministic for a fixed key, a hit is byte-identical to a recompute.
///
//===----------------------------------------------------------------------===//

#ifndef LCM_SERVER_SERVICE_H
#define LCM_SERVER_SERVICE_H

#include <memory>
#include <vector>

#include "cache/ResultCache.h"
#include "cache/RetainedIr.h"
#include "ir/Function.h"
#include "ir/Limits.h"
#include "server/Protocol.h"
#include "support/Json.h"

namespace lcm {
namespace server {

struct ServiceConfig {
  /// Resource caps applied to every request's IR.
  IRLimits Limits;
  /// Requests asking for more than this are clamped (0 disables clamping).
  int64_t MaxDeadlineMs = 60'000;
  /// Deadline applied when the request carries none; negative = none.
  int64_t DefaultDeadlineMs = -1;
  /// Seeded executions per semantic check (`check: true`).
  unsigned CheckRuns = 3;
  /// Honor the test-only `test_sleep_ms` request option.  Only the
  /// integration tests enable this.
  bool EnableTestOptions = false;
  /// Content-addressed result cache (docs/CACHE.md).  When set, requests
  /// are keyed by canonical IR x pipeline fingerprint: hits skip the
  /// pipeline entirely, concurrent identical misses coalesce into one
  /// computation, and `ok` responses carry `cached` + `cache_key` fields.
  /// Null disables caching (every request runs the pipeline).
  std::shared_ptr<cache::ResultCache> Cache;
  /// Retained-IR tier for protocol-v4 delta requests
  /// (docs/INCREMENTAL.md): maps every served request key to its canonical
  /// *input* split per function, so a later `base_key` + patch request can
  /// re-optimize only the edited function.  Null disables delta serving
  /// (v4 requests then fall back to their full-text `ir`, or answer
  /// `base_miss` without one).
  std::shared_ptr<cache::RetainedIrCache> Retained;
  /// Worker-pool size to report in `server_info` responses; informational
  /// only (the Service itself does not own threads).  0 = omit.
  unsigned ReportWorkers = 0;
};

class Service {
public:
  explicit Service(ServiceConfig Config = {}) : Config(Config) {}

  const ServiceConfig &config() const { return Config; }

  /// Executes one request payload (the JSON text of a frame) and returns
  /// the response document.  Never throws; every failure mode is a
  /// structured status.  Bumps the `server.*` Stats counters.
  json::Value handle(const std::string &Payload) const;

  /// A `validate: true` request's equivalence check over every function it
  /// serves, split off handle() so the Server can run it on a dedicated
  /// validator pool instead of the worker that ran the pipeline: the check
  /// re-executes the program Config.CheckRuns times and dominates a
  /// validating request's service time (docs/SERVER.md), so keeping it off
  /// the workers keeps the pipeline pool's throughput intact under
  /// validating load.
  struct PendingValidation {
    /// True when handle() deferred: the caller owns finishing the request
    /// with finishValidation().
    bool Active = false;
    /// Echoed request id, for the failure response.
    json::Value Id;
    /// Pristine parse of each served function, in answer order — the
    /// validation baselines.
    std::vector<Function> Originals;
    /// The IR about to be served (the answer's `ir`), split per function,
    /// reparsed and re-executed by the check.
    std::string ServedIr;
    /// Seeded executions to run.
    unsigned Runs = 0;
    /// The fully assembled success response (already carrying
    /// `validated: true`), returned verbatim when the check passes.
    json::Value Response;
  };

  /// Like handle(), but a validating request that reaches the serving
  /// step does not run its equivalence check inline: \p Deferred is
  /// filled (Active = true) and the returned document is null — the
  /// caller must complete the request with finishValidation(), on any
  /// thread.  Requests that fail earlier, or never asked to validate,
  /// behave exactly like handle() and leave Deferred inactive.
  json::Value handle(const std::string &Payload,
                     PendingValidation &Deferred) const;

  /// Runs a deferred equivalence check and returns the final response:
  /// the deferred success document, or `validation_failed`.
  json::Value finishValidation(PendingValidation &&P) const;

private:
  json::Value handleImpl(const std::string &Payload,
                         PendingValidation *Deferred) const;

  ServiceConfig Config;
};

} // namespace server
} // namespace lcm

#endif // LCM_SERVER_SERVICE_H
