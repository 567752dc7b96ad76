//===- tests/server_integration_test.cpp - Server end-to-end over sockets -===//
//
// Spins up the real Server (listeners, reader threads, worker pool) inside
// the test process and drives it with real socket clients, pinning the
// acceptance contract of docs/SERVER.md:
//
// - concurrent clients over loopback TCP: every request answered exactly
//   once, no lost or corrupted responses, and every optimized program is
//   re-checked for semantic equivalence against the original under the
//   interpreter's seeded oracle (the same alignment property_test uses);
// - the Unix-domain transport serves the same protocol;
// - backpressure: a full bounded queue answers `overloaded` immediately;
// - deadlines: an expired deadline answers `deadline_exceeded`;
// - malformed payloads and broken framing answer structured errors;
// - graceful drain: shutdown() while requests are executing still answers
//   everything admitted, and frames arriving mid-drain get
//   `shutting_down`.
//
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"
#include "ir/Parser.h"
#include "metrics/Cost.h"
#include "server/Client.h"
#include "server/Server.h"
#include "support/Stats.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace lcm;
using namespace lcm::server;
using json::Value;

namespace {

const char *Programs[] = {
    // Partially redundant a+b: the paper's motivating shape.
    "block entry\n  goto top\n"
    "block top\n  if p then compute else skip\n"
    "block compute\n  h = a + b\n  x = h\n  goto join\n"
    "block skip\n  t = k\n  goto join\n"
    "block join\n  y = a + b\n  exit\n",
    // A loop with an invariant expression.
    "block entry\n  i = 4\n  goto loop\n"
    "block loop\n  x = a + b\n  i = i - 1\n  c = i > 0\n"
    "  if c then loop else done\n"
    "block done\n  z = x + i\n  exit\n",
    // Straight-line redundancy for LCSE.
    "block b0\n  x = a + b\n  y = a + b\n  z = x + y\n  exit\n",
};

/// The oracle check the acceptance criteria demand: the IR a response
/// carries must behave exactly like the program that was sent.  Unlike
/// property_test, the optimized side here comes back *reparsed*, so its
/// VarIds follow first-appearance order in the response text (new PRE
/// temps shift everything); inputs and final state are therefore aligned
/// by variable name, not by id.
testing::AssertionResult equivalentToOriginal(const std::string &OriginalIr,
                                              const std::string &ResponseIr) {
  ParseResult Orig = parseFunction(OriginalIr);
  if (!Orig)
    return testing::AssertionFailure() << "original unparsable: " << Orig.Error;
  ParseResult Opt = parseFunction(ResponseIr);
  if (!Opt)
    return testing::AssertionFailure() << "response unparsable: " << Opt.Error;

  for (uint64_t Seed = 1; Seed <= 3; ++Seed) {
    std::vector<int64_t> Inputs =
        makeSeededInputs(Seed, Orig.Fn.numVars());
    std::vector<int64_t> OptInputs(Opt.Fn.numVars(), 0);
    for (VarId V = 0; V != VarId(Orig.Fn.numVars()); ++V) {
      VarId W = Opt.Fn.findVar(Orig.Fn.varName(V));
      if (W != InvalidVar)
        OptInputs[W] = Inputs[V];
    }

    Interpreter::Options Opts;
    Opts.MaxOriginalBlockVisits = 3000;
    Opts.OriginalBlockCount = uint32_t(Orig.Fn.numBlocks());
    RandomOracle OracleA(Seed ^ 0x94d049bb133111ebULL);
    RandomOracle OracleB(Seed ^ 0x94d049bb133111ebULL);
    InterpResult Base = Interpreter::run(Orig.Fn, Inputs, OracleA, Opts);
    InterpResult After = Interpreter::run(Opt.Fn, OptInputs, OracleB, Opts);

    if (Base.ReachedExit != After.ReachedExit ||
        Base.OriginalBlocksExecuted != After.OriginalBlocksExecuted)
      return testing::AssertionFailure()
             << "runs stopped at different points under seed " << Seed
             << "\n== response ==\n"
             << ResponseIr;
    for (VarId V = 0; V != VarId(Orig.Fn.numVars()); ++V) {
      VarId W = Opt.Fn.findVar(Orig.Fn.varName(V));
      if (W == InvalidVar || Base.Vars[V] != After.Vars[W])
        return testing::AssertionFailure()
               << "variable '" << Orig.Fn.varName(V)
               << "' diverged under seed " << Seed << "\n== response ==\n"
               << ResponseIr;
    }
  }
  return testing::AssertionSuccess();
}

std::string statusOf(const Value &Response) {
  const Value *S = Response.find("status");
  return S && S->isString() ? S->asString() : "(missing)";
}

Request makeRequest(int64_t Id, const std::string &Ir) {
  Request R;
  R.Id = Value::number(Id);
  R.Ir = Ir;
  return R;
}

struct RunningServer {
  explicit RunningServer(ServerOptions Opts) : S(Opts) {
    std::string Error;
    Started = S.start(Error);
    EXPECT_TRUE(Started) << Error;
  }
  ~RunningServer() { S.shutdown(); }
  Server S;
  bool Started = false;
};

//===----------------------------------------------------------------------===//
// Concurrency: N clients x M requests, zero lost, all equivalent
//===----------------------------------------------------------------------===//

TEST(ServerIntegration, ConcurrentClientsOverTcp) {
  ServerOptions Opts;
  Opts.TcpPort = 0;
  Opts.Workers = 4;
  Opts.QueueCapacity = 256;
  RunningServer Srv(Opts);
  ASSERT_TRUE(Srv.Started);
  const int Port = Srv.S.tcpPort();
  ASSERT_GT(Port, 0);

  constexpr int NumClients = 4;
  constexpr int RequestsPerClient = 50;
  std::atomic<int> OkResponses{0};
  std::atomic<int> Failures{0};

  std::vector<std::thread> Clients;
  for (int C = 0; C != NumClients; ++C)
    Clients.emplace_back([&, C] {
      Client Cl;
      std::string Error;
      if (!Cl.connectTcp(Port, Error, /*RetryMs=*/2000)) {
        ADD_FAILURE() << Error;
        Failures.fetch_add(RequestsPerClient);
        return;
      }
      for (int I = 0; I != RequestsPerClient; ++I) {
        const int64_t Id = int64_t(C) * RequestsPerClient + I;
        const std::string &Ir =
            Programs[size_t(Id) % (sizeof(Programs) / sizeof(Programs[0]))];
        Value Response;
        if (!Cl.call(makeRequest(Id, Ir), Response, Error)) {
          ADD_FAILURE() << "client " << C << " request " << I << ": " << Error;
          Failures.fetch_add(1);
          return;
        }
        // Exactly-once, uncorrupted: right schema, right id, ok status,
        // and semantically equivalent IR.
        if (statusOf(Response) != "ok" ||
            !(*Response.find("id") == Value::number(Id)) ||
            !equivalentToOriginal(Ir, Response.find("ir")->asString())) {
          ADD_FAILURE() << "bad response for id " << Id << ": "
                        << Response.dump();
          Failures.fetch_add(1);
          continue;
        }
        OkResponses.fetch_add(1);
      }
    });
  for (std::thread &T : Clients)
    T.join();

  EXPECT_EQ(Failures.load(), 0);
  EXPECT_EQ(OkResponses.load(), NumClients * RequestsPerClient);
  // Drain before reading counters: a client can see its response bytes
  // before the worker's post-send counter increment has executed, so the
  // counts are only stable once the workers have been joined.
  Srv.S.shutdown();
  Server::Counters Counters = Srv.S.counters();
  EXPECT_EQ(Counters.FramesIn, uint64_t(NumClients * RequestsPerClient));
  EXPECT_EQ(Counters.ResponsesOut, uint64_t(NumClients * RequestsPerClient));
  EXPECT_EQ(Counters.Overloaded, 0u);
  EXPECT_EQ(Counters.FramingErrors, 0u);
}

TEST(ServerIntegration, UnixTransport) {
  const std::string Path =
      "/tmp/lcm_it_" + std::to_string(::getpid()) + ".sock";
  ServerOptions Opts;
  Opts.UnixPath = Path;
  Opts.Workers = 2;
  RunningServer Srv(Opts);
  ASSERT_TRUE(Srv.Started);

  Client Cl;
  std::string Error;
  ASSERT_TRUE(Cl.connectUnix(Path, Error, /*RetryMs=*/2000)) << Error;
  for (int I = 0; I != 10; ++I) {
    Value Response;
    ASSERT_TRUE(Cl.call(makeRequest(I, Programs[0]), Response, Error))
        << Error;
    EXPECT_EQ(statusOf(Response), "ok");
    EXPECT_TRUE(
        equivalentToOriginal(Programs[0], Response.find("ir")->asString()));
  }
  Srv.S.shutdown();
  EXPECT_NE(::access(Path.c_str(), F_OK), 0)
      << "socket file survived shutdown";
}

//===----------------------------------------------------------------------===//
// Backpressure
//===----------------------------------------------------------------------===//

TEST(ServerIntegration, BackpressureAnswersOverloaded) {
  ServerOptions Opts;
  Opts.TcpPort = 0;
  Opts.Workers = 1;
  Opts.QueueCapacity = 1;
  Opts.Service.EnableTestOptions = true;
  RunningServer Srv(Opts);
  ASSERT_TRUE(Srv.Started);

  Client Cl;
  std::string Error;
  ASSERT_TRUE(Cl.connectTcp(Srv.S.tcpPort(), Error, 2000)) << Error;

  // Occupy the single worker, then give it time to claim the request so
  // the queue is empty again.
  Request Slow = makeRequest(1, Programs[2]);
  Slow.TestSleepMs = 600;
  ASSERT_TRUE(Cl.sendPayload(requestToJson(Slow).dump(0), Error)) << Error;
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  // One request fits the queue; the rest must be refused immediately.
  constexpr int Extra = 5;
  for (int I = 0; I != Extra; ++I)
    ASSERT_TRUE(Cl.sendPayload(
        requestToJson(makeRequest(2 + I, Programs[2])).dump(0), Error))
        << Error;

  int Ok = 0, Overloaded = 0;
  for (int I = 0; I != 1 + Extra; ++I) {
    Value Response;
    ASSERT_TRUE(Cl.recvResponse(Response, Error)) << Error;
    std::string Status = statusOf(Response);
    if (Status == "ok")
      ++Ok;
    else if (Status == "overloaded")
      ++Overloaded;
    else
      ADD_FAILURE() << "unexpected status: " << Response.dump();
  }
  // The sleeping request and the one the queue buffered complete; the
  // other four were shed at admission.
  EXPECT_EQ(Ok, 2);
  EXPECT_EQ(Overloaded, Extra - 1);
  EXPECT_EQ(Srv.S.counters().Overloaded, uint64_t(Extra - 1));
}

//===----------------------------------------------------------------------===//
// Deadlines
//===----------------------------------------------------------------------===//

TEST(ServerIntegration, ExpiredDeadlineAnswersDeadlineExceeded) {
  ServerOptions Opts;
  Opts.TcpPort = 0;
  RunningServer Srv(Opts);
  ASSERT_TRUE(Srv.Started);

  Client Cl;
  std::string Error;
  ASSERT_TRUE(Cl.connectTcp(Srv.S.tcpPort(), Error, 2000)) << Error;

  Request R = makeRequest(7, Programs[1]);
  R.DeadlineMs = 0; // Already expired when the worker picks it up.
  Value Response;
  ASSERT_TRUE(Cl.call(R, Response, Error)) << Error;
  EXPECT_EQ(statusOf(Response), "deadline_exceeded");
  EXPECT_TRUE(*Response.find("id") == Value::number(int64_t(7)));

  // The connection is still healthy for the next request.
  ASSERT_TRUE(Cl.call(makeRequest(8, Programs[1]), Response, Error)) << Error;
  EXPECT_EQ(statusOf(Response), "ok");
}

//===----------------------------------------------------------------------===//
// Hostile input
//===----------------------------------------------------------------------===//

TEST(ServerIntegration, MalformedPayloadsGetStructuredErrors) {
  ServerOptions Opts;
  Opts.TcpPort = 0;
  RunningServer Srv(Opts);
  ASSERT_TRUE(Srv.Started);

  Client Cl;
  std::string Error;
  ASSERT_TRUE(Cl.connectTcp(Srv.S.tcpPort(), Error, 2000)) << Error;

  struct Case {
    const char *Payload;
    const char *Status;
  } Cases[] = {
      {"this is not json", "bad_request"},
      {R"({"schema":"lcm-request-v1"})", "bad_request"},
      {R"({"schema":"lcm-request-v1","ir":"block b0\n  wat\n"})",
       "parse_error"},
      {R"({"schema":"lcm-request-v1","ir":"block b0\n  exit\n",)"
       R"("pipeline":"no-such-pass"})",
       "bad_request"},
  };
  for (const Case &C : Cases) {
    ASSERT_TRUE(Cl.sendPayload(C.Payload, Error)) << Error;
    Value Response;
    ASSERT_TRUE(Cl.recvResponse(Response, Error)) << Error;
    EXPECT_EQ(statusOf(Response), C.Status) << C.Payload;
    EXPECT_TRUE(Response.find("error") != nullptr);
  }
  // The server survived all of it.
  Value Response;
  ASSERT_TRUE(Cl.call(makeRequest(1, Programs[0]), Response, Error)) << Error;
  EXPECT_EQ(statusOf(Response), "ok");
}

TEST(ServerIntegration, BrokenFramingGetsErrorThenClose) {
  ServerOptions Opts;
  Opts.TcpPort = 0;
  RunningServer Srv(Opts);
  ASSERT_TRUE(Srv.Started);

  Client Cl;
  std::string Error;
  ASSERT_TRUE(Cl.connectTcp(Srv.S.tcpPort(), Error, 2000)) << Error;

  // A zero-length frame poisons the stream: one structured error comes
  // back, then the server hangs up.
  ASSERT_TRUE(Cl.sendPayload("", Error)) << Error;
  Value Response;
  ASSERT_TRUE(Cl.recvResponse(Response, Error)) << Error;
  EXPECT_EQ(statusOf(Response), "bad_request");
  EXPECT_NE(Response.find("error")->asString().find("framing"),
            std::string::npos);
  EXPECT_FALSE(Cl.recvResponse(Response, Error));
  EXPECT_EQ(Srv.S.counters().FramingErrors, 1u);
}

TEST(ServerIntegration, OverLimitIrAnswersLimits) {
  ServerOptions Opts;
  Opts.TcpPort = 0;
  Opts.Service.Limits.MaxBlocks = 2;
  RunningServer Srv(Opts);
  ASSERT_TRUE(Srv.Started);

  Client Cl;
  std::string Error;
  ASSERT_TRUE(Cl.connectTcp(Srv.S.tcpPort(), Error, 2000)) << Error;
  Value Response;
  ASSERT_TRUE(Cl.call(makeRequest(1, Programs[0]), Response, Error)) << Error;
  EXPECT_EQ(statusOf(Response), "limits");
}

//===----------------------------------------------------------------------===//
// Graceful drain
//===----------------------------------------------------------------------===//

TEST(ServerIntegration, DrainAnswersInFlightAndShedsNewFrames) {
  ServerOptions Opts;
  Opts.TcpPort = 0;
  Opts.Workers = 2;
  Opts.QueueCapacity = 16;
  Opts.Service.EnableTestOptions = true;
  RunningServer Srv(Opts);
  ASSERT_TRUE(Srv.Started);
  const int Port = Srv.S.tcpPort();

  // Four slow requests: two executing, two queued behind them.
  Client Cl;
  std::string Error;
  ASSERT_TRUE(Cl.connectTcp(Port, Error, 2000)) << Error;
  constexpr int InFlight = 4;
  for (int I = 0; I != InFlight; ++I) {
    Request R = makeRequest(I, Programs[2]);
    R.TestSleepMs = 400;
    ASSERT_TRUE(Cl.sendPayload(requestToJson(R).dump(0), Error)) << Error;
  }

  // A second connection fires one frame mid-drain; it must be shed with
  // `shutting_down`, not silently dropped.
  std::thread LateSender([&] {
    Client Late;
    std::string Err;
    if (!Late.connectTcp(Port, Err, 2000)) {
      ADD_FAILURE() << Err;
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    if (!Late.sendPayload(requestToJson(makeRequest(99, Programs[2])).dump(0),
                          Err)) {
      ADD_FAILURE() << Err;
      return;
    }
    Value Response;
    if (!Late.recvResponse(Response, Err)) {
      ADD_FAILURE() << Err;
      return;
    }
    EXPECT_EQ(statusOf(Response), "shutting_down") << Response.dump();
  });

  // Begin the drain while all four are still in flight (workers sleep
  // 400ms each, two rounds); shutdown() must block until they are
  // answered.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  Srv.S.shutdown();

  int Ok = 0;
  for (int I = 0; I != InFlight; ++I) {
    Value Response;
    ASSERT_TRUE(Cl.recvResponse(Response, Error)) << Error;
    if (statusOf(Response) == "ok")
      ++Ok;
    else
      ADD_FAILURE() << "in-flight request lost: " << Response.dump();
  }
  EXPECT_EQ(Ok, InFlight);
  LateSender.join();
  EXPECT_EQ(Srv.S.counters().ShedShuttingDown, 1u);
}

//===----------------------------------------------------------------------===//
// Result cache over the wire
//===----------------------------------------------------------------------===//

std::shared_ptr<cache::ResultCache> openCache(const std::string &DiskDir) {
  cache::ResultCacheConfig Config;
  Config.DiskDir = DiskDir;
  auto Cache = std::make_shared<cache::ResultCache>(Config);
  std::string Error;
  EXPECT_TRUE(Cache->open(Error)) << Error;
  return Cache;
}

TEST(ServerIntegration, CachedResponsesOverTcp) {
  ServerOptions Opts;
  Opts.TcpPort = 0;
  Opts.Workers = 2;
  Opts.Service.Cache = openCache("");
  RunningServer Srv(Opts);
  ASSERT_TRUE(Srv.Started);

  Client Cl;
  std::string Error;
  ASSERT_TRUE(Cl.connectTcp(Srv.S.tcpPort(), Error, 2000)) << Error;

  Value First, Second;
  ASSERT_TRUE(Cl.call(makeRequest(1, Programs[0]), First, Error)) << Error;
  ASSERT_EQ(statusOf(First), "ok") << First.dump();
  const Value *Cached = First.find("cached");
  ASSERT_NE(Cached, nullptr);
  EXPECT_FALSE(Cached->asBool());

  ASSERT_TRUE(Cl.call(makeRequest(2, Programs[0]), Second, Error)) << Error;
  ASSERT_EQ(statusOf(Second), "ok") << Second.dump();
  Cached = Second.find("cached");
  ASSERT_NE(Cached, nullptr);
  EXPECT_TRUE(Cached->asBool()) << Second.dump();
  EXPECT_EQ(Second.find("ir")->asString(), First.find("ir")->asString())
      << "a cache hit must be byte-identical over the wire";
  EXPECT_EQ(Second.find("cache_key")->asString(),
            First.find("cache_key")->asString());
  EXPECT_TRUE(equivalentToOriginal(Programs[0],
                                   Second.find("ir")->asString()));
}

//===----------------------------------------------------------------------===//
// Per-request translation validation (protocol v2)
//===----------------------------------------------------------------------===//

TEST(ServerIntegration, ValidatedResponsesOverTcp) {
  ServerOptions Opts;
  Opts.TcpPort = 0;
  Opts.Workers = 2;
  Opts.Service.Cache = openCache("");
  RunningServer Srv(Opts);
  ASSERT_TRUE(Srv.Started);

  Client Cl;
  std::string Error;
  ASSERT_TRUE(Cl.connectTcp(Srv.S.tcpPort(), Error, 2000)) << Error;

  Request R = makeRequest(1, Programs[0]);
  R.Validate = true;
  Value First;
  ASSERT_TRUE(Cl.call(R, First, Error)) << Error;
  ASSERT_EQ(statusOf(First), "ok") << First.dump();
  ASSERT_NE(First.find("validated"), nullptr) << First.dump();
  EXPECT_TRUE(First.find("validated")->asBool());
  EXPECT_FALSE(First.find("cached")->asBool());

  // Validation runs on the served bytes, cache hits included — and the
  // validate flag itself must not fork the cache key.
  R.Id = Value::number(int64_t(2));
  Value Second;
  ASSERT_TRUE(Cl.call(R, Second, Error)) << Error;
  ASSERT_EQ(statusOf(Second), "ok") << Second.dump();
  EXPECT_TRUE(Second.find("cached")->asBool())
      << "a validate request must share the entry a plain request made";
  EXPECT_TRUE(Second.find("validated")->asBool());
  EXPECT_EQ(Second.find("cache_key")->asString(),
            First.find("cache_key")->asString());
}

TEST(ServerIntegration, ValidatorPoolOffloadsChecks) {
  // With a dedicated validator pool, the oracle re-execution leaves the
  // pipeline workers: responses still arrive validated, and the offload
  // counter proves the handoff actually happened.
  const uint64_t OffloadedBefore = Stats::get("server.validations_offloaded");
  const uint64_t InlineBefore =
      Stats::get("server.validations_inline_fallback");
  ServerOptions Opts;
  Opts.TcpPort = 0;
  Opts.Workers = 2;
  Opts.Validators = 2;
  // Deltas need the result cache and the retained tier.
  Opts.Service.Cache = openCache("");
  Opts.Service.Retained = std::make_shared<cache::RetainedIrCache>();
  RunningServer Srv(Opts);
  ASSERT_TRUE(Srv.Started);

  Client Cl;
  std::string Error;
  ASSERT_TRUE(Cl.connectTcp(Srv.S.tcpPort(), Error, 2000)) << Error;

  const std::string Module = std::string("func a\n") + Programs[0] +
                             "func b\n" + Programs[2];
  for (int I = 0; I != 12; ++I) {
    Request R = makeRequest(I, Programs[I % 3]);
    R.Validate = true;
    Value Response;
    ASSERT_TRUE(Cl.call(R, Response, Error)) << Error;
    ASSERT_EQ(statusOf(Response), "ok") << Response.dump();
    ASSERT_NE(Response.find("validated"), nullptr) << Response.dump();
    EXPECT_TRUE(Response.find("validated")->asBool());
    EXPECT_TRUE(equivalentToOriginal(Programs[I % 3],
                                     Response.find("ir")->asString()));

    // A two-function module, then a delta editing its second function.
    Request M = makeRequest(100 + I, Module);
    M.Validate = true;
    Value ModuleResponse;
    ASSERT_TRUE(Cl.call(M, ModuleResponse, Error)) << Error;
    ASSERT_EQ(statusOf(ModuleResponse), "ok") << ModuleResponse.dump();
    EXPECT_TRUE(ModuleResponse.find("validated")->asBool());
    Request D = makeRequest(200 + I, "");
    D.BaseKey = ModuleResponse.find("cache_key")->asString();
    D.Patch.push_back({PatchOp::Kind::ReplaceBlock, "b0", "", "b",
                       "block b0\n  x = a + b\n  z = x + x\n  exit\n"});
    D.Validate = true;
    Value DeltaResponse;
    ASSERT_TRUE(Cl.call(D, DeltaResponse, Error)) << Error;
    ASSERT_EQ(statusOf(DeltaResponse), "ok") << DeltaResponse.dump();
    EXPECT_EQ(DeltaResponse.find("delta")->asString(), "applied");
    EXPECT_TRUE(DeltaResponse.find("validated")->asBool());
  }
  // A worker counts its hand-off after the validator may already have
  // answered; joining the workers makes the counts final.
  Srv.S.shutdown();

  EXPECT_GT(Stats::get("server.validations_offloaded"), OffloadedBefore)
      << "validator pool configured but every check ran inline";
  // Every check was handed to the pool (a full hand-off queue finishes
  // inline instead), modules and deltas included.
  EXPECT_EQ(Stats::get("server.validations_offloaded") - OffloadedBefore +
                Stats::get("server.validations_inline_fallback") -
                InlineBefore,
            36u);
}

TEST(ServerIntegration, ValidateFlagToleratedOnV1Payloads) {
  // Back-compat: a hand-rolled v1 payload carrying `validate` is honored
  // (the field predates no semantics), and plain v1 payloads still work.
  ServerOptions Opts;
  Opts.TcpPort = 0;
  RunningServer Srv(Opts);
  ASSERT_TRUE(Srv.Started);

  Client Cl;
  std::string Error;
  ASSERT_TRUE(Cl.connectTcp(Srv.S.tcpPort(), Error, 2000)) << Error;
  ASSERT_TRUE(Cl.sendPayload(
      R"({"schema":"lcm-request-v1","id":1,)"
      R"("ir":"block b0\n  x = a + b\n  y = a + b\n  exit\n",)"
      R"("validate":true})",
      Error))
      << Error;
  Value Response;
  ASSERT_TRUE(Cl.recvResponse(Response, Error)) << Error;
  EXPECT_EQ(statusOf(Response), "ok") << Response.dump();
  ASSERT_NE(Response.find("validated"), nullptr);
  EXPECT_TRUE(Response.find("validated")->asBool());

  // A Request that sets Validate stamps the v2 schema on the wire, so an
  // old server fails loudly instead of silently skipping the check.
  Request R = makeRequest(2, Programs[0]);
  R.Validate = true;
  const std::string Wire = requestToJson(R).dump(0);
  EXPECT_NE(Wire.find("lcm-request-v2"), std::string::npos) << Wire;
}

TEST(ServerIntegration, ValidationRefusesPoisonedCacheEntry) {
  // The checker, not the optimizer (or its cache), is the trusted
  // component: corrupt the cache entry behind a request's key and the
  // validate path must refuse to serve it.
  auto Cache = openCache("");
  ServerOptions Opts;
  Opts.TcpPort = 0;
  Opts.Service.Cache = Cache;
  RunningServer Srv(Opts);
  ASSERT_TRUE(Srv.Started);

  Client Cl;
  std::string Error;
  ASSERT_TRUE(Cl.connectTcp(Srv.S.tcpPort(), Error, 2000)) << Error;

  // Learn the key from an honest request, then poison the entry with a
  // well-formed but semantically different program (z flips + to -).
  Value First;
  ASSERT_TRUE(Cl.call(makeRequest(1, Programs[2]), First, Error)) << Error;
  ASSERT_EQ(statusOf(First), "ok") << First.dump();
  cache::Digest Key;
  ASSERT_TRUE(
      cache::Digest::fromHex(First.find("cache_key")->asString(), Key));
  cache::CacheEntry Poisoned;
  Poisoned.Ir = "block b0\n  x = a + b\n  y = a + b\n  z = x - y\n  exit\n";
  Cache->put(Key, Poisoned);

  Request R = makeRequest(2, Programs[2]);
  R.Validate = true;
  Value Response;
  ASSERT_TRUE(Cl.call(R, Response, Error)) << Error;
  EXPECT_EQ(statusOf(Response), "validation_failed") << Response.dump();
  EXPECT_TRUE(*Response.find("id") == Value::number(int64_t(2)));
  EXPECT_NE(Response.find("error"), nullptr);

  // Without validation the poisoned bytes sail through — exactly why the
  // serving-path check exists.
  Value Unchecked;
  ASSERT_TRUE(Cl.call(makeRequest(3, Programs[2]), Unchecked, Error))
      << Error;
  EXPECT_EQ(statusOf(Unchecked), "ok");
  EXPECT_EQ(Unchecked.find("ir")->asString(), Poisoned.Ir);
}

TEST(ServerIntegration, DiskCacheSurvivesServerRestart) {
  const std::string Dir =
      "/tmp/lcm_it_cache_" + std::to_string(::getpid());
  std::string Cleanup = "rm -rf '" + Dir + "'";
  int Ignored = std::system(Cleanup.c_str());
  (void)Ignored;

  std::string FirstIr, FirstKey;
  {
    ServerOptions Opts;
    Opts.TcpPort = 0;
    Opts.Service.Cache = openCache(Dir);
    RunningServer Srv(Opts);
    ASSERT_TRUE(Srv.Started);
    Client Cl;
    std::string Error;
    ASSERT_TRUE(Cl.connectTcp(Srv.S.tcpPort(), Error, 2000)) << Error;
    Value Response;
    ASSERT_TRUE(Cl.call(makeRequest(1, Programs[1]), Response, Error))
        << Error;
    ASSERT_EQ(statusOf(Response), "ok") << Response.dump();
    FirstIr = Response.find("ir")->asString();
    FirstKey = Response.find("cache_key")->asString();
  } // Server drains; the entry is on disk.

  // A brand-new server over the same directory answers from the warm
  // cache on the very first request.
  ServerOptions Opts;
  Opts.TcpPort = 0;
  Opts.Service.Cache = openCache(Dir);
  RunningServer Srv(Opts);
  ASSERT_TRUE(Srv.Started);
  Client Cl;
  std::string Error;
  ASSERT_TRUE(Cl.connectTcp(Srv.S.tcpPort(), Error, 2000)) << Error;
  Value Response;
  ASSERT_TRUE(Cl.call(makeRequest(2, Programs[1]), Response, Error)) << Error;
  ASSERT_EQ(statusOf(Response), "ok") << Response.dump();
  EXPECT_TRUE(Response.find("cached")->asBool())
      << "first request after restart should hit the persisted entry";
  EXPECT_EQ(Response.find("ir")->asString(), FirstIr);
  EXPECT_EQ(Response.find("cache_key")->asString(), FirstKey);

  Ignored = std::system(Cleanup.c_str());
  (void)Ignored;
}

} // namespace
