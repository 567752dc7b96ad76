//===- tests/incremental_service_test.cpp - Module + delta serving -------===//
//
// Service-level coverage of incremental reoptimization (docs/INCREMENTAL.md):
// the protocol-v4 request form (base_key + block-level patch), module
// requests with per-function memoization, delta materialization from the
// retained-IR tier with its applied/fallback/base_miss ladder, and a
// randomized edit-sequence harness that applies 50+ block mutations to
// corpus programs and pins every delta response byte-identical to a
// from-scratch full-text request — with the interpreter-oracle validation
// (`validate: true`) running on every delta response served.
//
//===----------------------------------------------------------------------===//

#include "cache/ResultCache.h"
#include "cache/RetainedIr.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "server/Protocol.h"
#include "server/Service.h"
#include "support/Stats.h"
#include "workload/Corpus.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

using namespace lcm;
using namespace lcm::server;
using json::Value;

namespace {

std::string statusOf(const Value &Response) {
  const Value *S = Response.find("status");
  return S && S->isString() ? S->asString() : "(missing)";
}

std::string strField(const Value &V, const char *Key) {
  const Value *F = V.find(Key);
  return F && F->isString() ? F->asString() : std::string();
}

bool boolField(const Value &V, const char *Key) {
  const Value *F = V.find(Key);
  return F && F->isBool() && F->asBool();
}

/// A service with both the result cache and the retained-IR tier, i.e. a
/// delta-serving configuration.
Service makeIncrementalService() {
  ServiceConfig Config;
  Config.Cache =
      std::make_shared<cache::ResultCache>(cache::ResultCacheConfig());
  std::string Error;
  EXPECT_TRUE(Config.Cache->open(Error)) << Error;
  Config.Retained = std::make_shared<cache::RetainedIrCache>();
  return Service(Config);
}

/// A cacheless service: every request runs the pipeline from scratch — the
/// oracle the incremental results are compared against.
Service makeScratchService() { return Service(ServiceConfig{}); }

std::string payloadFor(const Request &R) { return requestToJson(R).dump(); }

/// Canonical printed text of one corpus entry.
std::string corpusText(const CorpusEntry &E) {
  Function Fn = E.Make();
  std::string Text;
  printFunction(Fn, Text);
  return Text;
}

//===----------------------------------------------------------------------===//
// Client-side mirror of the server's block splicing
//===----------------------------------------------------------------------===//

/// Span of the block labelled \p Label in canonical per-function text:
/// its header line through the next `block` header (or end of text).
bool findSpan(const std::string &Text, const std::string &Label,
              size_t &Begin, size_t &End) {
  size_t Pos = 0;
  bool In = false;
  while (Pos < Text.size()) {
    size_t Nl = Text.find('\n', Pos);
    size_t LineEnd = Nl == std::string::npos ? Text.size() : Nl;
    std::string_view Line(Text.data() + Pos, LineEnd - Pos);
    if (Line.substr(0, 6) == "block ") {
      if (In) {
        End = Pos;
        return true;
      }
      if (Line.substr(6) == Label) {
        In = true;
        Begin = Pos;
      }
    }
    Pos = Nl == std::string::npos ? Text.size() : Nl + 1;
  }
  End = Text.size();
  return In;
}

std::vector<std::string> blockLabels(const std::string &Text) {
  std::vector<std::string> Labels;
  size_t Pos = 0;
  while (Pos < Text.size()) {
    size_t Nl = Text.find('\n', Pos);
    size_t LineEnd = Nl == std::string::npos ? Text.size() : Nl;
    std::string_view Line(Text.data() + Pos, LineEnd - Pos);
    if (Line.substr(0, 6) == "block ")
      Labels.emplace_back(Line.substr(6));
    Pos = Nl == std::string::npos ? Text.size() : Nl + 1;
  }
  return Labels;
}

/// Applies one patch op to a shadow function text with the same splice
/// semantics the server uses, so the harness can predict the program every
/// delta request denotes.
void applyOpLocally(std::string &Text, const PatchOp &Op) {
  std::string Block = Op.Ir;
  if (!Block.empty() && Block.back() != '\n')
    Block += '\n';
  size_t B = 0, E = 0;
  switch (Op.K) {
  case PatchOp::Kind::ReplaceBlock:
    ASSERT_TRUE(findSpan(Text, Op.Label, B, E)) << Op.Label;
    Text.replace(B, E - B, Block);
    break;
  case PatchOp::Kind::RemoveBlock:
    ASSERT_TRUE(findSpan(Text, Op.Label, B, E)) << Op.Label;
    Text.erase(B, E - B);
    break;
  case PatchOp::Kind::InsertBlock:
    ASSERT_TRUE(findSpan(Text, Op.After, B, E)) << Op.After;
    Text.insert(E, Block);
    break;
  }
}

/// Reparses and reprints \p Text — the server retains the canonical print
/// of every function it serves, so the shadow must canonicalize the same
/// way to keep predicting block spans exactly.
std::string canon(const std::string &Text) {
  ParseResult P = parseFunction(Text);
  EXPECT_TRUE(bool(P)) << P.Error << "\n" << Text;
  std::string Out;
  printFunction(P.Fn, Out);
  return Out;
}

//===----------------------------------------------------------------------===//
// Mutation generator
//===----------------------------------------------------------------------===//

/// One edge split the harness performed: `Pred`'s `goto Target` was
/// retargeted through fresh pass-through block `Mid`.  A later "remove"
/// mutation can undo it if both blocks are still in that exact shape.
struct Split {
  std::string Pred, Mid, Target;
};

/// Generates one random, validity-preserving mutation of \p Text (the
/// verifier requires full reachability, so inserts and removes come as
/// paired ops that keep the CFG connected).  Returns the patch ops and
/// applies them to the shadow.
std::vector<PatchOp> mutateFunction(std::string &Text, const std::string &Func,
                                    std::vector<Split> &Splits,
                                    unsigned &Fresh, std::mt19937 &Rng) {
  std::vector<PatchOp> Ops;
  auto Pick = [&Rng](size_t N) { return size_t(Rng() % N); };
  const std::vector<std::string> Labels = blockLabels(Text);

  // Last line of a block's span, without the newline.
  auto LastLine = [&Text](size_t B, size_t E) {
    size_t End = E;
    while (End > B && Text[End - 1] == '\n')
      --End;
    size_t Start = Text.rfind('\n', End - 1);
    Start = Start == std::string::npos || Start < B ? B : Start + 1;
    return Text.substr(Start, End - Start);
  };

  const unsigned Kind = Rng() % 3;
  if (Kind == 2 && !Splits.empty()) {
    // Undo a previous edge split: restore the goto, remove the middle
    // block.  Only if neither block was disturbed since.
    const size_t I = Pick(Splits.size());
    const Split S = Splits[I];
    size_t B = 0, E = 0;
    std::string MidBlock = "block " + S.Mid + "\n  goto " + S.Target + "\n";
    if (findSpan(Text, S.Pred, B, E) &&
        LastLine(B, E) == "  goto " + S.Mid &&
        findSpan(Text, S.Mid, B, E) &&
        Text.substr(B, E - B) == MidBlock) {
      Splits.erase(Splits.begin() + long(I));
      size_t PB = 0, PE = 0;
      findSpan(Text, S.Pred, PB, PE);
      std::string Pred = Text.substr(PB, PE - PB);
      Pred.replace(Pred.rfind("  goto " + S.Mid), 7 + S.Mid.size(),
                   "  goto " + S.Target);
      Ops.push_back({PatchOp::Kind::ReplaceBlock, S.Pred, "", Func, Pred});
      Ops.push_back({PatchOp::Kind::RemoveBlock, S.Mid, "", Func, ""});
      for (const PatchOp &Op : Ops)
        applyOpLocally(Text, Op);
      return Ops;
    }
  }
  if (Kind == 1) {
    // Split an unconditional edge: `Pred: goto T` becomes
    // `Pred: goto Mid; Mid: goto T` — an insert that stays reachable.
    std::vector<std::pair<std::string, std::string>> Gotos;
    for (const std::string &L : Labels) {
      size_t B = 0, E = 0;
      findSpan(Text, L, B, E);
      const std::string Last = LastLine(B, E);
      if (Last.substr(0, 7) == "  goto ")
        Gotos.emplace_back(L, Last.substr(7));
    }
    if (!Gotos.empty()) {
      const auto [Pred, Target] = Gotos[Pick(Gotos.size())];
      const std::string Mid = "qb" + std::to_string(Fresh++);
      size_t B = 0, E = 0;
      findSpan(Text, Pred, B, E);
      std::string PredBlock = Text.substr(B, E - B);
      PredBlock.replace(PredBlock.rfind("  goto " + Target),
                        7 + Target.size(), "  goto " + Mid);
      Ops.push_back({PatchOp::Kind::ReplaceBlock, Pred, "", Func, PredBlock});
      Ops.push_back({PatchOp::Kind::InsertBlock, "", Pred, Func,
                     "block " + Mid + "\n  goto " + Target + "\n"});
      Splits.push_back({Pred, Mid, Target});
      for (const PatchOp &Op : Ops)
        applyOpLocally(Text, Op);
      return Ops;
    }
  }
  // Edit a block body: prepend a fresh computation to a random block.
  const std::string L = Labels[Pick(Labels.size())];
  size_t B = 0, E = 0;
  findSpan(Text, L, B, E);
  std::string Block = Text.substr(B, E - B);
  const size_t HeaderEnd = Block.find('\n');
  const std::string V = "qe" + std::to_string(Fresh++);
  Block.insert(HeaderEnd + 1, "  " + V + " = " + V + " + " + V + "\n");
  Ops.push_back({PatchOp::Kind::ReplaceBlock, L, "", Func, Block});
  applyOpLocally(Text, Ops.back());
  return Ops;
}

//===----------------------------------------------------------------------===//
// Protocol v4
//===----------------------------------------------------------------------===//

TEST(ProtocolV4, DeltaRequestRoundTrips) {
  Request R;
  R.Id = Value::number(int64_t(7));
  R.BaseKey = "0123456789abcdef0123456789abcdef";
  R.Validate = true;
  R.Patch.push_back({PatchOp::Kind::ReplaceBlock, "b1", "", "f",
                     "block b1\n  exit\n"});
  R.Patch.push_back({PatchOp::Kind::InsertBlock, "", "b1", "",
                     "block nb\n  goto b1\n"});
  R.Patch.push_back({PatchOp::Kind::RemoveBlock, "nb", "", "", ""});

  Value Doc = requestToJson(R);
  EXPECT_EQ(strField(Doc, "schema"), RequestSchemaV4);
  // A delta with no full-text fallback omits `ir` entirely.
  EXPECT_EQ(Doc.find("ir"), nullptr);

  RequestParse P = parseRequest(Doc.dump());
  ASSERT_TRUE(bool(P)) << P.Error;
  EXPECT_EQ(P.R.BaseKey, R.BaseKey);
  ASSERT_EQ(P.R.Patch.size(), 3u);
  EXPECT_EQ(P.R.Patch[0].K, PatchOp::Kind::ReplaceBlock);
  EXPECT_EQ(P.R.Patch[0].Label, "b1");
  EXPECT_EQ(P.R.Patch[0].Func, "f");
  EXPECT_EQ(P.R.Patch[0].Ir, "block b1\n  exit\n");
  EXPECT_EQ(P.R.Patch[1].K, PatchOp::Kind::InsertBlock);
  EXPECT_EQ(P.R.Patch[1].After, "b1");
  EXPECT_EQ(P.R.Patch[2].K, PatchOp::Kind::RemoveBlock);
  EXPECT_TRUE(P.R.Ir.empty());
}

TEST(ProtocolV4, IrIsOnlyOptionalForDeltas) {
  EXPECT_FALSE(
      bool(parseRequest("{\"schema\": \"lcm-request-v4\", \"id\": 1}")));
  RequestParse P = parseRequest(
      "{\"schema\": \"lcm-request-v4\", \"base_key\": \"ab\"}");
  ASSERT_TRUE(bool(P)) << P.Error;
  EXPECT_TRUE(P.R.Ir.empty());
}

TEST(ProtocolV4, MalformedPatchOpsAreRejected) {
  const char *UnknownOp = "{\"schema\": \"lcm-request-v4\", \"ir\": \"x\","
                          " \"patch\": [{\"op\": \"rename_block\"}]}";
  EXPECT_FALSE(bool(parseRequest(UnknownOp)));
  const char *NonObject = "{\"schema\": \"lcm-request-v4\", \"ir\": \"x\","
                          " \"patch\": [42]}";
  EXPECT_FALSE(bool(parseRequest(NonObject)));
  const char *BadField = "{\"schema\": \"lcm-request-v4\", \"ir\": \"x\","
                         " \"patch\": [{\"op\": \"remove_block\","
                         " \"label\": 9}]}";
  EXPECT_FALSE(bool(parseRequest(BadField)));
}

//===----------------------------------------------------------------------===//
// Module requests
//===----------------------------------------------------------------------===//

TEST(ModuleRequests, OptimizesEveryFunctionAndMemoizesPerFunction) {
  const std::vector<CorpusEntry> Corpus = makeDefaultCorpus();
  ASSERT_GE(Corpus.size(), 3u);
  const std::string A = corpusText(Corpus[0]);
  const std::string B = corpusText(Corpus[1]);
  const std::string C = corpusText(Corpus[2]);

  Service S = makeIncrementalService();
  Request R;
  R.Id = Value::number(int64_t(1));
  R.Ir = A + B + C;
  Value First = S.handle(payloadFor(R));
  ASSERT_EQ(statusOf(First), "ok") << First.dump();
  const Value *Fns = First.find("functions");
  ASSERT_NE(Fns, nullptr);
  ASSERT_EQ(Fns->size(), 3u);
  EXPECT_FALSE(boolField(First, "cached"));

  // The module result is the concatenation of the per-function results.
  Service Scratch = makeScratchService();
  std::string Expect;
  for (const std::string *T : {&A, &B, &C}) {
    Request One;
    One.Ir = *T;
    Value Resp = Scratch.handle(payloadFor(One));
    ASSERT_EQ(statusOf(Resp), "ok") << Resp.dump();
    Expect += strField(Resp, "ir");
    if (!Expect.empty() && Expect.back() != '\n')
      Expect += '\n';
  }
  EXPECT_EQ(strField(First, "ir"), Expect);

  // A repeat hits every per-function entry and the response says so.
  Value Second = S.handle(payloadFor(R));
  ASSERT_EQ(statusOf(Second), "ok") << Second.dump();
  EXPECT_TRUE(boolField(Second, "cached"));
  EXPECT_EQ(strField(Second, "cache_key"), strField(First, "cache_key"));
  for (const Value &F : Second.find("functions")->items())
    EXPECT_TRUE(boolField(F, "cached")) << F.dump();

  // A single-function request for one member reuses its per-function key.
  Request One;
  One.Ir = B;
  Value Alone = S.handle(payloadFor(One));
  ASSERT_EQ(statusOf(Alone), "ok") << Alone.dump();
  EXPECT_TRUE(boolField(Alone, "cached"))
      << "module serving must populate the same per-function entries the "
         "single-function path keys on";

  // A checked module request stores what a checked single-function
  // request does, measured profile included.
  Request CheckedModule = R;
  CheckedModule.Check = true;
  Value Checked = S.handle(payloadFor(CheckedModule));
  ASSERT_EQ(statusOf(Checked), "ok") << Checked.dump();
  Request CheckedOne = One;
  CheckedOne.Check = true;
  Value CheckedAlone = S.handle(payloadFor(CheckedOne));
  ASSERT_EQ(statusOf(CheckedAlone), "ok") << CheckedAlone.dump();
  EXPECT_TRUE(boolField(CheckedAlone, "cached"));
  EXPECT_NE(CheckedAlone.find("profile_out"), nullptr)
      << "a hit must answer what a fresh service answers: "
      << CheckedAlone.dump();
}

TEST(ModuleRequests, RejectsReportAndProfile) {
  Service S = makeIncrementalService();
  const std::string Two = "func a\nblock b0\n  exit\n"
                          "func b\nblock b0\n  exit\n";
  Request R;
  R.Ir = Two;
  R.WantReport = true;
  Value Resp = S.handle(payloadFor(R));
  EXPECT_EQ(statusOf(Resp), "bad_request") << Resp.dump();
}

TEST(ModuleRequests, ValidationRefusesAPoisonedMember) {
  // The checker, not the cache, is trusted: with the entry behind a
  // module's second function corrupted, the module must not be served as
  // validated, whether the check runs inline or on a validator pool.
  ServiceConfig Config;
  Config.Cache =
      std::make_shared<cache::ResultCache>(cache::ResultCacheConfig());
  std::string Error;
  ASSERT_TRUE(Config.Cache->open(Error)) << Error;
  Service S(Config);
  Request R;
  R.Ir = "func a\nblock b0\n  q = a + b\n  exit\n"
         "func b\nblock b0\n  x = a + b\n  y = a + b\n  z = x + y\n  exit\n";
  Value First = S.handle(payloadFor(R));
  ASSERT_EQ(statusOf(First), "ok") << First.dump();
  cache::Digest Key;
  ASSERT_TRUE(cache::Digest::fromHex(
      strField(First.find("functions")->items()[1], "cache_key"), Key));
  cache::CacheEntry Poisoned;
  Poisoned.Ir = "func b\nblock b0\n  x = a + b\n  y = a + b\n  z = x - y\n"
                "  exit\n";
  Config.Cache->put(Key, Poisoned);

  R.Validate = true;
  Value Inline = S.handle(payloadFor(R));
  EXPECT_EQ(statusOf(Inline), "validation_failed") << Inline.dump();
  EXPECT_NE(strField(Inline, "error").find("function 1 ('b')"),
            std::string::npos)
      << Inline.dump();
  Service::PendingValidation Pending;
  EXPECT_TRUE(S.handle(payloadFor(R), Pending).isNull());
  ASSERT_TRUE(Pending.Active);
  EXPECT_EQ(statusOf(S.finishValidation(std::move(Pending))),
            "validation_failed");
}

TEST(ModuleRequests, ValidationRefusesPoisonedMemory) {
  // A corrupted entry that stores another value leaves every variable as
  // it was: validation must compare final memory too, inline and on a
  // validator pool.
  ServiceConfig Config;
  Config.Cache =
      std::make_shared<cache::ResultCache>(cache::ResultCacheConfig());
  std::string Error;
  ASSERT_TRUE(Config.Cache->open(Error)) << Error;
  Service S(Config);
  Request R;
  R.Ir = "func f\nblock b0\n  p = a + 1\n  q = b + 2\n  store p q\n  exit\n";
  Value First = S.handle(payloadFor(R));
  ASSERT_EQ(statusOf(First), "ok") << First.dump();
  cache::Digest Key;
  ASSERT_TRUE(cache::Digest::fromHex(strField(First, "cache_key"), Key));
  cache::CacheEntry Poisoned;
  Poisoned.Ir =
      "func f\nblock b0\n  p = a + 1\n  q = b + 2\n  store p b\n  exit\n";
  Config.Cache->put(Key, Poisoned);

  R.Validate = true;
  Value Inline = S.handle(payloadFor(R));
  EXPECT_EQ(statusOf(Inline), "validation_failed") << Inline.dump();
  EXPECT_NE(strField(Inline, "error").find("memory at address"),
            std::string::npos)
      << Inline.dump();
  Service::PendingValidation Pending;
  EXPECT_TRUE(S.handle(payloadFor(R), Pending).isNull());
  ASSERT_TRUE(Pending.Active);
  EXPECT_EQ(statusOf(S.finishValidation(std::move(Pending))),
            "validation_failed");
}

TEST(RetainedTier, EachAnswerKeyIsWrittenOnce) {
  const std::vector<CorpusEntry> Corpus = makeDefaultCorpus();
  Service S = makeIncrementalService();
  Request One;
  One.Ir = corpusText(Corpus[0]);
  Request Module;
  Module.Ir = corpusText(Corpus[1]) + corpusText(Corpus[2]);
  for (const Request *Q : {&One, &Module}) {
    const uint64_t Before = Stats::get("cache.retained.insertions");
    for (int I = 0; I != 5; ++I) {
      Value Resp = S.handle(payloadFor(*Q));
      ASSERT_EQ(statusOf(Resp), "ok") << Resp.dump();
    }
    EXPECT_EQ(Stats::get("cache.retained.insertions"), Before + 1)
        << "repeats of one answer must refresh its record, not rewrite it";
  }
}

//===----------------------------------------------------------------------===//
// Delta requests
//===----------------------------------------------------------------------===//

TEST(DeltaRequests, AppliedDeltaRecomputesOnlyTheEditedFunction) {
  const std::vector<CorpusEntry> Corpus = makeDefaultCorpus();
  std::string A = canon(corpusText(Corpus[0]));
  std::string B = canon(corpusText(Corpus[1]));
  std::string C = canon(corpusText(Corpus[2]));
  const std::string NameB = Corpus[1].Name;

  Service S = makeIncrementalService();
  Request Full;
  Full.Ir = A + B + C;
  Value First = S.handle(payloadFor(Full));
  ASSERT_EQ(statusOf(First), "ok") << First.dump();
  const std::string BaseKey = strField(First, "cache_key");
  ASSERT_EQ(BaseKey.size(), 32u);

  // Edit one block of the middle function.
  std::vector<Split> Splits;
  unsigned Fresh = 0;
  std::mt19937 Rng(7);
  std::string Edited = B;
  std::vector<PatchOp> Ops;
  while (Ops.empty() || Edited == B)
    Ops = mutateFunction(Edited, NameB, Splits, Fresh, Rng);

  const uint64_t ReusedBefore = Stats::get("server.delta_fn_reused");
  Request Delta;
  Delta.BaseKey = BaseKey;
  Delta.Patch = Ops;
  Delta.Validate = true;
  Value Resp = S.handle(payloadFor(Delta));
  ASSERT_EQ(statusOf(Resp), "ok") << Resp.dump();
  EXPECT_EQ(strField(Resp, "delta"), "applied");
  EXPECT_TRUE(boolField(Resp, "validated"));
  EXPECT_EQ(Stats::get("server.delta_fn_reused"), ReusedBefore + 2)
      << "exactly the two untouched functions ride their retained keys";

  const Value *Fns = Resp.find("functions");
  ASSERT_NE(Fns, nullptr);
  ASSERT_EQ(Fns->size(), 3u);
  int CachedCount = 0;
  for (const Value &F : Fns->items())
    CachedCount += boolField(F, "cached") ? 1 : 0;
  EXPECT_EQ(CachedCount, 2);

  // Byte-identical to optimizing the patched module from scratch.
  Service Scratch = makeScratchService();
  Request Patched;
  Patched.Ir = A + Edited + C;
  Value Oracle = Scratch.handle(payloadFor(Patched));
  ASSERT_EQ(statusOf(Oracle), "ok") << Oracle.dump();
  EXPECT_EQ(strField(Resp, "ir"), strField(Oracle, "ir"));
}

TEST(DeltaRequests, UnknownBaseFallsBackWhenIrIsPresent) {
  Service S = makeIncrementalService();
  Request R;
  R.BaseKey = "00000000000000000000000000000000";
  R.Ir = "func f\nblock b0\n  x = a + b\n  exit\n";
  R.Patch.push_back({PatchOp::Kind::RemoveBlock, "b9", "", "", ""});
  Value Resp = S.handle(payloadFor(R));
  ASSERT_EQ(statusOf(Resp), "ok") << Resp.dump();
  EXPECT_EQ(strField(Resp, "delta"), "fallback");
  EXPECT_NE(strField(Resp, "delta_reason").find("not retained"),
            std::string::npos)
      << Resp.dump();
}

TEST(DeltaRequests, UnknownBaseWithoutIrAnswersBaseMiss) {
  Service S = makeIncrementalService();
  Request R;
  R.BaseKey = "00000000000000000000000000000000";
  Value Resp = S.handle(payloadFor(R));
  EXPECT_EQ(statusOf(Resp), "base_miss") << Resp.dump();
}

TEST(DeltaRequests, MalformedPatchWithoutIrAnswersBadRequest) {
  Service S = makeIncrementalService();
  Request Full;
  Full.Ir = "func f\nblock b0\n  x = a + b\n  exit\n";
  Value First = S.handle(payloadFor(Full));
  ASSERT_EQ(statusOf(First), "ok") << First.dump();

  Request Delta;
  Delta.BaseKey = strField(First, "cache_key");
  Delta.Patch.push_back({PatchOp::Kind::RemoveBlock, "no_such", "", "", ""});
  Value Resp = S.handle(payloadFor(Delta));
  EXPECT_EQ(statusOf(Resp), "bad_request") << Resp.dump();
  EXPECT_NE(strField(Resp, "error").find("not found"), std::string::npos)
      << Resp.dump();
}

TEST(DeltaRequests, FingerprintMismatchIsABaseMiss) {
  Service S = makeIncrementalService();
  Request Full;
  Full.Ir = "func f\nblock b0\n  x = a + b\n  y = a + b\n  exit\n";
  Value First = S.handle(payloadFor(Full));
  ASSERT_EQ(statusOf(First), "ok") << First.dump();

  // Same base, different pipeline: the retained per-function keys embed
  // the base's fingerprint, so reuse must be refused.
  Request Delta;
  Delta.BaseKey = strField(First, "cache_key");
  Delta.Pipeline = "lcse";
  Delta.Patch.push_back({PatchOp::Kind::ReplaceBlock, "b0", "", "",
                         "block b0\n  x = a + b\n  exit\n"});
  Value Resp = S.handle(payloadFor(Delta));
  EXPECT_EQ(statusOf(Resp), "base_miss") << Resp.dump();
  EXPECT_NE(strField(Resp, "error").find("different configuration"),
            std::string::npos)
      << Resp.dump();
}

TEST(DeltaRequests, RetainedTierDisabledIsAMissNotACrash) {
  ServiceConfig Config;
  Config.Cache =
      std::make_shared<cache::ResultCache>(cache::ResultCacheConfig());
  std::string Error;
  ASSERT_TRUE(Config.Cache->open(Error)) << Error;
  Service S(Config);
  Request R;
  R.BaseKey = "00000000000000000000000000000000";
  Value Resp = S.handle(payloadFor(R));
  EXPECT_EQ(statusOf(Resp), "base_miss") << Resp.dump();
}

//===----------------------------------------------------------------------===//
// Randomized edit-sequence harness
//===----------------------------------------------------------------------===//

/// Drives one program through a chain of block-level edits: every delta
/// response must be `applied`, interpreter-validated, and byte-identical
/// to a from-scratch full-text request for the same (shadow-predicted)
/// program.  Adds the number of mutations exercised to \p Total.
void runEditChain(Service &Incremental, Service &Scratch,
                  std::vector<std::string> FnTexts,
                  const std::vector<std::string> &FnNames, unsigned Mutations,
                  std::mt19937 &Rng, unsigned &Total) {
  const bool Module = FnTexts.size() > 1;
  for (std::string &T : FnTexts)
    T = canon(T);

  auto FullText = [&FnTexts]() {
    std::string Out;
    for (const std::string &T : FnTexts)
      Out += T;
    return Out;
  };

  Request Initial;
  Initial.Ir = FullText();
  Value First = Incremental.handle(payloadFor(Initial));
  EXPECT_EQ(statusOf(First), "ok") << First.dump();
  std::string BaseKey = strField(First, "cache_key");

  std::vector<std::vector<Split>> Splits(FnTexts.size());
  unsigned Fresh = 0;
  for (unsigned M = 0; M != Mutations; ++M) {
    const size_t FnIdx = Rng() % FnTexts.size();
    Request Delta;
    Delta.BaseKey = BaseKey;
    Delta.Validate = true;
    Delta.Patch = mutateFunction(FnTexts[FnIdx], Module ? FnNames[FnIdx] : "",
                                 Splits[FnIdx], Fresh, Rng);
    FnTexts[FnIdx] = canon(FnTexts[FnIdx]);

    Value Resp = Incremental.handle(payloadFor(Delta));
    ASSERT_EQ(statusOf(Resp), "ok") << Resp.dump();
    EXPECT_EQ(strField(Resp, "delta"), "applied") << Resp.dump();
    EXPECT_TRUE(boolField(Resp, "validated"))
        << "every delta response must pass the interpreter oracle";

    Request FullReq;
    FullReq.Ir = FullText();
    Value Oracle = Scratch.handle(payloadFor(FullReq));
    ASSERT_EQ(statusOf(Oracle), "ok") << Oracle.dump();
    ASSERT_EQ(strField(Resp, "ir"), strField(Oracle, "ir"))
        << "delta result diverged from from-scratch optimization after "
        << M + 1 << " edits";
    const Value *RC = Resp.find("changes");
    const Value *OC = Oracle.find("changes");
    ASSERT_TRUE(RC && OC);
    EXPECT_EQ(RC->asInt(), OC->asInt());

    BaseKey = strField(Resp, "cache_key");
    EXPECT_EQ(BaseKey.size(), 32u);
    ++Total;
  }
}

TEST(IncrementalHarness, RandomizedEditSequencesMatchFromScratch) {
  const std::vector<CorpusEntry> Corpus = makeDefaultCorpus();
  ASSERT_GE(Corpus.size(), 8u);
  Service Incremental = makeIncrementalService();
  Service Scratch = makeScratchService();
  std::mt19937 Rng(20260808);

  unsigned Total = 0;
  // Single-function chains over six corpus programs.
  for (size_t I = 0; I != 6; ++I)
    runEditChain(Incremental, Scratch, {corpusText(Corpus[I])},
                 {Corpus[I].Name}, 9, Rng, Total);
  // One module chain with function-scoped patches.
  runEditChain(
      Incremental, Scratch,
      {corpusText(Corpus[0]), corpusText(Corpus[3]), corpusText(Corpus[6])},
      {Corpus[0].Name, Corpus[3].Name, Corpus[6].Name}, 10, Rng, Total);

  EXPECT_GE(Total, 50u) << "the harness must exercise 50+ mutations";
}

} // namespace
