//===- metrics/RunReport.cpp -----------------------------------------------===//

#include "metrics/RunReport.h"

#include "metrics/Cost.h"
#include "support/Stats.h"

using namespace lcm;
using json::Value;

//===----------------------------------------------------------------------===//
// Serialization
//===----------------------------------------------------------------------===//

namespace {

const char *SchemaName = "lcm-run-report-v1";

Value countersToJson(const std::map<std::string, uint64_t> &Counters) {
  Value O = Value::object();
  for (const auto &[Name, Count] : Counters)
    O.set(Name, Value::number(Count));
  return O;
}

bool countersFromJson(const Value &V, std::map<std::string, uint64_t> &Out) {
  if (!V.isObject())
    return false;
  for (const auto &[Name, Count] : V.members()) {
    if (!Count.isNumber())
      return false;
    Out[Name] = Count.asUInt();
  }
  return true;
}

Value functionMetricsToJson(const FunctionMetrics &M, bool IsAfter) {
  Value O = Value::object();
  O.set("blocks", Value::number(M.Blocks))
      .set("static_ops", Value::number(M.StaticOps))
      .set("weighted_static_ops", Value::number(M.WeightedStaticOps));
  if (IsAfter)
    O.set("temp_live_slots", Value::number(M.TempLiveSlots))
        .set("temp_max_pressure", Value::number(M.TempMaxPressure))
        .set("num_temps", Value::number(M.NumTemps));
  return O;
}

uint64_t uintField(const Value &O, const char *Key) {
  const Value *F = O.find(Key);
  return F && F->isNumber() ? F->asUInt() : 0;
}

double doubleField(const Value &O, const char *Key) {
  const Value *F = O.find(Key);
  return F && F->isNumber() ? F->asDouble() : 0.0;
}

std::string stringField(const Value &O, const char *Key) {
  const Value *F = O.find(Key);
  return F && F->isString() ? F->asString() : std::string();
}

FunctionMetrics functionMetricsFromJson(const Value &O) {
  FunctionMetrics M;
  M.Blocks = uintField(O, "blocks");
  M.StaticOps = uintField(O, "static_ops");
  M.WeightedStaticOps = uintField(O, "weighted_static_ops");
  M.TempLiveSlots = uintField(O, "temp_live_slots");
  M.TempMaxPressure = uintField(O, "temp_max_pressure");
  M.NumTemps = uintField(O, "num_temps");
  return M;
}

} // namespace

Value RunReport::toJson() const {
  Value Root = Value::object();
  Root.set("schema", Value::str(SchemaName))
      .set("tool", Value::str(Tool))
      .set("pipeline", Value::str(Pipeline))
      .set("ok", Value::boolean(Ok));
  if (Cancelled)
    Root.set("cancelled", Value::boolean(true));
  if (!Ok)
    Root.set("error", Value::str(Error));
  Root.set("total_seconds", Value::number(TotalSeconds));

  Value PassArray = Value::array();
  for (const PassRecord &P : Passes) {
    Value O = Value::object();
    O.set("name", Value::str(P.Name))
        .set("seconds", Value::number(P.Seconds))
        .set("changes", Value::number(P.Changes))
        .set("word_ops", Value::number(P.WordOps))
        .set("counters", countersToJson(P.Counters));
    PassArray.push(std::move(O));
  }
  Root.set("passes", std::move(PassArray));
  Root.set("counters", countersToJson(Counters));

  if (HasFunction) {
    Value F = Value::object();
    F.set("before", functionMetricsToJson(Before, /*IsAfter=*/false));
    F.set("after", functionMetricsToJson(After, /*IsAfter=*/true));
    Root.set("function", std::move(F));
  }
  if (HasCorpus) {
    Value C = Value::object();
    C.set("functions", Value::number(Corpus.NumFunctions))
        .set("threads", Value::number(Corpus.Threads))
        .set("seconds", Value::number(Corpus.Seconds))
        .set("functions_per_second", Value::number(Corpus.FunctionsPerSecond))
        .set("total_changes", Value::number(Corpus.TotalChanges))
        .set("failures", Value::number(Corpus.Failures))
        .set("cache_hits", Value::number(Corpus.CacheHits));
    Root.set("corpus", std::move(C));
  }
  return Root;
}

bool RunReport::writeFile(const std::string &Path) const {
  return json::writeFile(Path, toJson());
}

bool RunReport::fromJson(const Value &V, RunReport &Out) {
  if (!V.isObject() || stringField(V, "schema") != SchemaName)
    return false;
  Out = RunReport();
  Out.Tool = stringField(V, "tool");
  Out.Pipeline = stringField(V, "pipeline");
  const Value *Ok = V.find("ok");
  Out.Ok = !Ok || !Ok->isBool() || Ok->asBool();
  const Value *Cancelled = V.find("cancelled");
  Out.Cancelled = Cancelled && Cancelled->isBool() && Cancelled->asBool();
  Out.Error = stringField(V, "error");
  Out.TotalSeconds = doubleField(V, "total_seconds");

  if (const Value *PassArray = V.find("passes")) {
    if (!PassArray->isArray())
      return false;
    for (const Value &O : PassArray->items()) {
      PassRecord P;
      P.Name = stringField(O, "name");
      P.Seconds = doubleField(O, "seconds");
      P.Changes = uintField(O, "changes");
      P.WordOps = uintField(O, "word_ops");
      if (const Value *C = O.find("counters"))
        if (!countersFromJson(*C, P.Counters))
          return false;
      Out.Passes.push_back(std::move(P));
    }
  }
  if (const Value *C = V.find("counters"))
    if (!countersFromJson(*C, Out.Counters))
      return false;

  if (const Value *F = V.find("function")) {
    Out.HasFunction = true;
    if (const Value *B = F->find("before"))
      Out.Before = functionMetricsFromJson(*B);
    if (const Value *A = F->find("after"))
      Out.After = functionMetricsFromJson(*A);
  }
  if (const Value *C = V.find("corpus")) {
    Out.HasCorpus = true;
    Out.Corpus.NumFunctions = uintField(*C, "functions");
    Out.Corpus.Threads = uintField(*C, "threads");
    Out.Corpus.Seconds = doubleField(*C, "seconds");
    Out.Corpus.FunctionsPerSecond = doubleField(*C, "functions_per_second");
    Out.Corpus.TotalChanges = uintField(*C, "total_changes");
    Out.Corpus.Failures = uintField(*C, "failures");
    Out.Corpus.CacheHits = uintField(*C, "cache_hits");
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Collection
//===----------------------------------------------------------------------===//

namespace {

FunctionMetrics snapshotMetrics(const Function &Fn, size_t FirstTempVar,
                                bool MeasureTemps) {
  FunctionMetrics M;
  M.Blocks = Fn.numBlocks();
  M.StaticOps = Fn.countOperations();
  M.WeightedStaticOps = weightedStaticCost(Fn);
  if (MeasureTemps) {
    LifetimeStats L = measureTempLifetimes(Fn, FirstTempVar);
    M.TempLiveSlots = L.LiveBlockSlots;
    M.TempMaxPressure = L.MaxPressure;
    M.NumTemps = L.NumTemps;
  }
  return M;
}

} // namespace

RunReport lcm::collectRunReport(const Pipeline &P, Function &Fn,
                                std::string Tool, std::string PipelineSpec,
                                const CancelToken *Cancel) {
  RunReport Report;
  Report.Tool = std::move(Tool);
  Report.Pipeline = std::move(PipelineSpec);
  Report.HasFunction = true;

  const size_t VarsBefore = Fn.numVars();
  Report.Before = snapshotMetrics(Fn, VarsBefore, /*MeasureTemps=*/false);

  Pipeline::RunResult R = P.runInstrumented(Fn, Cancel);
  Report.Ok = R.Ok;
  Report.Cancelled = R.Cancelled;
  Report.Error = R.Error;
  Report.TotalSeconds = R.Seconds;
  for (Pipeline::StepResult &S : R.Steps) {
    PassRecord Record;
    Record.Name = S.Name;
    Record.Seconds = S.Seconds;
    Record.Changes = S.Changes;
    Record.WordOps = S.WordOps;
    Record.Counters = std::move(S.StatsDelta);
    for (const auto &[Name, Count] : Record.Counters)
      Report.Counters[Name] += Count;
    Report.Passes.push_back(std::move(Record));
  }

  Report.After = snapshotMetrics(Fn, VarsBefore, /*MeasureTemps=*/true);
  return Report;
}

RunReport lcm::makeCorpusReport(const CorpusDriverResult &R, std::string Tool,
                                std::string PipelineSpec,
                                std::map<std::string, uint64_t> StatsDelta) {
  RunReport Report;
  Report.Tool = std::move(Tool);
  Report.Pipeline = std::move(PipelineSpec);
  Report.Ok = R.NumFailed == 0;
  Report.TotalSeconds = R.Seconds;
  Report.Counters = std::move(StatsDelta);
  for (const Pipeline::StepResult &S : R.Passes) {
    PassRecord Record;
    Record.Name = S.Name;
    Record.Seconds = S.Seconds;
    Record.Changes = S.Changes;
    Record.WordOps = S.WordOps;
    Report.Passes.push_back(std::move(Record));
  }
  Report.HasCorpus = true;
  Report.Corpus.NumFunctions = R.PerFunction.size();
  Report.Corpus.Threads = R.ThreadsUsed;
  Report.Corpus.Seconds = R.Seconds;
  Report.Corpus.FunctionsPerSecond = R.functionsPerSecond();
  Report.Corpus.TotalChanges = R.TotalChanges;
  Report.Corpus.Failures = R.NumFailed;
  Report.Corpus.CacheHits = R.CacheHits;
  return Report;
}
