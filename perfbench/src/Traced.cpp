//===- perfbench/src/Traced.cpp - Layer-by-layer traced run ----------------===//
//
// The traced run replays each workload's cells step by step through the
// library's public entry points, in the order runPipeline calls them, and
// times every call from the outside:
//
//   workloads  makeWorkload + DecodedProgram of the base program
//   opt        makeSoftwareModePipeline(...).run (VRP / VRS / cleanup)
//   sim        DecodedProgram of the transformed binary, SuperblockPlan
//   sample     SamplePlanCache::getOrCompute(prepareSampled),
//              getOrComputeEstimate(runSampledStream)
//   ref run    runProgram into OooCore + EnergyModel (exact cells)
//   power      makeReport / deriveSampleEstimate
//   driver     ResultAggregator::makeCell
//   report     sweepToJson + serialization
//   service    SweepRequest::buildSpecs, makeCellKey, ResultCache
//
// Every replayed cell must reproduce the untraced computation of the same
// cell (dyn-insts, cycles, energy, output); the rendered documents go
// through the same reference checks as the end-to-end runs.
//
// The exact ref run interleaves sim, uarch and power work in one call, so
// it is split by difference, with extra runs of the same stream that stay
// outside the traced sweep's time: no sink, an empty sink, OooCore over a
// no-op ActivitySink (its onBatch timed by a wrapper sink), and OooCore
// over an ActivityRecorder. Sampled streams get a bare run, a separate
// IntervalProfiler pass and makeSamplePlan call, and a fused (superblock)
// run without sink.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "opt/TransformPipeline.h"
#include "power/ActivityCounts.h"
#include "report/ReportSchema.h"
#include "sample/SamplePlanCache.h"
#include "service/CellKey.h"
#include "service/ResultCache.h"
#include "sim/Superblock.h"

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <unistd.h>

using namespace og;
using namespace pb;

namespace fs = std::filesystem;

namespace {

/// Counts the records the engine materializes and does nothing else.
class CountingSink final : public TraceSink {
public:
  void onBatch(const DynInst *, size_t N) override { Records += N; }
  uint64_t Records = 0;
};

/// An ActivitySink that charges nothing.
class NoopActivity final : public ActivitySink {
public:
  void access(Structure) override {}
  void dataAccess(Structure, int64_t, Width) override {}
  void missPenalty(Structure) override {}
};

/// Times every OooCore::onBatch call it forwards.
class TimedCoreSink final : public TraceSink {
public:
  explicit TimedCoreSink(OooCore &Core) : Core(Core) {}
  void onBatch(const DynInst *Batch, size_t N) override {
    const Clock::time_point T0 = Clock::now();
    Core.onBatch(Batch, N);
    Seconds += secondsSince(T0);
  }
  double Seconds = 0;

private:
  OooCore &Core;
};

/// Times \p F, returning its seconds.
template <typename F> double timed(F &&Fn) {
  const Clock::time_point T0 = Clock::now();
  Fn();
  return secondsSince(T0);
}

/// Every observation of one traced run.
struct LayerTrace {
  // Spans inside the traced sweep, seconds.
  double Build = 0, Transform = 0, Decode = 0, SbForm = 0, RefRun = 0,
         Derive = 0, Prepare = 0, Replay = 0, Reduce = 0, Render = 0,
         Request = 0, Key = 0, Lookup = 0, Store = 0;
  // The exact ref-run spans' uarch and power portions (by difference).
  double RefUarch = 0, RefPower = 0;
  // Traced sweep wall time: the loop minus the extra runs and checks.
  double Wall = 0;

  // Exact cells' extra runs.
  uint64_t ExactPasses = 0, ExactInsts = 0, Records = 0;
  double ExactBareS = 0, EmptyS = 0, NoopS = 0, OooS = 0, RecorderS = 0;
  // Sampled streams' extra runs.
  double PrepareComputedS = 0, PrepareBareS = 0, ProfileS = 0, ClusterS = 0;
  double ReplayComputedS = 0, StreamBareS = 0, FusedS = 0;
  uint64_t FusedInsts = 0, FusedSbInsts = 0;
  uint64_t StreamsPrepared = 0, DetailedPasses = 0, DetailedInsts = 0,
           StreamInsts = 0, Windows = 0, ArchBytes = 0, ArchFallbacks = 0;
  uint64_t BareInsts = 0;
  double BareS = 0;
  // Transform analysis cache.
  uint64_t AnalysisHits = 0, AnalysisMisses = 0;
  // Service calls.
  uint64_t KeyCalls = 0, LookupCalls = 0, StoreCalls = 0;
};

/// Replays cells step by step (see file comment).
class Tracer {
public:
  LayerTrace T;
  /// Time spent on extra runs and checks, subtracted from the wall time.
  double Excluded = 0;

  const BuiltWorkload &workload(const std::string &Name, double Scale) {
    if (!WM.count({Name, Scale}))
      T.Build += timed([&] { getWorkload(WM, Name, Scale); });
    return getWorkload(WM, Name, Scale);
  }

  PipelineResult replayCell(const ExperimentSpec &Spec);

  void finishPlanCache() {
    T.StreamsPrepared += PlanCache.size();
    T.DetailedPasses += PlanCache.estimateCount();
  }

private:
  void replayExact(const Workload &W, const PipelineConfig &Config,
                   const DecodedProgram &Decoded, PipelineResult &R);
  void replaySampled(const BuiltWorkload &BW, const PipelineConfig &Config,
                     const DecodedProgram &Decoded, PipelineResult &R);
  void bareRun(const DecodedProgram &DP, const RunOptions &Ref, double &Acc);

  WorkloadMap WM;
  SamplePlanCache PlanCache;
};

PipelineResult Tracer::replayCell(const ExperimentSpec &Spec) {
  const BuiltWorkload &BW = workload(Spec.Workload, Spec.Scale);
  const Workload &W = BW.W;
  const PipelineConfig &Config = Spec.Config;
  PipelineResult R;

  T.Transform += timed([&] {
    R.Transformed = W.Prog;
    AnalysisManager AM(R.Transformed, &R.OptStats);
    TransformContext Ctx;
    Ctx.Narrow = Config.Narrow;
    switch (Config.Sw) {
    case SoftwareMode::None:
      break;
    case SoftwareMode::ConventionalVrp:
      Ctx.Narrow.UseUsefulWidths = false;
      break;
    case SoftwareMode::Vrp:
      Ctx.Narrow.UseUsefulWidths = true;
      break;
    case SoftwareMode::Vrs:
      Ctx.Narrow.UseUsefulWidths = true;
      Ctx.Vrs.Energy.TestCostNJ = Config.VrsTestCostNJ;
      Ctx.Train = W.Train;
      break;
    }
    makeSoftwareModePipeline(Config.Sw).run(R.Transformed, AM, Ctx);
    R.Narrowing = Ctx.Narrowing;
    R.Vrs = Ctx.VrsResult;
  });
  T.AnalysisHits += R.OptStats.get("analysis-hits");
  T.AnalysisMisses += R.OptStats.get("analysis-misses");

  // None mode runs the untouched binary: the shared base decode stands in.
  std::unique_ptr<DecodedProgram> Owned;
  if (Config.Sw != SoftwareMode::None)
    T.Decode += timed(
        [&] { Owned = std::make_unique<DecodedProgram>(R.Transformed); });
  const DecodedProgram &Decoded = Owned ? *Owned : *BW.Decoded;

  if (Config.Sample.enabled())
    replaySampled(BW, Config, Decoded, R);
  else
    replayExact(W, Config, Decoded, R);
  return R;
}

void Tracer::bareRun(const DecodedProgram &DP, const RunOptions &Ref,
                     double &Acc) {
  RunResult Run;
  const double S = timed([&] { Run = runProgram(DP, Ref); });
  Acc += S;
  T.BareS += S;
  T.BareInsts += Run.Stats.DynInsts;
}

void Tracer::replayExact(const Workload &W, const PipelineConfig &Config,
                         const DecodedProgram &Decoded, PipelineResult &R) {
  EnergyModel EM(Config.Scheme, Config.Coeffs);
  OooCore Core(Config.Uarch, &EM);
  RunOptions RefOpts = W.Ref;
  RefOpts.Sink = &Core;
  RunResult Run;
  const double RefS = timed([&] { Run = runProgram(Decoded, RefOpts); });
  T.RefRun += RefS;
  if (Run.Status != RunStatus::Halted)
    throw std::runtime_error("traced ref run did not halt");
  T.Derive += timed([&] { R.Report = makeReport(EM, Core.finish()); });
  R.RefStats = Run.Stats;
  R.Output = Run.Output;
  R.Engine = Run.Engine;
  ++T.ExactPasses;
  T.ExactInsts += Run.Stats.DynInsts;

  // Extra runs of the same stream, outside the traced sweep.
  const Clock::time_point X0 = Clock::now();
  bareRun(Decoded, W.Ref, T.ExactBareS);
  RunOptions O = W.Ref;
  CountingSink Counter;
  O.Sink = &Counter;
  T.EmptyS += timed([&] { runProgram(Decoded, O); });
  T.Records += Counter.Records;

  NoopActivity Noop;
  OooCore NoopCore(Config.Uarch, &Noop);
  TimedCoreSink Timed(NoopCore);
  O.Sink = &Timed;
  const double NoopS = timed([&] { runProgram(Decoded, O); });
  T.NoopS += NoopS;
  T.OooS += Timed.Seconds;

  ActivityRecorder Recorder;
  OooCore RecCore(Config.Uarch, &Recorder);
  O.Sink = &RecCore;
  T.RecorderS += timed([&] { runProgram(Decoded, O); });

  // Split this cell's ref-run span: power is what EnergyModel adds over
  // the no-op sink, uarch the time inside OooCore::onBatch, sim the rest.
  const double Power = std::clamp(RefS - NoopS, 0.0, RefS);
  T.RefPower += Power;
  T.RefUarch += std::clamp(Timed.Seconds, 0.0, RefS - Power);
  Excluded += secondsSince(X0);
}

void Tracer::replaySampled(const BuiltWorkload &BW,
                           const PipelineConfig &Config,
                           const DecodedProgram &Decoded, PipelineResult &R) {
  const Workload &W = BW.W;
  const Program &P = R.Transformed;
  const UarchConfig &U = Config.Uarch;
  const SampleSpec &S = Config.Sample;

  // Width-only rewrites capture from the original's decode (runPipeline).
  const DecodedProgram *CaptureDP = &Decoded;
  bool Prepared = false;
  std::shared_ptr<const SampleArtifacts> Art;
  const double PrepS = timed([&] {
    const std::string WarmKey = sampleWarmKey(P, W.Ref, U, S);
    if (&Decoded.program() != &W.Prog &&
        WarmKey == sampleWarmKey(W.Prog, W.Ref, U, S))
      CaptureDP = BW.Decoded.get();
    Art = PlanCache.getOrCompute(WarmKey, [&] {
      Prepared = true;
      return std::make_shared<const SampleArtifacts>(
          prepareSampled(*CaptureDP, W.Ref, U, S));
    });
  });
  T.Prepare += PrepS;

  bool Estimated = false;
  double SbS = 0;
  std::shared_ptr<const SampleStreamEstimate> Stream;
  const double EstS = timed([&] {
    Stream = PlanCache.getOrComputeEstimate(
        sampleStreamKey(P, W.Ref, U, S), [&] {
          Estimated = true;
          std::unique_ptr<SuperblockPlan> Sb;
          SbS = timed([&] {
            Sb = std::make_unique<SuperblockPlan>(Decoded, Art->BlockProfile);
          });
          RunOptions Ref = W.Ref;
          Ref.Superblocks = Sb.get();
          SampleRunPolicy Policy;
          Policy.WindowJobs = Config.SampleWindowJobs;
          return std::make_shared<const SampleStreamEstimate>(
              runSampledStream(Decoded, Ref, U, *Art, S, Policy));
        });
  });
  T.SbForm += SbS;
  T.Replay += EstS - SbS;

  SampleEstimate Est;
  T.Derive += timed(
      [&] { Est = deriveSampleEstimate(*Stream, Config.Scheme, Config.Coeffs); });
  if (Est.Run.Status != RunStatus::Halted)
    throw std::runtime_error("traced sampled ref run did not halt");
  R.RefStats = Est.Run.Stats;
  R.Output = Est.Run.Output;
  R.Report = Est.Report;
  R.Sample.Used = true;
  R.Sample.IntervalLen = Est.Plan.IntervalLen;
  R.Sample.Intervals = Est.Plan.numIntervals();
  R.Sample.K = Est.Plan.K;
  R.Sample.DetailedInsts = Est.DetailedInsts;
  R.Sample.Weights = Est.Plan.Weights;
  R.Sample.Reps = Est.Plan.Reps;
  R.Sample.EstError = Est.Plan.Dispersion;
  R.Engine = Est.Run.Engine;

  // Extra runs, outside the traced sweep.
  const Clock::time_point X0 = Clock::now();
  if (Prepared) {
    T.PrepareComputedS += PrepS;
    bareRun(*CaptureDP, W.Ref, T.PrepareBareS);
    IntervalProfiler Prof(*CaptureDP, S.IntervalLen);
    RunOptions ProfOpts = W.Ref;
    ProfOpts.Sink = &Prof;
    T.ProfileS += timed([&] {
      runProgramWindowed(*CaptureDP, ProfOpts,
                         {{0, ~uint64_t(0), ~uint64_t(0)}});
      Prof.finish();
    });
    T.ClusterS += timed([&] { makeSamplePlan(Prof, S); });
    T.Windows += Art->Checkpoints.size();
    T.ArchBytes += Art->ArchBytes;
    T.ArchFallbacks += Art->ArchBudgetExceeded ? 1 : 0;
  }
  if (Estimated) {
    T.ReplayComputedS += EstS - SbS;
    bareRun(Decoded, W.Ref, T.StreamBareS);
    T.DetailedInsts += Stream->DetailedInsts;
    T.StreamInsts += Stream->Run.Stats.DynInsts;
    SuperblockPlan Sb(Decoded, Art->BlockProfile);
    RunOptions O = W.Ref;
    O.Superblocks = &Sb;
    RunResult Fused;
    T.FusedS += timed([&] { Fused = runProgram(Decoded, O); });
    T.FusedInsts += Fused.Stats.DynInsts;
    T.FusedSbInsts += Fused.Engine.SuperblockInsts;
  }
  Excluded += secondsSince(X0);
}

double ratio(double A, double B) { return B > 0 ? A / B : 0.0; }

/// Per-cell equivalence of a replayed cell with its untraced computation.
std::string compareCells(const ResultAggregator::Cell &Traced,
                         uint64_t TracedOut, const ResultAggregator::Cell &Ref,
                         uint64_t RefOut) {
  const std::string Name = Ref.Workload + "/" + Ref.Label;
  if (Traced.DynInsts != Ref.DynInsts)
    return Name + ": traced dyn-insts differ";
  if (Traced.Cycles != Ref.Cycles)
    return Name + ": traced cycles differ";
  if (Traced.Energy != Ref.Energy)
    return Name + ": traced energy differs";
  if (TracedOut != RefOut)
    return Name + ": traced program output differs";
  return "";
}

/// Service-side counters of a served stream (zero for batch workloads).
struct ServiceCounts {
  uint64_t DiskHits = 0, MemHits = 0, Misses = 0, Inflight = 0;
};

void report(Outcome &Out, const LayerTrace &T, double UntracedS,
            const ServiceCounts &SC, double EnergyErr, double CyclesErr) {
  const double RefSim = T.RefRun - T.RefUarch - T.RefPower;
  const double Ns = 1e9;
  Out.metric("workloads.build_s", T.Build, "s");
  Out.metric("opt.transform_s", T.Transform, "s");
  Out.metric("opt.analysis_hit_ratio",
             ratio(T.AnalysisHits, T.AnalysisHits + T.AnalysisMisses), "ratio");
  Out.metric("sim.decode_s", T.Decode, "s");
  Out.metric("sim.superblock_form_s", T.SbForm, "s");
  Out.metric("sim.bare_ns_per_inst", ratio(T.BareS * Ns, T.BareInsts), "ns");
  Out.metric("sim.fused_ns_per_inst", ratio(T.FusedS * Ns, T.FusedInsts),
             "ns");
  Out.metric("sim.fused_coverage", ratio(T.FusedSbInsts, T.FusedInsts),
             "ratio");
  Out.metric("sim.record_ns_per_inst",
             ratio((T.EmptyS - T.ExactBareS) * Ns, T.ExactInsts), "ns");
  Out.metric("sim.records_delivered", T.Records, "count");
  Out.metric("uarch.ooo_ns_per_inst", ratio(T.OooS * Ns, T.ExactInsts), "ns");
  Out.metric("uarch.detailed_insts", T.ExactInsts + T.DetailedInsts, "count");
  Out.metric("power.charge_ns_per_inst",
             ratio((T.RefRun - T.NoopS) * Ns, T.ExactInsts), "ns");
  Out.metric("power.record_ns_per_inst",
             ratio((T.RecorderS - T.NoopS) * Ns, T.ExactInsts), "ns");
  Out.metric("power.derive_s", T.Derive, "s");
  Out.metric("exact.detailed_passes", T.ExactPasses, "count");
  Out.metric("sample.prepare_s", T.Prepare, "s");
  Out.metric("sample.prepare_per_bare",
             ratio(T.PrepareComputedS, T.PrepareBareS), "ratio");
  Out.metric("sample.profile_s", T.ProfileS, "s");
  Out.metric("sample.cluster_s", T.ClusterS, "s");
  Out.metric("sample.capture_s",
             T.StreamsPrepared
                 ? T.PrepareComputedS - T.ProfileS - T.ClusterS
                 : 0.0,
             "s");
  Out.metric("sample.replay_s", T.Replay, "s");
  Out.metric("sample.replay_per_bare",
             ratio(T.ReplayComputedS, T.StreamBareS), "ratio");
  Out.metric("sample.streams_prepared", T.StreamsPrepared, "count");
  Out.metric("sample.detailed_passes", T.DetailedPasses, "count");
  Out.metric("sample.detailed_frac", ratio(T.DetailedInsts, T.StreamInsts),
             "ratio");
  Out.metric("sample.windows", T.Windows, "count");
  Out.metric("sample.arch_bytes", T.ArchBytes, "bytes");
  Out.metric("sample.arch_fallbacks", T.ArchFallbacks, "count");
  Out.metric("sample.energy_err_max_pct", EnergyErr * 100, "%");
  Out.metric("sample.cycles_err_max_pct", CyclesErr * 100, "%");
  Out.metric("driver.reduce_s", T.Reduce, "s");
  Out.metric("report.render_s", T.Render, "s");
  Out.metric("service.key_us", ratio(T.Key * 1e6, T.KeyCalls), "us");
  Out.metric("service.lookup_us", ratio(T.Lookup * 1e6, T.LookupCalls), "us");
  Out.metric("service.store_us", ratio(T.Store * 1e6, T.StoreCalls), "us");
  Out.metric("service.disk_hits", SC.DiskHits, "count");
  Out.metric("service.mem_hits", SC.MemHits, "count");
  Out.metric("service.misses", SC.Misses, "count");
  Out.metric("service.inflight_dedups", SC.Inflight, "count");
  const uint64_t Cells = SC.DiskHits + SC.MemHits + SC.Misses + SC.Inflight;
  Out.metric("service.hit_ratio", ratio(SC.DiskHits + SC.MemHits, Cells),
             "ratio");

  const std::pair<const char *, double> Shares[] = {
      {"workloads", T.Build},
      {"opt", T.Transform},
      {"sim", T.Decode + T.SbForm + RefSim},
      {"uarch", T.RefUarch},
      {"power", T.RefPower + T.Derive},
      {"sample", T.Prepare + T.Replay},
      {"driver", T.Reduce},
      {"report", T.Render},
      {"service", T.Request + T.Key + T.Lookup + T.Store},
  };
  double Attributed = 0;
  for (const auto &[Layer, Seconds] : Shares) {
    Out.metric(std::string("share.") + Layer, ratio(Seconds, T.Wall), "ratio");
    Attributed += Seconds;
  }
  Out.metric("trace.attributed_frac", ratio(Attributed, T.Wall), "ratio");
  Out.metric("trace.overhead_pct", (T.Wall - UntracedS) / UntracedS * 100,
             "%");
  std::cerr << "perfbench: traced sweep " << T.Wall << " s, untraced "
            << UntracedS << " s, attributed " << ratio(Attributed, T.Wall)
            << "\n";
}

Outcome tracedBatch(const BatchShape &B, const Args &A) {
  const JsonValue Ref = loadJson(A.RefDir + "/" + B.RefFile);
  const SweepRequest R = batchRequest(B, A.Seed);
  Expected<std::vector<ExperimentSpec>> Specs = R.buildSpecs();
  if (!Specs)
    throw std::runtime_error(Specs.error());
  Outcome Out;

  // The untraced computation: setup + sweep + render, as one end-to-end
  // repetition does it.
  std::vector<ResultAggregator::Cell> Cells;
  std::vector<uint64_t> Hashes;
  const double UntracedS = timed([&] {
    WorkloadMap WM;
    Cells = computeCells(*Specs, WM, nullptr, &Hashes);
    renderSweep(R, Cells).toString();
  });

  Tracer Tr;
  const Clock::time_point Start = Clock::now();
  for (const std::string &Name : R.Workloads)
    Tr.workload(Name, R.Scale);
  std::vector<ResultAggregator::Cell> Traced;
  for (size_t I = 0; I < Specs->size(); ++I) {
    PipelineResult PR = Tr.replayCell((*Specs)[I]);
    Tr.T.Reduce += timed(
        [&] { Traced.push_back(ResultAggregator::makeCell((*Specs)[I], PR)); });
    Tr.Excluded += timed([&] {
      Out.check(compareCells(Traced.back(), hashOutput(PR.Output), Cells[I],
                             Hashes[I]));
    });
  }
  JsonValue Doc;
  Tr.T.Render += timed([&] {
    Doc = renderSweep(R, Traced);
    Doc.toString();
  });
  Tr.T.Wall = secondsSince(Start) - Tr.Excluded;
  Tr.finishPlanCache();

  double EnergyErr = 0, CyclesErr = 0;
  checkSweepDoc(Ref, Doc, B.Sampled, Out, &EnergyErr, &CyclesErr);
  report(Out, Tr.T, UntracedS, ServiceCounts(), EnergyErr, CyclesErr);
  return Out;
}

Outcome tracedServed(const Args &A) {
  const ServedPlan Plan = makeServedPlan(A.Seed);
  const std::string Dir = A.WorkDir + "/traced-" + std::to_string(::getpid());
  Outcome Out;

  // The untraced stream against a real server: its responses and counters
  // are what the replay must reproduce.
  const ServedRep Served = runServedRep(A, Plan, Dir + "/served");
  Out.check(Served.Error);

  fs::remove_all(Dir);
  prefillCache(Plan, Dir + "/cache");
  ResultCache Cache(Dir + "/cache");
  std::map<std::string, ResultAggregator::Cell> Memory;
  ServiceCounts Replayed;
  std::vector<ExperimentSpec> ComputedSpecs;
  std::vector<ResultAggregator::Cell> ComputedCells;
  std::vector<uint64_t> ComputedHashes;

  Tracer Tr;
  const Clock::time_point Start = Clock::now();
  for (size_t I = 0; I < Plan.Stream.size(); ++I) {
    const SweepRequest &R = Plan.Stream[I];
    const Clock::time_point T0 = Clock::now();
    Expected<std::vector<ExperimentSpec>> Specs = R.buildSpecs();
    Tr.T.Request += secondsSince(T0);
    if (!Specs)
      throw std::runtime_error(Specs.error());
    std::vector<ResultAggregator::Cell> Cells;
    for (const ExperimentSpec &S : *Specs) {
      const BuiltWorkload &BW = Tr.workload(S.Workload, S.Scale);
      CellKey K;
      std::string Addr;
      Tr.T.Key += timed([&] {
        K = makeCellKey(S, BW.W);
        Addr = K.address();
      });
      ++Tr.T.KeyCalls;
      if (auto It = Memory.find(Addr); It != Memory.end()) {
        ++Replayed.MemHits;
        Cells.push_back(It->second);
        continue;
      }
      std::optional<ResultAggregator::Cell> Hit;
      Tr.T.Lookup += timed([&] { Hit = Cache.lookup(K); });
      ++Tr.T.LookupCalls;
      if (Hit) {
        ++Replayed.DiskHits;
      } else {
        ++Replayed.Misses;
        PipelineResult PR = Tr.replayCell(S);
        Tr.T.Reduce += timed([&] { Hit = ResultAggregator::makeCell(S, PR); });
        Tr.T.Store += timed([&] { Cache.store(K, *Hit); });
        ++Tr.T.StoreCalls;
        ComputedSpecs.push_back(S);
        ComputedCells.push_back(*Hit);
        ComputedHashes.push_back(hashOutput(PR.Output));
      }
      Memory[Addr] = *Hit;
      Cells.push_back(*Hit);
    }
    std::string Text;
    Tr.T.Render += timed([&] { Text = renderSweep(R, Cells).toCompactString(); });
    Tr.Excluded += timed([&] {
      Out.check(I < Served.Reports.size() && Served.Reports[I] == Text
                    ? ""
                    : "request " + std::to_string(I) +
                          ": traced replay differs from the served document");
    });
  }
  Tr.T.Wall = secondsSince(Start) - Tr.Excluded;
  Tr.finishPlanCache();
  fs::remove_all(Dir);

  // Cells the replay computed, against the untraced batch computation.
  WorkloadMap WM;
  std::vector<uint64_t> Hashes;
  const std::vector<ResultAggregator::Cell> Untraced =
      computeCells(ComputedSpecs, WM, nullptr, &Hashes);
  for (size_t I = 0; I < Untraced.size(); ++I)
    Out.check(compareCells(ComputedCells[I], ComputedHashes[I], Untraced[I],
                           Hashes[I]));

  // The server's own counters must tell the same story as the replay.
  ServiceCounts SC;
  SC.DiskHits = Served.DiskHits;
  SC.MemHits = Served.Hits - std::min(Served.Hits, Served.DiskHits);
  SC.Misses = Served.Misses;
  SC.Inflight = Served.Inflight;
  Out.check(SC.DiskHits == Replayed.DiskHits &&
                    SC.MemHits == Replayed.MemHits &&
                    SC.Misses == Replayed.Misses && SC.Inflight == 0
                ? ""
                : "server cache counters differ from the replay's");

  report(Out, Tr.T, Served.HostStreamS, SC, 0.0, 0.0);
  return Out;
}

} // namespace

Outcome pb::runTraced(const Args &A) {
  if (const BatchShape *B = findBatch(A.Workload))
    return tracedBatch(*B, A);
  return tracedServed(A);
}
