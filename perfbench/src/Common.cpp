//===- perfbench/src/Common.cpp - Shared benchmark plumbing ---------------===//

#include "Bench.h"

#include "driver/Driver.h"
#include "report/Baseline.h"
#include "report/ReportSchema.h"
#include "sample/SamplePlanCache.h"
#include "support/Hash.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <sys/resource.h>

using namespace og;
using namespace pb;

double pb::percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  if (P <= 0 || P >= 100 || V.size() == 1)
    return P <= 0 ? V.front() : V.back();
  // Harrell-Davis: a Beta(p(n+1), (1-p)(n+1))-weighted mean of all order
  // statistics. Cell and request costs form a ladder with wide gaps
  // between rungs; one interpolated order statistic jumps between rungs
  // with noise, the weighted mean moves smoothly.
  const double N = static_cast<double>(V.size());
  const double A = P / 100.0 * (N + 1), B = (1 - P / 100.0) * (N + 1);
  const double LogBeta = std::lgamma(A) + std::lgamma(B) - std::lgamma(A + B);
  auto Density = [&](double X) {
    if (X <= 0 || X >= 1)
      return 0.0;
    return std::exp((A - 1) * std::log(X) + (B - 1) * std::log1p(-X) -
                    LogBeta);
  };
  double Sum = 0, Weights = 0;
  constexpr int Steps = 16; // Simpson's rule inside each 1/n slice
  for (size_t I = 0; I < V.size(); ++I) {
    const double Lo = static_cast<double>(I) / N, H = 1.0 / N / Steps;
    double W = Density(Lo) + Density(Lo + 1.0 / N);
    for (int K = 1; K < Steps; ++K)
      W += (K % 2 ? 4 : 2) * Density(Lo + K * H);
    W *= H / 3;
    Sum += W * V[I];
    Weights += W;
  }
  return Sum / Weights;
}

double pb::selfPeakRssMb() {
  struct rusage U {};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

/// Where hostSpeed() leaves its result, so the kernel cannot be elided.
volatile uint64_t ProbeSink = 0;

double pb::hostSpeed() {
  // A fixed integer kernel with no ogate code in it: hashing, branches and
  // dependent loads over a 256 KiB table, the mix an interpretive simulator
  // runs. Median of three short timings, about 4 ms in all.
  static std::vector<uint32_t> Table = [] {
    std::vector<uint32_t> T(1u << 16);
    uint64_t X = 1;
    for (uint32_t &V : T)
      V = static_cast<uint32_t>(
          (X = X * 6364136223846793005ull + 1442695040888963407ull) >> 32);
    return T;
  }();
  static uint64_t X = 0x9E3779B97F4A7C15ull;
  constexpr uint32_t Units = 1u << 17;
  uint64_t Acc = 0;
  double Rates[3];
  for (double &Rate : Rates) {
    const Clock::time_point T0 = Clock::now();
    for (uint32_t I = 0; I < Units; ++I) {
      X ^= X << 13;
      X ^= X >> 7;
      X ^= X << 17;
      uint32_t &Slot = Table[(X ^ Acc) & (Table.size() - 1)];
      switch (X >> 62) {
      case 0:
        Acc += Slot;
        break;
      case 1:
        Acc ^= Slot >> 3;
        break;
      case 2:
        Slot += static_cast<uint32_t>(Acc);
        break;
      default:
        Acc = Acc * 31 + (Slot & 0xFF);
        break;
      }
    }
    Rate = Units / secondsSince(T0);
  }
  ProbeSink = Acc; // keeps the loop from being optimized away
  std::sort(std::begin(Rates), std::end(Rates));
  return Rates[1] / NominalProbeRate;
}

double pb::atNominalSpeed(double Seconds, double Before, double After) {
  return Seconds * std::pow((Before + After) / 2, SpeedSensitivity);
}

const BatchShape *pb::findBatch(const std::string &Name) {
  static const BatchShape Shapes[] = {
      {"exact-sweep", 1.0, false, "exact-standard-scale1.json", 5.0},
      {"sampled-sweep", 8.0, true, "exact-standard-scale8.json", 5.5},
  };
  for (const BatchShape &B : Shapes)
    if (Name == B.Name)
      return &B;
  return nullptr;
}

size_t pb::measuredReps(double Seconds, double NominalRepS) {
  return std::max<size_t>(3, static_cast<size_t>(std::ceil(Seconds / NominalRepS)));
}

SampleSpec pb::benchSample() {
  SampleSpec S;
  S.IntervalLen = 2000;
  S.K = 0; // auto
  return S;
}

uint64_t SeedRng::next() {
  State += 0x9E3779B97F4A7C15ull;
  uint64_t Z = State;
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
  return Z ^ (Z >> 31);
}

SweepRequest pb::batchRequest(const BatchShape &B, uint64_t Seed) {
  SweepRequest R;
  R.SweepKind = "standard";
  R.Scale = B.Scale;
  R.Workloads = allWorkloadNames();
  SeedRng(Seed).shuffle(R.Workloads);
  if (B.Sampled)
    R.Sample = benchSample();
  return R;
}

const BuiltWorkload &pb::getWorkload(WorkloadMap &M, const std::string &Name,
                                     double Scale) {
  std::unique_ptr<BuiltWorkload> &Slot = M[{Name, Scale}];
  if (!Slot) {
    Slot = std::make_unique<BuiltWorkload>();
    Slot->W = makeWorkload(Name, Scale);
    Slot->Decoded = std::make_unique<DecodedProgram>(Slot->W.Prog);
  }
  return *Slot;
}

std::vector<ResultAggregator::Cell>
pb::computeCells(const std::vector<ExperimentSpec> &Specs, WorkloadMap &WM,
                 CellTiming *Timing, std::vector<uint64_t> *OutputHashes) {
  for (const ExperimentSpec &S : Specs)
    getWorkload(WM, S.Workload, S.Scale);
  SamplePlanCache PlanCache;
  std::vector<ResultAggregator::Cell> Cells(Specs.size());
  std::vector<double> Seconds(Specs.size(), 0.0), Nominal(Specs.size(), 0.0);
  std::vector<uint64_t> Hashes(Specs.size(), 0);
  SweepOptions SO;
  SO.Jobs = 1;
  SO.Job = [&](const ExperimentSpec &Spec, Rng &) {
    const BuiltWorkload &BW = getWorkload(WM, Spec.Workload, Spec.Scale);
    return runPipeline(BW.W, Spec.Config, BW.Decoded.get(),
                       Spec.Config.Sample.enabled() ? &PlanCache : nullptr);
  };
  double Speed = Timing ? hostSpeed() : 1.0;
  Clock::time_point CellStart = Clock::now();
  SO.Consume = [&](size_t I, const ExperimentSpec &Spec, PipelineResult &R) {
    Cells[I] = ResultAggregator::makeCell(Spec, R);
    Hashes[I] = hashOutput(R.Output);
    // Jobs == 1 runs cells back to back on this thread, so each cell's
    // latency is the gap since the previous one finished. The host speed
    // over the cell is taken as the mean of the probes around it.
    Seconds[I] = secondsSince(CellStart);
    if (Timing) {
      const double After = hostSpeed();
      Nominal[I] = atNominalSpeed(Seconds[I], Speed, After);
      Speed = After;
    }
    CellStart = Clock::now();
  };
  SweepResult SR = runSweep(Specs, SO);
  if (!SR.AllOk)
    throw std::runtime_error("sweep failed: " + SR.FirstError);
  if (Timing) {
    Timing->Seconds = std::move(Seconds);
    Timing->Nominal = std::move(Nominal);
  }
  if (OutputHashes)
    *OutputHashes = std::move(Hashes);
  return Cells;
}

uint64_t pb::hashOutput(const std::vector<int64_t> &Output) {
  Fnv1a H;
  for (int64_t V : Output)
    H.u64(static_cast<uint64_t>(V));
  return H.hash();
}

JsonValue pb::renderSweep(const SweepRequest &R,
                          const std::vector<ResultAggregator::Cell> &Cells) {
  ResultAggregator Agg;
  for (const ResultAggregator::Cell &C : Cells)
    Agg.add(C);
  return sweepToJson(Agg, R.SweepKind, R.Scale, R.Report.OptStats,
                     R.Sample.enabled() ? &R.Sample : nullptr,
                     R.Report.EngineStats);
}

JsonValue pb::loadJson(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    throw std::runtime_error("cannot read " + Path);
  std::stringstream SS;
  SS << In.rdbuf();
  Expected<JsonValue> V = parseJson(SS.str());
  if (!V)
    throw std::runtime_error(Path + ": " + V.error());
  return std::move(*V);
}

namespace {

std::string cellName(const JsonValue &C) {
  const JsonValue *W = C.get("workload");
  const JsonValue *L = C.get("config");
  return (W && W->isString() ? W->asString() : "?") + "/" +
         (L && L->isString() ? L->asString() : "?");
}

double leaf(const JsonValue &C, const char *Group, const char *Key) {
  const JsonValue *G = C.get(Group);
  const JsonValue *V = G ? G->get(Key) : nullptr;
  return V && V->isNumber() ? V->asNumber() : std::nan("");
}

/// Sampled cell vs its exact reference cell; "" when it passes.
std::string checkSampledCell(const JsonValue &Ref, const JsonValue &Cur,
                             double &EnergyErr, double &CyclesErr) {
  for (const char *K : {"dyn-insts", "narrowed-opcodes", "width-bearing-opcodes"})
    if (leaf(Ref, "counters", K) != leaf(Cur, "counters", K))
      return std::string("functional counter ") + K + " differs from exact";
  if (!Cur.get("sample"))
    return "sampled cell lacks its \"sample\" group";
  const double E = leaf(Ref, "metrics", "energy");
  const double C = leaf(Ref, "counters", "cycles");
  EnergyErr = std::fabs(leaf(Cur, "metrics", "energy") - E) / E;
  CyclesErr = std::fabs(leaf(Cur, "counters", "cycles") - C) / C;
  if (!(EnergyErr <= SampledErrorLimit) || !(CyclesErr <= SampledErrorLimit)) {
    std::ostringstream OS;
    OS << "estimate error over limit: energy " << EnergyErr * 100
       << "%, cycles " << CyclesErr * 100 << "%";
    return OS.str();
  }
  return "";
}

} // namespace

void pb::checkSweepDoc(const JsonValue &Ref, const JsonValue &Doc, bool Sampled,
                       Outcome &Out, double *MaxEnergyErr,
                       double *MaxCyclesErr) {
  const JsonValue *RefCells = Ref.get("cells");
  const JsonValue *Cells = Doc.get("cells");
  if (!RefCells || !Cells || !Cells->isArray()) {
    Out.check("document has no cells array");
    return;
  }
  std::map<std::string, const JsonValue *> ByName;
  for (size_t I = 0; I < Cells->size(); ++I)
    ByName[cellName(Cells->at(I))] = &Cells->at(I);
  Out.check(Cells->size() == RefCells->size()
                ? ""
                : "document has " + std::to_string(Cells->size()) +
                      " cells, reference " + std::to_string(RefCells->size()));
  for (size_t I = 0; I < RefCells->size(); ++I) {
    const JsonValue &RC = RefCells->at(I);
    const std::string Name = cellName(RC);
    auto It = ByName.find(Name);
    if (It == ByName.end()) {
      Out.check(Name + ": missing from the document");
      continue;
    }
    if (Sampled) {
      double EE = 0, CE = 0;
      const std::string Err = checkSampledCell(RC, *It->second, EE, CE);
      Out.check(Err.empty() ? "" : Name + ": " + Err);
      if (MaxEnergyErr)
        *MaxEnergyErr = std::max(*MaxEnergyErr, EE);
      if (MaxCyclesErr)
        *MaxCyclesErr = std::max(*MaxCyclesErr, CE);
      continue;
    }
    DiffResult D = diffReports(RC, *It->second);
    Out.check(D.ok() ? ""
                     : Name + ": " + D.Findings.front().Path + " " +
                           D.Findings.front().What);
  }
}
