//===- perfbench/src/Batch.cpp - exact-sweep and sampled-sweep ------------===//
//
// One repetition = build and decode the eight workloads (setup), then run
// the standard sweep single-threaded and render its document. Nothing
// carries over between repetitions: workloads, decodes and the sampled
// plan cache are rebuilt each time.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <iostream>
#include <stdexcept>

using namespace og;
using namespace pb;

namespace {
constexpr size_t SetupRepeats = 5;
} // namespace

Outcome pb::runBatch(const BatchShape &B, const Args &A) {
  const JsonValue Ref = loadJson(A.RefDir + "/" + B.RefFile);
  const SweepRequest R = batchRequest(B, A.Seed);
  Expected<std::vector<ExperimentSpec>> Specs = R.buildSpecs();
  if (!Specs)
    throw std::runtime_error(Specs.error());

  Outcome Out;
  std::vector<double> SetupS, SweepS, CellMs;
  uint64_t DynInsts = 0;
  const size_t Reps = measuredReps(A.Seconds, B.NominalRepS);
  for (size_t Rep = 0; Rep <= Reps; ++Rep) {
    const bool Warmup = Rep == 0;
    // Setup is milliseconds long, so it is repeated for a steadier median;
    // the sweep uses the last set of workloads built.
    WorkloadMap WM;
    std::vector<double> Setups;
    double Speed = hostSpeed();
    for (size_t I = 0; I < SetupRepeats; ++I) {
      const Clock::time_point T0 = Clock::now();
      WM.clear();
      for (const std::string &Name : R.Workloads)
        getWorkload(WM, Name, R.Scale);
      const double Raw = secondsSince(T0);
      const double After = hostSpeed();
      Setups.push_back(atNominalSpeed(Raw, Speed, After));
      Speed = After;
    }

    CellTiming Timing;
    const std::vector<ResultAggregator::Cell> Cells =
        computeCells(*Specs, WM, &Timing);
    const Clock::time_point T1 = Clock::now();
    const JsonValue Doc = renderSweep(R, Cells);
    const std::string Text = Doc.toString();
    const double Render = secondsSince(T1);
    const double End = hostSpeed();
    double Raw = Render, Sweep = atNominalSpeed(Render, End, End);
    for (size_t I = 0; I < Cells.size(); ++I) {
      Raw += Timing.Seconds[I];
      Sweep += Timing.Nominal[I];
    }

    checkSweepDoc(Ref, Doc, B.Sampled, Out);
    DynInsts = static_cast<uint64_t>(
        Doc.get("counters")->get("sweep.dyn-insts")->asInt());
    std::cerr << "perfbench: " << B.Name << " rep " << Rep
              << (Warmup ? " (warm-up)" : "") << ": setup "
              << median(Setups) << " s, sweep " << Sweep << " s ("
              << Raw << " s host, speed " << Sweep / Raw << "), "
              << Text.size() << " document bytes\n";
    if (Warmup)
      continue;
    SetupS.insert(SetupS.end(), Setups.begin(), Setups.end());
    SweepS.push_back(Sweep);
    for (double S : Timing.Nominal)
      CellMs.push_back(S * 1e3);
  }

  Out.metric("setup_s", median(SetupS), "s");
  Out.metric("sim_mips", static_cast<double>(DynInsts) / median(SweepS) / 1e6,
             "MIPS");
  Out.metric("req_p50_ms", percentile(CellMs, 50), "ms");
  Out.metric("req_p90_ms", percentile(CellMs, 90), "ms");
  Out.metric("peak_rss_mb", selfPeakRssMb(), "MiB");
  std::cerr << "perfbench: " << SweepS.size() << " measured repetitions, "
            << CellMs.size() << " cell latencies\n";
  return Out;
}
