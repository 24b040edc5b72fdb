//===- perfbench/src/Bench.h - Shared benchmark plumbing --------*- C++ -*-===//
//
// Part of the ogate project (CGO 2004 operand-gating reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Declarations shared by the three benchmark workloads (exact-sweep,
/// sampled-sweep, served-mix) and the traced run. Everything here sits
/// outside the library: the benchmark drives ogate only through its
/// public entry points and times them from the outside.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "driver/ExperimentSpec.h"
#include "driver/ResultAggregator.h"
#include "service/SweepRequest.h"
#include "sim/ExecEngine.h"
#include "support/Json.h"
#include "workloads/Workloads.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// glibc raises its mmap threshold the first time a large mmapped block is
/// freed, so whether the 8 MiB simulated memory of a cell lives in the
/// heap (reused) or in fresh mmaps (page-faulted on every cell) would
/// depend on the order cells run in, and on how long a process has lived;
/// peak RSS and setup time moved with it. Both the benchmark process and
/// the ogate-serve it starts run at the ceiling that dynamic threshold can
/// reach, where a long-running process settles.
constexpr int MallocMmapThreshold = 32 << 20;
constexpr int MallocTrimThreshold = 64 << 20;

/// Command line of one benchmark run.
struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string RefDir;   ///< checked-in exact reference documents
  std::string ServeBin; ///< ogate-serve binary (served-mix)
  std::string WorkDir;  ///< working space for cache directories / sockets
};

/// What one run reports: the last stdout line is rendered from this.
struct Outcome {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Name -> (value, unit), in report order.
  std::vector<std::pair<std::string, std::pair<double, std::string>>> Metrics;
  /// First few failure diagnostics (stderr only).
  std::vector<std::string> Errors;

  void metric(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, {Value, Unit}});
  }
  /// Counts one checked operation; \p Error non-empty marks it failed.
  void check(const std::string &Error) {
    ++Attempted;
    if (Error.empty())
      return;
    ++Failed;
    if (Errors.size() < 20)
      Errors.push_back(Error);
  }
};

// ---- Statistics -----------------------------------------------------------

/// Percentile \p P in [0, 100] of \p V: the Harrell-Davis estimate, or
/// the minimum / maximum at 0 / 100.
double percentile(std::vector<double> V, double P);
inline double median(std::vector<double> V) {
  return percentile(std::move(V), 50.0);
}
/// The probe kernel's speed on the nominal host, units per second.
constexpr double NominalProbeRate = 1e8;

/// How much more strongly simulation time moves than the probe's when the
/// host slows: fitted on a 4-vCPU shared host, where it minimised the
/// repetition-to-repetition spread of both batch workloads (see README.md).
constexpr double SpeedSensitivity = 1.5;

/// Host speed right now, as a factor of the nominal host (1.0 = nominal,
/// 0.6 = the probe runs at 60% of it): one short run of a fixed kernel
/// that contains no ogate code.
double hostSpeed();

/// \p Seconds of host time at nominal host speed, given the hostSpeed()
/// probes taken just before and just after them. Every end-to-end time is
/// reported this way (README.md, "Host-speed normalization").
double atNominalSpeed(double Seconds, double Before, double After);
/// Peak resident set of this process, MiB.
double selfPeakRssMb();

// ---- Workload definitions ---------------------------------------------------

/// The two batch workloads: one standard sweep, exact or sampled.
struct BatchShape {
  const char *Name;
  double Scale;
  bool Sampled;
  const char *RefFile;  ///< exact reference document at Scale
  double NominalRepS;   ///< about one repetition, at nominal host speed
};

/// Measured repetitions for a run of \p Seconds: fixed by the run length
/// and the workload's nominal repetition time, never by how fast this
/// host happens to be, so every run pools the same number of samples and
/// a percentile always falls at the same rank of the cell-cost ladder.
size_t measuredReps(double Seconds, double NominalRepS);
const BatchShape *findBatch(const std::string &Name);

/// The sampling spec of every sampled request (`--sample=2000:auto`).
og::SampleSpec benchSample();

/// The standard sweep of \p B, all eight workloads in a seed-permuted
/// order (the document is sorted, so the order changes only the order in
/// which cells run and share sampled artifacts).
og::SweepRequest batchRequest(const BatchShape &B, uint64_t Seed);

/// Seed-driven choices (splitmix64, identical on every platform).
class SeedRng {
public:
  explicit SeedRng(uint64_t Seed) : State(Seed) {}
  uint64_t next();
  uint64_t below(uint64_t N) { return next() % N; }
  template <typename T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[below(I)]);
  }

private:
  uint64_t State;
};

// ---- Building and running cells --------------------------------------------

/// One workload built and pre-decoded, as the sweep service caches it.
struct BuiltWorkload {
  og::Workload W;
  std::unique_ptr<og::DecodedProgram> Decoded;
};
using WorkloadMap =
    std::map<std::pair<std::string, double>, std::unique_ptr<BuiltWorkload>>;

/// Builds (or returns) the workload \p Name at \p Scale.
const BuiltWorkload &getWorkload(WorkloadMap &M, const std::string &Name,
                                 double Scale);

/// The reduced cells of \p Specs, in spec order, computed the way the
/// batch driver computes them: one runPipeline per spec over the shared
/// pre-built workload, sampled cells sharing one SamplePlanCache.
/// \p Timing, when given, receives each cell's host seconds and the same
/// at nominal host speed (a hostSpeed() probe runs between cells, outside
/// the timed span); \p OutputHashes a hash of each cell's program output.
struct CellTiming {
  std::vector<double> Seconds;
  std::vector<double> Nominal;
};
std::vector<og::ResultAggregator::Cell>
computeCells(const std::vector<og::ExperimentSpec> &Specs, WorkloadMap &WM,
             CellTiming *Timing = nullptr,
             std::vector<uint64_t> *OutputHashes = nullptr);

/// FNV-1a over a program output stream.
uint64_t hashOutput(const std::vector<int64_t> &Output);

/// The sweep document for \p R from \p Cells (spec order).
og::JsonValue renderSweep(const og::SweepRequest &R,
                          const std::vector<og::ResultAggregator::Cell> &Cells);

// ---- Output checks ----------------------------------------------------------

/// Reads and parses a JSON file; throws on failure.
og::JsonValue loadJson(const std::string &Path);

/// Largest sampled-vs-exact relative error a sampled cell may show before
/// it counts as a failed operation, as a fraction.
constexpr double SampledErrorLimit = 0.05;

/// Checks every cell of \p Doc against the exact reference \p Ref: exact
/// documents through report/Baseline.h diffReports (counters exact,
/// metrics within the default tolerance), sampled documents by exact
/// functional counters and estimate errors under SampledErrorLimit. One
/// operation per reference cell. \p MaxEnergyErr / \p MaxCyclesErr, when
/// given, receive the largest relative errors seen.
void checkSweepDoc(const og::JsonValue &Ref, const og::JsonValue &Doc,
                   bool Sampled, Outcome &Out, double *MaxEnergyErr = nullptr,
                   double *MaxCyclesErr = nullptr);

// ---- Workload entry points ------------------------------------------------

Outcome runBatch(const BatchShape &B, const Args &A);
Outcome runServed(const Args &A);
Outcome runTraced(const Args &A);

// ---- served-mix request stream (shared by the end-to-end and traced runs) ---

struct ServedPlan {
  /// Requests whose cells setup writes into the cache directory.
  std::vector<og::SweepRequest> Prefill;
  /// The timed stream, in send order.
  std::vector<og::SweepRequest> Stream;
};
ServedPlan makeServedPlan(uint64_t Seed);

/// Writes the cells of Plan.Prefill into \p CacheDir through an in-process
/// SweepService, as an earlier batch run would have left them.
void prefillCache(const ServedPlan &Plan, const std::string &CacheDir);

/// Serializes the wire message for \p R.
std::string sweepMessage(const og::SweepRequest &R);

/// One served-mix repetition's observations. Times are at nominal host
/// speed (hostSpeed()) except HostStreamS.
struct ServedRep {
  double SetupS = 0;
  double StreamS = 0;
  double HostStreamS = 0;
  /// Summed latency and sweep.dyn-insts of the requests that computed.
  double ComputeS = 0;
  uint64_t ComputeDynInsts = 0;
  double PeakRssMb = 0;
  std::vector<double> LatencyMs;
  std::vector<std::string> Reports; ///< compact report of each response
  std::vector<bool> Computed;       ///< response had cache misses
  uint64_t Hits = 0, Misses = 0, Inflight = 0, DiskHits = 0;
  std::string Error; ///< protocol failure, "" when every request answered
};
ServedRep runServedRep(const Args &A, const ServedPlan &Plan,
                       const std::string &Dir);

} // namespace pb

#endif // PERFBENCH_BENCH_H
