//===- perfbench/src/main.cpp - Benchmark entry point ----------------------===//
//
// ogate-perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 --refs DIR --serve PATH --work-dir DIR
//
// Runs one workload (exact-sweep, sampled-sweep, served-mix) and prints,
// as the last stdout line, {"correct", "attempted", "failed", "metrics"}:
// the end-to-end metrics with --trace 0, the per-layer metrics of the
// traced run with --trace 1. Progress and diagnostics go to stderr.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cstdlib>
#include <exception>
#include <iostream>
#include <malloc.h>
#include <sched.h>

using namespace og;
using namespace pb;

namespace {

[[noreturn]] void usage(const std::string &Why) {
  std::cerr << "ogate-perfbench: " << Why
            << "\nusage: ogate-perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --refs DIR --serve PATH --work-dir DIR\n";
  std::exit(2);
}

Args parseArgs(int argc, char **argv) {
  Args A;
  bool HaveTrace = false;
  for (int I = 1; I < argc; ++I) {
    const std::string Flag = argv[I];
    if (I + 1 >= argc)
      usage("missing value for " + Flag);
    const std::string Val = argv[++I];
    try {
      if (Flag == "--workload")
        A.Workload = Val;
      else if (Flag == "--seed")
        A.Seed = std::stoull(Val);
      else if (Flag == "--seconds")
        A.Seconds = std::stod(Val);
      else if (Flag == "--trace") {
        if (Val != "0" && Val != "1")
          usage("--trace wants 0 or 1");
        A.Trace = Val == "1";
        HaveTrace = true;
      } else if (Flag == "--refs")
        A.RefDir = Val;
      else if (Flag == "--serve")
        A.ServeBin = Val;
      else if (Flag == "--work-dir")
        A.WorkDir = Val;
      else
        usage("unknown flag " + Flag);
    } catch (const std::exception &) {
      usage("malformed value for " + Flag + ": " + Val);
    }
  }
  if (A.Workload.empty() || !HaveTrace || A.RefDir.empty() ||
      A.ServeBin.empty() || A.WorkDir.empty() || !(A.Seconds > 0))
    usage("missing flags");
  if (!findBatch(A.Workload) && A.Workload != "served-mix")
    usage("unknown workload '" + A.Workload + "'");
  return A;
}

} // namespace

int main(int argc, char **argv) {
  const Args A = parseArgs(argc, argv);
  mallopt(M_MMAP_THRESHOLD, MallocMmapThreshold);
  mallopt(M_TRIM_THRESHOLD, MallocTrimThreshold);
  // Stay on the CPU the run starts on, so the host-speed probes measure
  // the CPU the work runs on. The ogate-serve child inherits the mask; a
  // closed-loop client and its server never need the CPU at once.
  if (const int Cpu = sched_getcpu(); Cpu >= 0) {
    cpu_set_t Set;
    CPU_ZERO(&Set);
    CPU_SET(Cpu, &Set);
    sched_setaffinity(0, sizeof Set, &Set);
  }
  Outcome Out;
  try {
    if (A.Trace)
      Out = runTraced(A);
    else if (const BatchShape *B = findBatch(A.Workload))
      Out = runBatch(*B, A);
    else
      Out = runServed(A);
  } catch (const std::exception &E) {
    std::cerr << "ogate-perfbench: " << E.what() << "\n";
    return 1;
  }
  for (const std::string &E : Out.Errors)
    std::cerr << "ogate-perfbench: FAILED: " << E << "\n";

  JsonValue Metrics = JsonValue::object();
  for (const auto &[Name, VU] : Out.Metrics) {
    JsonValue M = JsonValue::object();
    M.set("value", JsonValue::number(VU.first));
    M.set("unit", JsonValue::str(VU.second));
    Metrics.set(Name, std::move(M));
  }
  JsonValue Result = JsonValue::object();
  Result.set("correct", JsonValue::boolean(Out.Failed == 0 && Out.Attempted > 0));
  Result.set("attempted", JsonValue::integer(Out.Attempted));
  Result.set("failed", JsonValue::integer(Out.Failed));
  Result.set("metrics", std::move(Metrics));
  std::cout << Result.toCompactString() << std::endl;
  return 0;
}
