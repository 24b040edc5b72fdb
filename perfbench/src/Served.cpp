//===- perfbench/src/Served.cpp - served-mix --------------------------------===//
//
// One ogate-serve --jobs=1 process per repetition and one closed-loop
// client connection (the next request goes out when the previous answer
// is in). Setup pre-fills the server's cache directory with three whole
// sweeps at scale 0.05, starts the server and pings it. The timed stream
// then mixes three kinds of request:
//
//  - first touches of pre-filled cells: answered from the cache directory;
//  - single-workload sweeps at scale 0.25, exact and sampled, whose cells
//    were not pre-filled: computed and stored (a quarter of the stream);
//  - repeats of earlier requests: answered from the server's memory.
//
// The seed picks the workload subsets and the order; the number of
// requests of each kind, and the set of computing requests, is fixed, so
// the percentiles describe the same mix on every seed.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "service/SweepService.h"
#include "service/Wire.h"

#include <cerrno>
#include <csignal>
#include <fcntl.h>
#include <filesystem>
#include <iostream>
#include <spawn.h>
#include <stdexcept>
#include <sys/resource.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

using namespace og;
using namespace pb;

namespace fs = std::filesystem;

namespace {

/// About one repetition (setup + stream), at nominal host speed.
constexpr double NominalRepS = 3.0;

SweepRequest makeRequest(const char *Kind, double Scale,
                         std::vector<std::string> Workloads, bool Sampled) {
  SweepRequest R;
  R.SweepKind = Kind;
  R.Scale = Scale;
  R.Workloads = std::move(Workloads);
  if (Sampled)
    R.Sample = benchSample();
  return R;
}

std::string messageOf(const char *Method) {
  JsonValue V = JsonValue::object();
  V.set("method", JsonValue::str(Method));
  return V.toCompactString();
}

/// The non-negative integer \p Key of object \p Obj, or -1 when the
/// server's response lacks it.
int64_t intField(const JsonValue *Obj, const char *Key) {
  const JsonValue *V = Obj && Obj->isObject() ? Obj->get(Key) : nullptr;
  return V && V->isInteger() && V->asInt() >= 0 ? V->asInt() : -1;
}

/// Waits up to \p Seconds for \p Pid to exit and reaps it; true when it
/// did, with its exit status and resource usage.
bool waitExit(int Pid, double Seconds, int &Status, struct rusage &Usage) {
  const Clock::time_point T0 = Clock::now();
  for (;;) {
    const int R = ::wait4(Pid, &Status, WNOHANG, &Usage);
    if (R == Pid || (R < 0 && errno != EINTR))
      return true;
    if (secondsSince(T0) > Seconds)
      return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

} // namespace

ServedPlan pb::makeServedPlan(uint64_t Seed) {
  SeedRng Rng(Seed);
  ServedPlan P;
  const double PrefillScale = 0.05, ComputeScale = 0.25;
  P.Prefill = {makeRequest("standard", PrefillScale, {}, false),
               makeRequest("matrix", PrefillScale, {}, false),
               makeRequest("standard", PrefillScale, {}, true)};

  // Distinct requests. Cache-resolved: for each pre-filled sweep and each
  // subset size 1..3, two disjoint seed-chosen workload subsets (18).
  // Computing: every workload alone at ComputeScale, exact and sampled
  // (16, a fixed set).
  std::vector<SweepRequest> Cached, Computing;
  for (const SweepRequest &Pre : P.Prefill)
    for (size_t Size = 1; Size <= 3; ++Size) {
      std::vector<std::string> Names = allWorkloadNames();
      Rng.shuffle(Names);
      for (size_t Half = 0; Half < 2; ++Half)
        Cached.push_back(makeRequest(
            Pre.SweepKind.c_str(), PrefillScale,
            {Names.begin() + Half * Size, Names.begin() + (Half + 1) * Size},
            Pre.Sample.enabled()));
    }
  for (const std::string &Name : allWorkloadNames())
    for (bool Sampled : {false, true})
      Computing.push_back(
          makeRequest("standard", ComputeScale, {Name}, Sampled));

  // Originals in seed order; then every computing request is repeated once
  // and 14 seed-chosen cached requests once, each repeat at a seed-chosen
  // position after its original. 64 requests, 16 of which compute.
  std::vector<const SweepRequest *> Order;
  for (const SweepRequest &R : Cached)
    Order.push_back(&R);
  for (const SweepRequest &R : Computing)
    Order.push_back(&R);
  Rng.shuffle(Order);
  std::vector<const SweepRequest *> Repeats;
  for (const SweepRequest &R : Computing)
    Repeats.push_back(&R);
  std::vector<const SweepRequest *> CachedPicks;
  for (const SweepRequest &R : Cached)
    CachedPicks.push_back(&R);
  Rng.shuffle(CachedPicks);
  Repeats.insert(Repeats.end(), CachedPicks.begin(), CachedPicks.begin() + 14);
  for (const SweepRequest *R : Repeats) {
    const size_t First =
        std::find(Order.begin(), Order.end(), R) - Order.begin();
    const size_t Pos = First + 1 + Rng.below(Order.size() - First);
    Order.insert(Order.begin() + Pos, R);
  }
  for (const SweepRequest *R : Order)
    P.Stream.push_back(*R);
  return P;
}

void pb::prefillCache(const ServedPlan &Plan, const std::string &CacheDir) {
  ServiceOptions SO;
  SO.Jobs = 1;
  SO.CacheDir = CacheDir;
  SweepService Prefill(SO);
  for (const SweepRequest &R : Plan.Prefill) {
    ServedSweep S = Prefill.serve(R);
    if (!S.Ok)
      throw std::runtime_error("cache pre-fill failed: " + S.Error);
  }
}

std::string pb::sweepMessage(const SweepRequest &R) {
  JsonValue V = JsonValue::object();
  V.set("method", JsonValue::str("sweep"));
  V.set("request", R.toJson());
  return V.toCompactString();
}

namespace {

/// Owns a spawned process: kills and reaps it unless stop() reaped it.
struct ChildProcess {
  int Pid = -1;
  ChildProcess() = default;
  ChildProcess(const ChildProcess &) = delete;
  ChildProcess &operator=(const ChildProcess &) = delete;
  ~ChildProcess() {
    if (Pid > 0) {
      ::kill(Pid, SIGKILL);
      int Status = 0;
      ::waitpid(Pid, &Status, 0);
    }
  }
};

/// Owns a file descriptor.
struct OwnedFd {
  int Fd = -1;
  OwnedFd() = default;
  OwnedFd(const OwnedFd &) = delete;
  OwnedFd &operator=(const OwnedFd &) = delete;
  ~OwnedFd() { reset(); }
  void reset() {
    if (Fd >= 0)
      ::close(Fd);
    Fd = -1;
  }
};

/// One ogate-serve process on a fresh cache directory, pre-filled and
/// pinged (setup), owned for one repetition.
class ServerRun {
public:
  ServerRun(const Args &A, const ServedPlan &Plan, const std::string &Dir);

  /// Seconds from the start of the pre-fill to the first ping's answer.
  double setupSeconds() const { return SetupS; }
  /// Sends one line, returns the response line ("" on a dead server).
  std::string roundTrip(const std::string &Line);
  /// Shuts the server down and waits for it; false if it misbehaved.
  bool stop();
  /// The stopped server's peak resident set, MiB.
  double peakRssMb() const { return PeakRssMb; }

private:
  // Declared in this order so the connection closes before the server is
  // killed.
  ChildProcess Server;
  OwnedFd Conn;
  std::unique_ptr<LineReader> Reader;
  double SetupS = 0;
  double PeakRssMb = 0;
};

ServerRun::ServerRun(const Args &A, const ServedPlan &Plan,
                     const std::string &Dir) {
  const Clock::time_point T0 = Clock::now();
  const std::string CacheDir = Dir + "/cache";
  prefillCache(Plan, CacheDir);

  const std::string Socket = Dir + "/sock";
  const std::string SocketArg = "--socket=" + Socket;
  const std::string CacheArg = "--cache-dir=" + CacheDir;
  const std::string Log = Dir + "/serve.log";
  std::vector<char *> Argv = {const_cast<char *>(A.ServeBin.c_str()),
                              const_cast<char *>(SocketArg.c_str()),
                              const_cast<char *>(CacheArg.c_str()),
                              const_cast<char *>("--jobs=1"), nullptr};
  posix_spawn_file_actions_t Actions;
  posix_spawn_file_actions_init(&Actions);
  posix_spawn_file_actions_addopen(&Actions, STDOUT_FILENO, Log.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&Actions, STDOUT_FILENO, STDERR_FILENO);
  // The server runs under the same malloc thresholds as this process.
  std::vector<std::string> EnvStrings;
  std::string Tunables =
      "GLIBC_TUNABLES=glibc.malloc.mmap_threshold=" +
      std::to_string(MallocMmapThreshold) +
      ":glibc.malloc.trim_threshold=" + std::to_string(MallocTrimThreshold);
  for (char **E = environ; *E; ++E) {
    const std::string Var = *E;
    if (Var.rfind("GLIBC_TUNABLES=", 0) == 0)
      Tunables += ":" + Var.substr(15);
    else
      EnvStrings.push_back(Var);
  }
  EnvStrings.push_back(Tunables);
  std::vector<char *> Envp;
  for (std::string &E : EnvStrings)
    Envp.push_back(E.data());
  Envp.push_back(nullptr);
  pid_t Child = -1;
  const int SpawnErr = posix_spawn(&Child, A.ServeBin.c_str(), &Actions,
                                   nullptr, Argv.data(), Envp.data());
  posix_spawn_file_actions_destroy(&Actions);
  if (SpawnErr != 0)
    throw std::runtime_error("cannot start " + A.ServeBin);
  Server.Pid = Child;

  std::string Err;
  while ((Conn.Fd = connectUnix(Socket, Err)) < 0) {
    int Status = 0;
    if (::waitpid(Server.Pid, &Status, WNOHANG) == Server.Pid) {
      Server.Pid = -1;
      throw std::runtime_error("ogate-serve exited during start-up (see " +
                               Log + ")");
    }
    if (secondsSince(T0) > 60)
      throw std::runtime_error("ogate-serve did not listen: " + Err);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  Reader = std::make_unique<LineReader>(Conn.Fd);
  const std::string Pong = roundTrip(messageOf("ping"));
  if (Pong.find("\"pong\":true") == std::string::npos)
    throw std::runtime_error("ogate-serve ping failed: " + Pong);
  SetupS = secondsSince(T0);
}

std::string ServerRun::roundTrip(const std::string &Line) {
  std::string Response;
  if (!sendLine(Conn.Fd, Line) || !Reader->readLine(Response))
    return "";
  return Response;
}

bool ServerRun::stop() {
  const std::string Ack = roundTrip(messageOf("shutdown"));
  Conn.reset();
  int Status = 0;
  struct rusage Usage {};
  if (!waitExit(Server.Pid, 60, Status, Usage))
    return false; // ~ChildProcess kills it
  Server.Pid = -1;
  PeakRssMb = static_cast<double>(Usage.ru_maxrss) / 1024.0; // KiB
  return Ack.find("\"stopping\":true") != std::string::npos &&
         WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
}

} // namespace

ServedRep pb::runServedRep(const Args &A, const ServedPlan &Plan,
                           const std::string &Dir) {
  fs::remove_all(Dir);
  fs::create_directories(Dir);
  ServedRep Rep;
  {
    // Every time is scaled to nominal host speed by the probes around it.
    const double Before = hostSpeed();
    ServerRun S(A, Plan, Dir);
    double Speed = hostSpeed();
    Rep.SetupS = atNominalSpeed(S.setupSeconds(), Before, Speed);
    std::vector<std::string> Lines;
    Lines.reserve(Plan.Stream.size());
    std::vector<std::string> Messages;
    for (const SweepRequest &R : Plan.Stream)
      Messages.push_back(sweepMessage(R));
    for (const std::string &M : Messages) {
      const Clock::time_point T0 = Clock::now();
      Lines.push_back(S.roundTrip(M));
      const double Lat = secondsSince(T0);
      const double After = hostSpeed();
      const double Nominal = atNominalSpeed(Lat, Speed, After);
      Speed = After;
      Rep.HostStreamS += Lat;
      Rep.StreamS += Nominal;
      Rep.LatencyMs.push_back(Nominal * 1e3);
    }
    for (const std::string &L : Lines) {
      Expected<JsonValue> V = parseJson(L);
      const JsonValue *Report = V ? V->get("report") : nullptr;
      const JsonValue *Served = V ? V->get("served") : nullptr;
      const JsonValue *Counters = Report ? Report->get("counters") : nullptr;
      const int64_t Dyn = intField(Counters, "sweep.dyn-insts");
      const int64_t Hits = intField(Served, "hits");
      const int64_t Misses = intField(Served, "misses");
      const int64_t Inflight = intField(Served, "inflight-dedup");
      if (Dyn < 0 || Hits < 0 || Misses < 0 || Inflight < 0) {
        Rep.Error = "bad response: " + L.substr(0, 200);
        Rep.Reports.push_back("");
        Rep.Computed.push_back(false);
        continue;
      }
      Rep.Reports.push_back(Report->toCompactString());
      if (Misses > 0) {
        Rep.ComputeDynInsts += static_cast<uint64_t>(Dyn);
        Rep.ComputeS += Rep.LatencyMs[Rep.Reports.size() - 1] / 1e3;
      }
      Rep.Hits += static_cast<uint64_t>(Hits);
      Rep.Misses += static_cast<uint64_t>(Misses);
      Rep.Inflight += static_cast<uint64_t>(Inflight);
      Rep.Computed.push_back(Misses > 0);
    }
    Expected<JsonValue> C = parseJson(S.roundTrip(messageOf("counters")));
    const int64_t DiskHits = intField(C ? C->get("cache") : nullptr, "hits");
    if (DiskHits >= 0)
      Rep.DiskHits = static_cast<uint64_t>(DiskHits);
    else if (Rep.Error.empty())
      Rep.Error = "counters request failed";
    if (!S.stop() && Rep.Error.empty())
      Rep.Error = "ogate-serve did not shut down cleanly";
    Rep.PeakRssMb = S.peakRssMb();
  }
  fs::remove_all(Dir);
  return Rep;
}

namespace {

/// The batch document of every distinct stream request, compact-rendered:
/// cells computed by the batch path (no service, no cell cache), each
/// distinct cell once.
std::map<std::string, std::string>
batchDocuments(const std::vector<SweepRequest> &Stream) {
  WorkloadMap WM;
  std::map<std::string, ResultAggregator::Cell> Memo;
  auto CellId = [](const ExperimentSpec &S) {
    return S.name() + "@" + std::to_string(S.Scale) +
           (S.Config.Sample.enabled() ? "/sampled" : "");
  };
  std::map<std::string, std::string> Docs;
  for (const SweepRequest &R : Stream) {
    const std::string Msg = sweepMessage(R);
    if (Docs.count(Msg))
      continue;
    Expected<std::vector<ExperimentSpec>> Specs = R.buildSpecs();
    if (!Specs)
      throw std::runtime_error(Specs.error());
    std::vector<ExperimentSpec> Missing;
    for (const ExperimentSpec &S : *Specs)
      if (!Memo.count(CellId(S)))
        Missing.push_back(S);
    std::vector<ResultAggregator::Cell> New = computeCells(Missing, WM);
    for (size_t I = 0; I < Missing.size(); ++I)
      Memo[CellId(Missing[I])] = std::move(New[I]);
    std::vector<ResultAggregator::Cell> Cells;
    for (const ExperimentSpec &S : *Specs)
      Cells.push_back(Memo.at(CellId(S)));
    Docs[Msg] = renderSweep(R, Cells).toCompactString();
  }
  return Docs;
}

} // namespace

Outcome pb::runServed(const Args &A) {
  const ServedPlan Plan = makeServedPlan(A.Seed);
  const std::string Dir =
      A.WorkDir + "/served-" + std::to_string(::getpid());
  std::vector<ServedRep> Reps;
  const size_t Measured = measuredReps(A.Seconds, NominalRepS);
  for (size_t Rep = 0; Rep <= Measured; ++Rep) {
    Reps.push_back(runServedRep(A, Plan, Dir));
    const ServedRep &R = Reps.back();
    std::cerr << "perfbench: served-mix rep " << Rep
              << (Rep == 0 ? " (warm-up)" : "") << ": setup " << R.SetupS
              << " s, stream " << R.StreamS << " s (" << R.HostStreamS
              << " s host), " << R.Misses
              << " cells computed, " << R.DiskHits << " from disk\n";
  }

  Outcome Out;
  const std::map<std::string, std::string> Docs = batchDocuments(Plan.Stream);
  std::vector<double> SetupS, ComputeS, Rss, Lat, ComputeLat, CachedLat;
  for (size_t Rep = 0; Rep < Reps.size(); ++Rep) {
    const ServedRep &R = Reps[Rep];
    Out.check(R.Error);
    for (size_t I = 0; I < R.Reports.size(); ++I)
      Out.check(R.Reports[I] == Docs.at(sweepMessage(Plan.Stream[I]))
                    ? ""
                    : "request " + std::to_string(I) +
                          ": served document differs from the batch one");
    if (Rep == 0)
      continue; // warm-up
    SetupS.push_back(R.SetupS);
    ComputeS.push_back(R.ComputeS);
    Rss.push_back(R.PeakRssMb);
    Lat.insert(Lat.end(), R.LatencyMs.begin(), R.LatencyMs.end());
    for (size_t I = 0; I < R.LatencyMs.size(); ++I)
      (R.Computed[I] ? ComputeLat : CachedLat).push_back(R.LatencyMs[I]);
  }

  const double P50 = percentile(Lat, 50), P90 = percentile(Lat, 90);
  Out.metric("setup_s", median(SetupS), "s");
  // The computing requests are the same set on every seed; cache-resolved
  // ones are not, and answer their instructions in microseconds.
  Out.metric("sim_mips",
             static_cast<double>(Reps.back().ComputeDynInsts) /
                 median(ComputeS) / 1e6,
             "MIPS");
  Out.metric("req_p50_ms", P50, "ms");
  Out.metric("req_p90_ms", P90, "ms");
  Out.metric("peak_rss_mb", median(Rss), "MiB");
  std::cerr << "perfbench: " << Lat.size() << " requests over "
            << SetupS.size() << " measured repetitions; cache-resolved "
            << CachedLat.size() << " (max " << percentile(CachedLat, 100)
            << " ms), computing " << ComputeLat.size() << " (min "
            << percentile(ComputeLat, 0) << " ms); p50 " << P50 << " ms, p90 "
            << P90 << " ms\n";
  return Out;
}
