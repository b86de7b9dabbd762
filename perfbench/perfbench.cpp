// Sweep-cell benchmark binary (see NOTES.md for the workloads and metrics).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir> --reference-dir <dir>
//   perfbench --write-reference --reference-dir <dir> --work-dir <dir>
//
// One process, single-threaded simulation (a JobServer adds one server and
// one job thread on dse_grid). It times, from outside, the public calls
// into each layer: sim (GpuSystem), gpgpu (StreamingMultiprocessor,
// MemoryController), noc (Fabric, Network) and dse (RunJob, JobServer).
// Every cell runs on both scheduling backends: full (the default and the
// bit-identity oracle) and soa (the fast path).
//
// --trace 0 repeats whole rounds of the workload until --seconds have
// passed and prints the end-to-end metrics. --trace 1 is the separate
// traced run that prints the per-layer metrics. Both check
// every simulated output: against the stored reference digests for the
// reference seed, against an untimed full rerun for any other seed, and
// soa against full. The last stdout line is the result JSON.
#include <fcntl.h>
#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "chip.hpp"
#include "common/json.hpp"
#include "common/serialize.hpp"
#include "dse/job.hpp"
#include "dse/server.hpp"
#include "dse/space.hpp"
#include "sim/experiment.hpp"
#include "sim/gpu_system.hpp"

namespace fs = std::filesystem;
using namespace gnoc;

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// GpuConfig's own default seed: the seed the reference digests are for.
constexpr std::uint64_t kReferenceSeed = 0xC0FFEE;

/// The JobServer spool scan interval. Short, so that `once` notices the
/// finished job promptly (the 200 ms default would add idle time).
constexpr int kServerPollMs = 20;

constexpr SchedulingMode kBackends[] = {SchedulingMode::kFull,
                                        SchedulingMode::kSoa};
constexpr std::size_t kFull = 0;
constexpr std::size_t kSoa = 1;
const char* const kBackendNames[] = {"full", "soa"};

// ---------------------------------------------------------------------------
// Workloads

/// One sweep cell: a configuration, a workload profile and run lengths.
struct Cell {
  std::string label;
  GpuConfig config;
  WorkloadProfile profile;
  RunLengths lengths;
};

GpuConfig WithScheduling(GpuConfig cfg, std::size_t backend) {
  cfg.scheduling = kBackends[backend];
  return cfg;
}

/// The Table-2 chip under fig8's four schemes with the memory-bound
/// profiles: the paper's own setting, with saturated MC reply links. The
/// network saturates within a few hundred cycles (flit hops per cycle and
/// SA efficiency are those of a 4000-cycle cell), so short cells keep the
/// host-time profile while a run fits many rounds.
std::vector<Cell> Mesh8MemboundCells(std::uint64_t seed) {
  GpuConfig base = GpuConfig::Baseline();
  base.seed = seed;
  GpuConfig xy_mono = base;
  xy_mono.vc_policy = VcPolicyKind::kFullMonopolize;
  GpuConfig yx_mono = xy_mono;
  yx_mono.routing = RoutingAlgorithm::kYX;
  GpuConfig xyyx_pm = base;
  xyyx_pm.routing = RoutingAlgorithm::kXYYX;
  xyyx_pm.vc_policy = VcPolicyKind::kPartialMonopolize;
  const std::vector<std::pair<std::string, GpuConfig>> schemes{
      {"XY (Baseline)", base},
      {"XY (Monopolized)", xy_mono},
      {"YX (Monopolized)", yx_mono},
      {"XY-YX (Partially Mono)", xyyx_pm}};
  RunLengths lengths;
  lengths.warmup = 500;
  lengths.measure = 500;
  std::vector<Cell> cells;
  for (const char* name : {"KMN", "BFS", "MUM", "PVR"}) {
    for (const auto& [label, cfg] : schemes) {
      cells.push_back({label + "/" + name, cfg, FindWorkload(name), lengths});
    }
  }
  return cells;
}

/// A 16x16 torus (4 VCs for the dateline halves, 240 SMs, 16 MCs) running
/// NQU, which leaves its network near zero load: the control workload for
/// router changes and the target for idle skipping and setup changes.
std::vector<Cell> Torus16Cells(std::uint64_t seed) {
  GpuConfig cfg = GpuConfig::Baseline();
  Config grid;
  grid.Set("width", "16");
  grid.Set("height", "16");
  grid.Set("num_mcs", "16");
  grid.Set("topology", "torus");
  grid.Set("num_vcs", "4");
  cfg.ApplyOverrides(grid);
  cfg.seed = seed;
  RunLengths lengths;
  lengths.warmup = 500;
  lengths.measure = 1500;
  return {{"XY (Baseline)/NQU", cfg, FindWorkload("NQU"), lengths}};
}

/// The grid pareto-search job dse_grid submits: 16 designs on 8x8 over BFS
/// and NQU, of which the deadlock screen rejects 4. population 1 makes
/// each design its own batch, so the progress callback times designs.
std::string DseSpec(std::uint64_t seed, std::size_t backend) {
  // Job specs carry numbers as JSON doubles, exact below 2^53.
  seed %= std::uint64_t{1} << 32;
  std::ostringstream s;
  s << R"({"type": "pareto-search", "workloads": ["BFS", "NQU"],)"
    << R"( "warmup": 300, "measure": 300, "threads": 1,)"
    << R"( "strategy": "grid", "population": 1, "max_evaluations": 16,)"
    << R"( "seed": )" << seed << ","
    << R"( "base": {"seed": )" << seed << R"(, "scheduling": ")"
    << kBackendNames[backend] << R"("},)"
    << R"( "space": {"placements": ["bottom", "edge"],)"
    << R"( "routings": ["xy", "yx"], "vc_policies": ["split", "mono"],)"
    << R"( "topologies": ["mesh"], "vc_counts": [2, 4], "vc_depths": [4]}})";
  return s.str();
}

/// The sweep cells the dse_grid job simulates (feasible designs x
/// workloads), rebuilt from the job spec, on the full backend.
std::vector<Cell> DseCells(std::uint64_t seed) {
  const JobSpec spec = JobSpec::Parse(DseSpec(seed, kFull));
  std::vector<Cell> cells;
  for (std::uint64_t i = 0; i < spec.space.NumPoints(); ++i) {
    const DesignPoint p = spec.space.PointAt(i);
    if (!DesignInfeasibility(spec.space, p).empty()) continue;
    for (const std::string& name : spec.workloads) {
      cells.push_back({PointLabel(spec.space, p) + "/" + name,
                       MakeConfig(spec.space, p), FindWorkload(name),
                       spec.lengths});
    }
  }
  return cells;
}

struct Workload {
  std::string name;
  std::vector<Cell> cells;
  bool dse = false;
};

Workload MakeWorkload(const std::string& name, std::uint64_t seed) {
  if (name == "mesh8_membound") return {name, Mesh8MemboundCells(seed)};
  if (name == "torus16_computebound") return {name, Torus16Cells(seed)};
  if (name == "dse_grid") return {name, DseCells(seed), true};
  throw std::invalid_argument(
      "unknown workload '" + name +
      "' (want mesh8_membound|torus16_computebound|dse_grid)");
}

const char* const kWorkloadNames[] = {"mesh8_membound",
                                      "torus16_computebound", "dse_grid"};

// ---------------------------------------------------------------------------
// Output checks

/// FNV-1a over every serialized GpuRunStats field, as hex.
std::string Digest(const GpuRunStats& stats) {
  Serializer s;
  Save(s, stats);
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(Fnv1a64(s.bytes())));
  return buf;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// What correct outputs look like: per-cell digests and the pareto.json
/// bytes, either read from the reference files or produced by an untimed
/// full rerun.
struct Expected {
  std::map<std::string, std::string> digests;  ///< by cell label
  std::string pareto;
};

std::string ReferenceDigestsPath(const std::string& dir) {
  return dir + "/digests.json";
}

std::string ReferenceParetoPath(const std::string& dir) {
  return dir + "/dse_grid_pareto.json";
}

Expected LoadReference(const std::string& dir, const std::string& workload) {
  Expected e;
  const JsonValue doc = JsonValue::Parse(ReadFile(ReferenceDigestsPath(dir)));
  for (const auto& [label, digest] : doc.At(workload).AsObject()) {
    e.digests[label] = digest.AsString();
  }
  if (workload == "dse_grid") e.pareto = ReadFile(ReferenceParetoPath(dir));
  return e;
}

/// Counts attempted and failed cells and keeps the first few reasons.
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> reasons;

  void Record(std::uint64_t cells, const std::string& failure) {
    attempted += cells;
    if (failure.empty()) return;
    failed += cells;
    if (reasons.size() < 20) reasons.push_back(failure);
  }
};

/// "" when `stats` is a correct result for `cell`, else why not.
std::string CheckStats(const Cell& cell, const GpuRunStats& stats,
                       const Expected& expected, const char* what) {
  if (stats.deadlocked) return cell.label + " " + what + ": deadlocked";
  const auto it = expected.digests.find(cell.label);
  if (it == expected.digests.end()) {
    return cell.label + ": no expected digest";
  }
  const std::string digest = Digest(stats);
  if (digest != it->second) {
    return cell.label + " " + what + ": digest " + digest + " != expected " +
           it->second;
  }
  return "";
}

/// A finished DSE job as the checks see it.
struct JobOutput {
  std::string failure;  ///< "" when the job ran to completion
  std::string pareto;   ///< the artifact's bytes
};

/// "" when `job` completed with the expected artifact, else why not.
std::string CheckJob(const JobOutput& job, const Expected& expected) {
  if (!job.failure.empty()) return job.failure;
  return job.pareto == expected.pareto
             ? ""
             : "dse job: pareto.json differs from expected";
}

// ---------------------------------------------------------------------------
// DSE jobs

/// Bytes this process has passed to write(2) so far (/proc/self/io wchar).
std::uint64_t WrittenBytes() {
  std::ifstream in("/proc/self/io");
  std::string key;
  std::uint64_t value = 0;
  while (in >> key >> value) {
    if (key == "wchar:") return value;
  }
  throw std::runtime_error("cannot read wchar from /proc/self/io");
}

/// Seconds from the creation of `dir` to the last write of `file`, from
/// file-system timestamps (coarse-clock resolution, a few ms). nullopt when
/// the file system records no birth time.
std::optional<double> FileSpan(const std::string& dir,
                               const std::string& file) {
  struct statx born {}, written {};
  if (statx(AT_FDCWD, dir.c_str(), 0, STATX_BTIME, &born) != 0 ||
      (born.stx_mask & STATX_BTIME) == 0 ||
      statx(AT_FDCWD, file.c_str(), 0, STATX_MTIME, &written) != 0) {
    return std::nullopt;
  }
  const auto seconds = [](const statx_timestamp& t) {
    return static_cast<double>(t.tv_sec) + 1e-9 * t.tv_nsec;
  };
  return seconds(written.stx_mtime) - seconds(born.stx_btime);
}

/// How often the calling thread reads the job's status file while the
/// server runs, to timestamp the job's progress.
constexpr auto kStatusPoll = std::chrono::microseconds(500);

/// The job's progress as its status file shows it: the number of feasible
/// designs evaluated, or -1 once the job has finished (or the file cannot
/// be read yet).
int JobProgress(const std::string& status_path) {
  std::ifstream in(status_path, std::ios::binary);
  if (!in) return 0;
  std::ostringstream text;
  text << in.rdbuf();
  try {
    const JsonValue status = JsonValue::Parse(text.str());
    if (status.At("state").AsString() != "running") return -1;
    return static_cast<int>(status.At("done").AsNumber());
  } catch (const std::exception&) {
    return 0;
  }
}

struct JobRun {
  JobOutput output;
  double wall_s = 0.0;
  /// Host seconds of the server run's stretches, split where the status
  /// file shows each feasible design finished and the job ended. Every
  /// run of one spec has the same stretches.
  std::vector<double> stretch_s;
  /// RunJob's span inside the server: from its first act (creating the
  /// result directory) to its last (writing pareto.json).
  std::optional<double> job_span_s;
  std::uint64_t bytes_written = 0;
};

/// Submits the dse_grid spec to a fresh spool and drains it with a
/// one-slot JobServer, as gnoc_server --once does.
JobRun RunServerJob(const std::string& spec, const std::string& spool) {
  JobRun run;
  fs::remove_all(spool);
  const auto t0 = Clock::now();
  const std::uint64_t w0 = WrittenBytes();
  ServerOptions options;
  options.spool = spool;
  options.max_jobs = 1;
  options.poll_ms = kServerPollMs;
  options.once = true;
  int failed_jobs = 0;
  std::vector<Clock::time_point> marks{t0};
  {
    JobServer server(options);
    server.Submit("grid", spec);
    std::atomic<bool> returned{false};
    std::exception_ptr error;
    std::thread loop([&] {
      try {
        failed_jobs = server.Run();
      } catch (...) {
        error = std::current_exception();
      }
      returned.store(true);
    });
    const std::string status_path = spool + "/status/grid.json";
    int seen = 0;
    while (!returned.load()) {
      std::this_thread::sleep_for(kStatusPoll);
      if (seen < 0) continue;
      const int progress = JobProgress(status_path);
      const auto now = Clock::now();
      if (progress < 0) {
        marks.push_back(now);
        seen = -1;
      }
      for (; seen >= 0 && seen < progress; ++seen) marks.push_back(now);
    }
    loop.join();
    if (error) {
      try {
        std::rethrow_exception(error);
      } catch (const std::exception& e) {
        run.output.failure = std::string("dse server: ") + e.what();
      }
    }
  }
  marks.push_back(Clock::now());
  for (std::size_t i = 1; i < marks.size(); ++i) {
    run.stretch_s.push_back(Seconds(marks[i - 1], marks[i]));
  }
  const std::uint64_t w1 = WrittenBytes();
  if (run.output.failure.empty()) {
    try {
      const JsonValue status =
          JsonValue::Parse(ReadFile(spool + "/status/grid.json"));
      const std::string state = status.At("state").AsString();
      if (failed_jobs != 0 || state != "done") {
        run.output.failure = "dse server job state " + state;
      } else {
        run.output.pareto = ReadFile(spool + "/results/grid/pareto.json");
        run.job_span_s = FileSpan(spool + "/results/grid",
                                  spool + "/results/grid/pareto.json");
      }
    } catch (const std::exception& e) {
      run.output.failure = std::string("dse server job: ") + e.what();
    }
  }
  run.wall_s = Seconds(t0, Clock::now());
  run.bytes_written = w1 - w0;
  fs::remove_all(spool);
  return run;
}

struct DirectJobRun {
  double wall_s = 0.0;
  std::vector<double> design_s;  ///< per feasible design, in order
  int infeasible = 0;
  std::string pareto;
};

/// Runs the spec through RunJob directly (with a checkpoint directory, as
/// the server does) and times each design from the progress callback. The
/// job runs on a fresh thread, as the server's does, so both start from an
/// equally clean heap.
DirectJobRun RunDirectJob(const std::string& spec_text,
                          const std::string& dir) {
  DirectJobRun run;
  fs::remove_all(dir);
  const JobSpec spec = JobSpec::Parse(spec_text);
  std::exception_ptr error;
  std::thread job([&] {
    try {
      int last_done = 0;
      auto last = Clock::now();
      const auto t0 = last;
      const JobOutcome outcome = RunJob(
          spec, dir + "/results", dir + "/checkpoints", nullptr,
          [&](int done, int, const std::string&) {
            const auto now = Clock::now();
            if (done > last_done) {
              run.design_s.push_back(Seconds(last, now));
            } else {
              ++run.infeasible;
            }
            last_done = done;
            last = now;
          });
      run.wall_s = Seconds(t0, Clock::now());
      if (!outcome.completed) {
        throw std::runtime_error("RunJob did not complete");
      }
      run.pareto = ReadFile(outcome.artifact);
    } catch (...) {
      error = std::current_exception();
    }
  });
  job.join();
  fs::remove_all(dir);
  if (error) std::rethrow_exception(error);
  return run;
}

// ---------------------------------------------------------------------------
// Statistics

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Min(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

/// Nearest-rank percentile (0 < p <= 100) of `v`.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

using Metrics = std::vector<Metric>;

// ---------------------------------------------------------------------------
// Untraced run: end-to-end metrics

/// Cycles per timed chunk of a cell's tick loop. Fine enough that the
/// fastest-of-rounds estimate can pick each stretch of a cell from the
/// round in which the host disturbed it least; coarse enough that the
/// clock reads cost nothing measurable.
constexpr Cycle kChunkCycles = 100;

/// Host time of one cell, by phase.
struct CellTiming {
  double setup_s = 0.0;   ///< constructor: start of cell to first cycle
  double report_s = 0.0;  ///< ResetStats + Measure
  /// Tick-loop time per chunk of kChunkCycles, warm-up chunks first.
  std::vector<double> chunk_s;
  std::size_t warmup_chunks = 0;
  Cycle measured = 0;
};

/// Ticks `gpu` for `cycles` cycles (stopping early on deadlock when
/// `stop_on_deadlock`), appending each chunk's host seconds to `chunk_s`.
void TimedTicks(GpuSystem& gpu, Cycle cycles, bool stop_on_deadlock,
                std::vector<double>& chunk_s) {
  for (Cycle done = 0; done < cycles;) {
    const Cycle end = std::min(cycles, done + kChunkCycles);
    const auto t0 = Clock::now();
    bool deadlocked = false;
    for (; done < end; ++done) {
      gpu.Tick();
      if (stop_on_deadlock && gpu.fabric().Deadlocked()) {
        deadlocked = true;
        break;
      }
    }
    chunk_s.push_back(Seconds(t0, Clock::now()));
    if (deadlocked) return;
  }
}

/// GpuSystem::Run with the clock read between phases and chunks.
GpuRunStats TimedCell(const GpuConfig& cfg, const Cell& cell,
                      CellTiming& t) {
  const auto t0 = Clock::now();
  GpuSystem gpu(cfg, cell.profile);
  t.setup_s = Seconds(t0, Clock::now());
  TimedTicks(gpu, cell.lengths.warmup, false, t.chunk_s);
  t.warmup_chunks = t.chunk_s.size();
  auto t1 = Clock::now();
  gpu.ResetStats();
  t.report_s = Seconds(t1, Clock::now());
  TimedTicks(gpu, cell.lengths.measure, true, t.chunk_s);
  t1 = Clock::now();
  GpuRunStats stats = gpu.Measure();
  t.report_s += Seconds(t1, Clock::now());
  t.measured = stats.cycles;
  return stats;
}

/// Sums, over positions [from, to), the smallest value any round has
/// there: each stretch is taken from the round the host disturbed least.
double FastestSum(const std::vector<std::vector<double>>& rounds,
                  std::size_t from, std::size_t to) {
  double sum = 0.0;
  for (std::size_t k = from; k < to; ++k) {
    double best = HUGE_VAL;
    for (const std::vector<double>& r : rounds) {
      if (k < r.size()) best = std::min(best, r[k]);
    }
    sum += best;
  }
  return sum;
}

/// Timing samples of one (cell, backend) pair, one per round.
struct Samples {
  std::vector<double> setup_s, report_s;
  std::vector<std::vector<double>> chunk_s;
  std::size_t warmup_chunks = 0;
  Cycle measured = 0;

  void Add(CellTiming t) {
    setup_s.push_back(t.setup_s);
    report_s.push_back(t.report_s);
    chunk_s.push_back(std::move(t.chunk_s));
    warmup_chunks = t.warmup_chunks;
    measured = t.measured;
  }
  double FastestMeasure() const {
    return FastestSum(chunk_s, warmup_chunks, chunk_s.front().size());
  }
  double FastestWall() const {
    return Min(setup_s) + FastestSum(chunk_s, 0, chunk_s.front().size()) +
           Min(report_s);
  }
};

struct Args {
  std::string workload;
  std::uint64_t seed = kReferenceSeed;
  double seconds = 10.0;
  bool trace = false;
  bool write_reference = false;
  std::string work_dir;
  std::string reference_dir;
};

/// The untimed oracle for a non-reference seed: every cell once on full
/// through GpuSystem::Run, plus (for dse_grid) the job through RunJob.
Expected OracleRerun(const Workload& w, std::uint64_t seed,
                     const std::string& work_dir) {
  Expected e;
  for (const Cell& cell : w.cells) {
    GpuSystem gpu(WithScheduling(cell.config, kFull), cell.profile);
    e.digests[cell.label] =
        Digest(gpu.Run(cell.lengths.warmup, cell.lengths.measure));
  }
  if (w.dse) {
    e.pareto = RunDirectJob(DseSpec(seed, kFull), work_dir + "/oracle").pareto;
  }
  return e;
}

Expected ExpectedFor(const Workload& w, const Args& args) {
  return args.seed == kReferenceSeed
             ? LoadReference(args.reference_dir, w.name)
             : OracleRerun(w, args.seed, args.work_dir);
}

/// Repeats rounds (every cell on both backends) until `args.seconds` have
/// passed; after the first round, the run stops at the next cell or job
/// past the deadline. Every round does identical work and host noise only
/// adds time, so the time metrics sum, over cells and chunks (over a DSE
/// job's stretches), the fastest round's time. setup_s sums per-cell
/// medians.
Metrics RunUntraced(const Workload& w, const Args& args, Ledger& ledger) {
  const std::size_t n = w.cells.size();
  std::vector<Samples> samples[2] = {std::vector<Samples>(n),
                                     std::vector<Samples>(n)};
  std::vector<std::vector<double>> job_stretch_s[2];
  std::vector<JobOutput> jobs;
  struct Output {
    const Cell* cell;
    std::size_t backend;
    GpuRunStats stats;
  };
  std::vector<Output> results;
  int rounds = 0;
  const auto start = Clock::now();
  const auto expired = [&] {
    return rounds > 0 && Seconds(start, Clock::now()) >= args.seconds;
  };
  for (; !expired(); ++rounds) {
    for (std::size_t b : {kFull, kSoa}) {
      for (std::size_t i = 0; i < n && !expired(); ++i) {
        const Cell& cell = w.cells[i];
        const GpuConfig cfg = WithScheduling(cell.config, b);
        Samples& s = samples[b][i];
        if (w.dse) {
          // The job's cells cannot be seen from outside, so their setup is
          // probed by constructing each one here.
          const auto t0 = Clock::now();
          GpuSystem gpu(cfg, cell.profile);
          s.setup_s.push_back(Seconds(t0, Clock::now()));
          continue;
        }
        CellTiming t;
        try {
          results.push_back({&cell, b, TimedCell(cfg, cell, t)});
        } catch (const std::exception& e) {
          ledger.Record(1, cell.label + " " + kBackendNames[b] +
                               " threw: " + e.what());
          continue;
        }
        s.Add(std::move(t));
      }
    }
    for (std::size_t b : {kFull, kSoa}) {
      if (!w.dse || expired()) break;
      JobRun job = RunServerJob(DseSpec(args.seed, b),
                                args.work_dir + "/spool-" + kBackendNames[b]);
      job_stretch_s[b].push_back(std::move(job.stretch_s));
      jobs.push_back(std::move(job.output));
    }
  }

  // Every output is checked after the clock stops.
  const Expected expected = ExpectedFor(w, args);
  for (const Output& o : results) {
    ledger.Record(1, CheckStats(*o.cell, o.stats, expected,
                                kBackendNames[o.backend]));
  }
  for (const JobOutput& job : jobs) ledger.Record(n, CheckJob(job, expected));

  double setup = 0.0, wall = 0.0, cycles[2] = {0.0, 0.0},
         seconds[2] = {0.0, 0.0};
  for (std::size_t b : {kFull, kSoa}) {
    for (std::size_t i = 0; i < n; ++i) {
      const Samples& s = samples[b][i];
      setup += Median(s.setup_s);
      if (w.dse) {
        // A job's throughput is all its simulated cycles over its wall.
        const RunLengths& len = w.cells[i].lengths;
        cycles[b] += static_cast<double>(len.warmup + len.measure);
      } else if (!s.chunk_s.empty()) {  // empty: the cell threw every time
        cycles[b] += static_cast<double>(s.measured);
        seconds[b] += s.FastestMeasure();
        wall += s.FastestWall();
      }
    }
    if (w.dse) {
      std::size_t stretches = 0;
      for (const auto& r : job_stretch_s[b]) {
        stretches = std::max(stretches, r.size());
      }
      seconds[b] = FastestSum(job_stretch_s[b], 0, stretches);
      wall += seconds[b];
    }
  }
  std::fprintf(stderr, "perfbench: %s: %d rounds\n", w.name.c_str(), rounds);
  return {
      {"sim_cycles_per_s.full", Ratio(cycles[kFull], seconds[kFull]), "1/s"},
      {"sim_cycles_per_s.soa", Ratio(cycles[kSoa], seconds[kSoa]), "1/s"},
      {"wall_s", wall, "s"},
      {"setup_s", setup, "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"cell_pass_rate",
       1.0 - Ratio(static_cast<double>(ledger.failed),
                   static_cast<double>(ledger.attempted)),
       "ratio"},
  };
}

// ---------------------------------------------------------------------------
// Traced run: per-layer metrics

/// Per-backend host-side accumulators of the traced run.
struct HostTotals {
  double measured_cycles = 0.0;
  double sm_ns = 0.0, mc_ns = 0.0, fabric_ns = 0.0;
  double gpgpu_allocs = 0.0, noc_allocs = 0.0, tick_steps = 0.0;
  double flit_hops = 0.0;
  double noc_build_s = 0.0, gpgpu_build_s = 0.0;
  double warmup_s = 0.0, measure_s = 0.0, report_s = 0.0;
  std::vector<double> tick_us;
  double untraced_wall_s = 0.0, traced_wall_s = 0.0;
};

/// Simulated-output accumulators (first round, full backend).
struct SimTotals {
  double cycles = 0.0, instructions = 0.0;
  double sm_cycles = 0.0, sm_stall_cycles = 0.0;
  double mc_cycles = 0.0, mc_stall_cycles = 0.0;
  double nic_cycles = 0.0, inject_stall_cycles = 0.0;
  double flits_forwarded = 0.0, sa_stalls = 0.0, va_failures = 0.0;
  // Per-cell rates and means, averaged over cells.
  double l2_miss_rate_sum = 0.0, row_hit_rate_sum = 0.0;
  double read_latency_sum = 0.0, cells = 0.0;
  Histogram reply_latency{kLatencyBucketWidth, kLatencyBuckets};
};

/// Runs one cell three ways on one backend: GpuSystem::Run untraced (the
/// reference output and the untraced wall time), GpuSystem with a clock
/// around its constructor, every Tick, ResetStats and Measure (the sim
/// layer), and the traced chip (the gpgpu and noc layers). Returns "" when
/// all three outputs are bit-identical, else why not.
std::string TraceCell(const Cell& cell, std::size_t backend, HostTotals& h,
                      SimTotals* sim, GpuRunStats& reference) {
  const GpuConfig cfg = WithScheduling(cell.config, backend);
  const RunLengths& len = cell.lengths;

  auto t0 = Clock::now();
  {
    GpuSystem gpu(cfg, cell.profile);
    reference = gpu.Run(len.warmup, len.measure);
  }
  h.untraced_wall_s += Seconds(t0, Clock::now());

  GpuRunStats sim_stats;
  {
    GpuSystem gpu(cfg, cell.profile);
    auto t = Clock::now();
    for (Cycle c = 0; c < len.warmup; ++c) gpu.Tick();
    h.warmup_s += Seconds(t, Clock::now());
    t = Clock::now();
    gpu.ResetStats();
    double report_s = Seconds(t, Clock::now());
    for (Cycle c = 0; c < len.measure; ++c) {
      t = Clock::now();
      gpu.Tick();
      const auto t_end = Clock::now();
      const double s = Seconds(t, t_end);
      h.measure_s += s;
      h.tick_us.push_back(s * 1e6);
      if (gpu.fabric().Deadlocked()) break;
    }
    t = Clock::now();
    sim_stats = gpu.Measure();
    report_s += Seconds(t, Clock::now());
    h.report_s += report_s;
  }

  t0 = Clock::now();
  TracedChip chip(cfg, cell.profile);
  for (Cycle c = 0; c < len.warmup; ++c) chip.Tick();
  chip.ResetStats();
  for (Cycle c = 0; c < len.measure; ++c) {
    chip.Tick();
    if (chip.fabric().Deadlocked()) break;
  }
  const GpuRunStats chip_stats = chip.Measure();
  h.traced_wall_s += Seconds(t0, Clock::now());

  const LayerCounters& l = chip.layers();
  const NocCounters noc = chip.Noc();
  const double cycles = static_cast<double>(chip_stats.cycles);
  h.measured_cycles += cycles;
  h.sm_ns += l.sm_ns;
  h.mc_ns += l.mc_ns;
  h.fabric_ns += l.fabric_ns;
  h.gpgpu_allocs += static_cast<double>(l.gpgpu_allocs);
  h.noc_allocs += static_cast<double>(l.noc_allocs);
  h.tick_steps += static_cast<double>(chip.MeasuredTickSteps());
  h.flit_hops += static_cast<double>(noc.flits_forwarded);
  h.noc_build_s += chip.noc_build_s();
  h.gpgpu_build_s += chip.gpgpu_build_s();

  if (sim != nullptr) {
    sim->cycles += cycles;
    sim->instructions += static_cast<double>(chip_stats.instructions);
    sim->sm_cycles += cycles * static_cast<double>(chip.num_sms());
    sim->sm_stall_cycles += static_cast<double>(chip.SmStallCycles());
    sim->mc_cycles += cycles * static_cast<double>(chip.num_mcs());
    sim->mc_stall_cycles += static_cast<double>(chip.McStallCycles());
    sim->nic_cycles += cycles * static_cast<double>(noc.nics);
    sim->inject_stall_cycles += static_cast<double>(noc.inject_stall_cycles);
    sim->flits_forwarded += static_cast<double>(noc.flits_forwarded);
    sim->sa_stalls += static_cast<double>(noc.sa_stalls);
    sim->va_failures += static_cast<double>(noc.va_failures);
    sim->l2_miss_rate_sum += chip_stats.l2_miss_rate;
    sim->row_hit_rate_sum += chip_stats.dram_row_hit_rate;
    sim->cells += 1.0;
    sim->read_latency_sum += chip_stats.avg_read_latency;
    sim->reply_latency.Merge(chip_stats.network.latency_histogram
                                 [ClassIndex(TrafficClass::kReply)]);
  }

  const std::string ref = Digest(reference);
  if (Digest(sim_stats) != ref) {
    return cell.label + " " + kBackendNames[backend] +
           ": timed GpuSystem differs from GpuSystem::Run";
  }
  if (Digest(chip_stats) != ref) {
    return cell.label + " " + kBackendNames[backend] +
           ": traced chip differs from GpuSystem::Run";
  }
  return "";
}

/// Repeats rounds until `args.seconds` have passed. A round traces every
/// cell on both backends (on dse_grid only the first round does), and on
/// dse_grid drains the job through a JobServer and runs it through RunJob.
/// Host times are per round; the exact counters are identical in every
/// round.
Metrics RunTraced(const Workload& w, const Args& args, Ledger& ledger) {
  HostTotals host[2];
  SimTotals sim;
  std::vector<std::pair<const Cell*, GpuRunStats>> outputs[2];
  std::vector<double> design_s[2], server_wall[2], direct_wall[2],
      server_overhead[2];
  double spool_bytes[2] = {0.0, 0.0};
  int feasible = 0, infeasible = 0;
  std::vector<JobOutput> jobs;
  int cell_rounds = 0;
  const auto start = Clock::now();
  do {
    if (cell_rounds == 0 || !w.dse) {
      for (std::size_t b : {kFull, kSoa}) {
        for (const Cell& cell : w.cells) {
          GpuRunStats reference;
          std::string failure;
          try {
            failure = TraceCell(cell, b, host[b],
                                cell_rounds == 0 && b == kFull ? &sim
                                                               : nullptr,
                                reference);
          } catch (const std::exception& e) {
            failure = cell.label + " " + kBackendNames[b] + " threw: " +
                      e.what();
          }
          if (!failure.empty()) {
            ledger.Record(1, failure);
          } else {
            outputs[b].emplace_back(&cell, reference);
          }
        }
      }
      ++cell_rounds;
    }
    if (w.dse) {
      for (std::size_t b : {kFull, kSoa}) {
        const std::string spec = DseSpec(args.seed, b);
        JobRun server = RunServerJob(
            spec, args.work_dir + "/spool-" + kBackendNames[b]);
        server_wall[b].push_back(server.wall_s);
        if (server.job_span_s) {
          server_overhead[b].push_back(server.wall_s - *server.job_span_s);
        }
        spool_bytes[b] = static_cast<double>(server.bytes_written);
        jobs.push_back(std::move(server.output));
        try {
          DirectJobRun direct = RunDirectJob(
              spec, args.work_dir + "/direct-" + kBackendNames[b]);
          design_s[b].insert(design_s[b].end(), direct.design_s.begin(),
                             direct.design_s.end());
          direct_wall[b].push_back(direct.wall_s);
          feasible = static_cast<int>(direct.design_s.size());
          infeasible = direct.infeasible;
          jobs.push_back({"", std::move(direct.pareto)});
        } catch (const std::exception& e) {
          jobs.push_back({std::string("dse RunJob: ") + e.what(), ""});
        }
      }
    }
  } while (Seconds(start, Clock::now()) < args.seconds);

  const Expected expected = ExpectedFor(w, args);
  for (std::size_t b : {kFull, kSoa}) {
    for (const auto& [cell, stats] : outputs[b]) {
      ledger.Record(1, CheckStats(*cell, stats, expected, kBackendNames[b]));
    }
  }
  for (const JobOutput& job : jobs) {
    ledger.Record(w.cells.size(), CheckJob(job, expected));
  }

  Metrics m;
  const auto add = [&m](const std::string& name, double value,
                        const char* unit) { m.push_back({name, value, unit}); };
  const double rounds = static_cast<double>(cell_rounds);
  for (std::size_t b : {kFull, kSoa}) {
    const HostTotals& h = host[b];
    const std::string sfx = std::string(".") + kBackendNames[b];
    const double cyc = h.measured_cycles;
    add("noc.allocs_per_cycle" + sfx, Ratio(h.noc_allocs, cyc), "1/cycle");
    add("noc.fabric_ns_per_cycle" + sfx, Ratio(h.fabric_ns, cyc), "ns");
    add("noc.ns_per_flit_hop" + sfx, Ratio(h.fabric_ns, h.flit_hops), "ns");
    add("noc.component_ticks_per_cycle" + sfx, Ratio(h.tick_steps, cyc),
        "1/cycle");
    add("noc.build_s" + sfx, h.noc_build_s / rounds, "s");
    add("gpgpu.sm_ns_per_cycle" + sfx, Ratio(h.sm_ns, cyc), "ns");
    add("gpgpu.mc_ns_per_cycle" + sfx, Ratio(h.mc_ns, cyc), "ns");
    add("gpgpu.allocs_per_cycle" + sfx, Ratio(h.gpgpu_allocs, cyc),
        "1/cycle");
    add("gpgpu.build_s" + sfx, h.gpgpu_build_s / rounds, "s");
    add("sim.warmup_s" + sfx, h.warmup_s / rounds, "s");
    add("sim.measure_s" + sfx, h.measure_s / rounds, "s");
    add("sim.report_s" + sfx, h.report_s / rounds, "s");
    add("sim.tick_us.p50" + sfx, Percentile(h.tick_us, 50), "us");
    add("sim.tick_us.p99" + sfx, Percentile(h.tick_us, 99), "us");
    add("dse.design_eval_s.p50" + sfx, Median(design_s[b]), "s");
    add("dse.designs_per_s" + sfx, Ratio(feasible, Min(direct_wall[b])),
        "1/s");
    // Host noise between two job runs is larger than the server's own
    // cost, so the overhead comes from one run where the file system
    // allows: the server's wall minus RunJob's span inside it.
    add("dse.server_overhead_s" + sfx,
        server_overhead[b].empty() ? Min(server_wall[b]) - Min(direct_wall[b])
                                   : Median(server_overhead[b]),
        "s");
    add("dse.spool_bytes_written" + sfx, spool_bytes[b], "bytes");
    add("trace.overhead_ratio" + sfx,
        Ratio(h.traced_wall_s, h.untraced_wall_s), "ratio");
  }
  add("dse.infeasible_designs", infeasible, "count");
  add("gpgpu.ipc", Ratio(sim.instructions, sim.cycles), "1/cycle");
  add("gpgpu.issue_stall_frac", Ratio(sim.sm_stall_cycles, sim.sm_cycles),
      "ratio");
  add("gpgpu.mc_stall_frac", Ratio(sim.mc_stall_cycles, sim.mc_cycles),
      "ratio");
  add("gpgpu.l2_miss_rate", Ratio(sim.l2_miss_rate_sum, sim.cells), "ratio");
  add("gpgpu.dram_row_hit_rate", Ratio(sim.row_hit_rate_sum, sim.cells),
      "ratio");
  add("gpgpu.read_latency_cycles", Ratio(sim.read_latency_sum, sim.cells),
      "cycles");
  add("noc.sa_efficiency",
      Ratio(sim.flits_forwarded, sim.flits_forwarded + sim.sa_stalls),
      "ratio");
  add("noc.va_failures_per_flit", Ratio(sim.va_failures, sim.flits_forwarded),
      "ratio");
  add("noc.flit_hops_per_cycle", Ratio(sim.flits_forwarded, sim.cycles),
      "1/cycle");
  add("noc.inject_stall_frac",
      Ratio(sim.inject_stall_cycles, sim.nic_cycles), "ratio");
  add("noc.reply_latency_cycles.p50", sim.reply_latency.Percentile(50),
      "cycles");
  add("noc.reply_latency_cycles.p99", sim.reply_latency.Percentile(99),
      "cycles");
  return m;
}

// ---------------------------------------------------------------------------
// Reference files and the command line

void WriteReference(const Args& args) {
  fs::create_directories(args.reference_dir);
  std::ostringstream doc;
  JsonWriter jw(doc);
  jw.BeginObject();
  for (const char* name : kWorkloadNames) {
    const Workload w = MakeWorkload(name, kReferenceSeed);
    const Expected e = OracleRerun(w, kReferenceSeed, args.work_dir);
    jw.Key(name).BeginObject();
    for (const auto& [label, digest] : e.digests) jw.Key(label).Value(digest);
    jw.EndObject();
    if (w.dse) AtomicWriteFile(ReferenceParetoPath(args.reference_dir), e.pareto);
  }
  jw.EndObject();
  AtomicWriteFile(ReferenceDigestsPath(args.reference_dir), doc.str() + "\n");
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--write-reference") {
      a.write_reference = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument(key + " needs a value");
    const std::string value = argv[++i];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace wants 0 or 1");
      }
      a.trace = value == "1";
    } else if (key == "--work-dir") {
      a.work_dir = value;
    } else if (key == "--reference-dir") {
      a.reference_dir = value;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (a.work_dir.empty() || a.reference_dir.empty()) {
    throw std::invalid_argument("--work-dir and --reference-dir are required");
  }
  return a;
}

void PrintResult(const Ledger& ledger, const Metrics& metrics) {
  std::ostringstream out;
  JsonWriter jw(out, 0);
  jw.BeginObject();
  jw.Key("correct").Value(ledger.failed == 0);
  jw.Key("attempted").Value(ledger.attempted);
  jw.Key("failed").Value(ledger.failed);
  jw.Key("metrics").BeginObject();
  for (const Metric& m : metrics) {
    jw.Key(m.name).BeginObject();
    jw.Key("value").Value(m.value);
    jw.Key("unit").Value(m.unit);
    jw.EndObject();
  }
  jw.EndObject();
  jw.EndObject();
  std::cout << out.str() << std::endl;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  fs::create_directories(args.work_dir);
  if (args.write_reference) {
    WriteReference(args);
    return 0;
  }
  const Workload w = MakeWorkload(args.workload, args.seed);
  Ledger ledger;
  const Metrics metrics = args.trace ? RunTraced(w, args, ledger)
                                     : RunUntraced(w, args, ledger);
  for (const std::string& reason : ledger.reasons) {
    std::fprintf(stderr, "perfbench: FAILED: %s\n", reason.c_str());
  }
  PrintResult(ledger, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
