// Life-cycle benchmark of a circuit transient on the public Basker API.
//
// Per matrix of a workload, one round is: symbolic(), a few numeric()
// calls, then a fixed-pattern sequence of steps, each a values-only
// refactor() of the input with its values drifted by gen::revalue, followed
// by solve() of fresh right-hand sides. Rounds repeat until --seconds have
// passed, and every time metric is the minimum over the run's samples
// (README.md, "Timing"). Every solve is checked with the independent checks
// of checks.hpp.
//
//   lifecycle --workload NAME --seed N --seconds S --trace 0|1
//             --fingerprints FILE [--rhs-seed N] [--out DIR]
//   lifecycle --print-fingerprints     # pinned-input table, all workloads
//   lifecycle --klu --workload NAME    # KLU reference figures (README)
//   lifecycle --reference --workload NAME --seed N --rhs-seed N
//                                      # one-thread solutions, binary, to stdout
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics (the end-to-end metrics with --trace 0, the per-layer
// metrics with --trace 1).
#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "basker/core/basker.hpp"
#include "basker/dense/dense.hpp"
#include "basker/gen/generators.hpp"
#include "basker/gen/suite.hpp"
#include "basker/graph/btf.hpp"
#include "basker/graph/etree.hpp"
#include "basker/graph/matching.hpp"
#include "basker/graph/mindeg.hpp"
#include "basker/graph/nd.hpp"
#include "basker/klu/klu.hpp"
#include "basker/sparse/ops.hpp"
#include "checks.hpp"
#include "spans.hpp"

namespace perfbench {
namespace {

using basker::Basker;
using basker::BaskerOptions;
using basker::Prng;
using basker::Status;
using basker::SyncMode;
using Solver = Basker<>;

/// Taken during static initialisation, before main(): setup_s counts from
/// here.
const Clock::time_point g_process_start = Clock::now();

double seconds_between(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

// ---------------------------------------------------------------------------
// Workloads. Batch sizes make each timed sample cover at least a few
// milliseconds; they are fixed so every round attempts the same operations.
// ---------------------------------------------------------------------------

struct MatrixSpec {
  const char* name;
  double scale;         ///< gen::make_by_name scale
  int analyze_batch;    ///< symbolic() calls per timed sample (one sample per round)
  int factors;          ///< timed numeric() samples per round
  int factor_batch;     ///< numeric() calls per timed sample
  int steps;            ///< refactor() + solve() steps per round; each refactor() is a sample
  int rhs;              ///< right-hand sides solved per step
  int solve_batch;      ///< of those, solved back to back per timed sample
  int layer_batch;      ///< graph-layer calls per timed sample (--trace 1)
  /// Nonzero for an input kept for a known fault of the program: its drift
  /// and right-hand sides come from this seed instead of --seed, so the
  /// solves that fail are the same ones in every run (README.md, "hvdc2").
  std::uint64_t fixed_seed = 0;
};

/// Team size of a team workload. Two, not nproc: on a shared host a team
/// that fills every CPU stalls whenever any one of them is slowed, which
/// widens the spread of its per-run minima (README.md, "Timing").
constexpr int kTeamThreads = 2;

struct WorkloadSpec {
  const char* name;
  SyncMode sync;
  bool team;  ///< min(kTeamThreads, nproc) threads; otherwise one
  std::vector<MatrixSpec> matrices;
};

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> w = {
      {"mesh_taskdag", SyncMode::kTaskDag, true,
       {{"G2_Circuit", 3.0, 1, 4, 1, 6, 4, 4, 1}}},
      {"lowfill_serial", SyncMode::kPointToPoint, false,
       {{"Power0", 1.0, 4, 2, 16, 16, 64, 64, 8},
        {"rajat21", 1.0, 1, 2, 4, 16, 16, 16, 4},
        {"asic_680ks", 1.0, 1, 2, 4, 16, 8, 8, 2},
        {"hvdc2", 1.0, 1, 2, 4, 8, 4, 4, 4, 205},
        {"Freescale1", 1.0, 1, 2, 1, 8, 8, 4, 1}}},
  };
  return w;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const auto& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

int available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? static_cast<int>(hc) : 1;
}

/// CPU time the hypervisor took from this machine's CPUs (the steal column
/// of /proc/stat), in seconds; 0 where it is not reported. Printed with each
/// run as evidence of host interference, never used in a metric.
double host_steal_seconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  long long ticks[8] = {};  // user nice system idle iowait irq softirq steal
  in >> cpu;
  for (long long& t : ticks) in >> t;
  const long hz = sysconf(_SC_CLK_TCK);
  if (!in || cpu != "cpu" || hz <= 0) return 0.0;
  return static_cast<double>(ticks[7]) / static_cast<double>(hz);
}

// ---------------------------------------------------------------------------
// Pinned inputs: FNV-1a over the dimensions, pattern and value bits.
// ---------------------------------------------------------------------------

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void bytes(const void* p, size_t n) {
    const auto* c = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) h = (h ^ c[i]) * 0x100000001b3ULL;
  }
};

std::uint64_t fingerprint(const Csc& a) {
  Fnv f;
  f.bytes(&a.nrows, sizeof(a.nrows));
  f.bytes(&a.ncols, sizeof(a.ncols));
  f.bytes(a.col_ptr.data(), a.col_ptr.size() * sizeof(Size));
  f.bytes(a.row_idx.data(), a.row_idx.size() * sizeof(Int));
  f.bytes(a.values.data(), a.values.size() * sizeof(double));
  return f.h;
}

std::string fingerprint_line(const MatrixSpec& m, const Csc& a) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s %g %lld %lld %016" PRIx64, m.name, m.scale,
                static_cast<long long>(a.ncols), static_cast<long long>(a.nnz()),
                fingerprint(a));
  return buf;
}

/// The pinned line for (name, scale) from the fingerprint file, or "".
std::string pinned_line(const std::string& path, const MatrixSpec& m) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ss(line);
    std::string name;
    double scale = 0.0;
    if (line.empty() || line[0] == '#' || !(ss >> name >> scale)) continue;
    if (name == m.name && scale == m.scale) return line;
  }
  return "";
}

// ---------------------------------------------------------------------------
// Measurement helpers.
// ---------------------------------------------------------------------------

struct MinOf {
  double best = std::numeric_limits<double>::infinity();
  long long samples = 0;
  void add(double s) {
    best = std::min(best, s);
    ++samples;
  }
};

/// Operations attempted and failed. A failed check also clears `correct`,
/// except on an operation of a known fault (MatrixSpec::fixed_seed), which
/// is only counted as failed; a status that is not kOk only counts the
/// operation as failed.
struct Tally {
  long long attempted = 0;
  long long failed = 0;
  bool correct = true;
  int reported = 0;

  void op(bool status_ok, bool checks_ok, const char* what, const char* matrix = "",
          bool known_fault = false) {
    ++attempted;
    if (status_ok && checks_ok) return;
    ++failed;
    if (!checks_ok && !known_fault) correct = false;
    if (reported++ < 10) {
      std::fprintf(stderr, "perfbench: %s %s %s\n", what, matrix,
                   status_ok ? "failed its check" : "returned an error status");
    }
  }
};

/// Per-layer figures of one matrix (--trace 1).
struct LayerFigures {
  MinOf matching, btf, nd, amd, colcount;
  long long sep_rows = 0;
  long long amd_fill = 0;
  MinOf sync;
  double factor_flops = 0.0;
  long long dense_blocks = 0, grow_events = 0;
  long long dag_tasks = 0, steals = 0, tile_tasks = 0, update_chunks = 0;
  double critical_cols = 0.0, total_cols = 0.0;
  MinOf traced_factor;
  basker::obs::TraceSummary trace;  ///< of the fastest traced numeric()
};

/// Graph-layer inputs, derived once per run from the pinned matrix.
struct GraphInputs {
  Csc permuted;   ///< a0 with the matching's row permutation applied
  Csc block_sym;  ///< symmetric pattern of the largest BTF block
  Csc block_amd;  ///< block_sym in its AMD order
  std::vector<Int> parent;  ///< etree of block_amd
};

struct Case {
  const MatrixSpec* spec = nullptr;
  Csc a0;  ///< pinned input
  Csc a;   ///< the current step's matrix: a0's pattern, drifted values
  std::unique_ptr<Solver> solver;  ///< the measured instance
  std::unique_ptr<Solver> traced;  ///< options().trace on (--trace 1 only)
  std::uint64_t drift_seed = 0;  ///< every round replays the same drift ...
  std::uint64_t rhs_seed = 0;    ///< ... and the same right-hand sides
  /// kTaskDag only: a one-thread instance's lu_nnz and solutions
  /// (step-major, then right-hand side), computed in a child process
  /// (Bench::load_reference): the team's must equal them bit for bit in
  /// every round.
  bool has_reference = false;
  long long reference_nnz = -1;
  std::vector<std::vector<double>> reference_x;
  MinOf analyze, factor, refactor, solve;
  long long lu_nnz = 0;
  long long fallbacks = 0;
  std::unique_ptr<GraphInputs> graph;
  LayerFigures layer;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  std::uint64_t rhs_seed = 0;
  bool rhs_seed_set = false;
  double seconds = 10.0;
  int trace = 0;
  std::string fingerprints;
  std::string out_dir = ".bench_out";
  bool print_fingerprints = false;
  bool klu = false;
  bool reference = false;
};

/// Drift and right-hand-side seeds of the index-th matrix of a workload.
std::pair<std::uint64_t, std::uint64_t> case_seeds(const Args& args, const MatrixSpec& m,
                                                   size_t index) {
  if (m.fixed_seed != 0) return {m.fixed_seed, m.fixed_seed};
  return {args.seed * 0x9E3779B97F4A7C15ULL + index,
          args.rhs_seed * 0xD1B54A32D192ED03ULL + index};
}

/// --reference: a one-thread instance of the workload's schedule runs one
/// round's symbolic(), numeric() and steps on every matrix, and writes to
/// standard output, per matrix, lu_nnz (int64; -1 when the factorization
/// failed) and then each solution (n doubles; NaN when its refactor() or
/// solve() failed), in the order Bench::lifecycle_round solves them.
int write_reference(const WorkloadSpec& w, const Args& args) {
  for (size_t index = 0; index < w.matrices.size(); ++index) {
    const MatrixSpec& m = w.matrices[index];
    const Csc a0 = basker::gen::make_by_name(m.name, m.scale);
    Csc a = a0;
    BaskerOptions one;
    one.nthreads = 1;
    one.sync_mode = w.sync;
    Solver ref(one);
    const bool factored = ref.symbolic(a0) == Status::kOk && ref.numeric(a0) == Status::kOk;
    const std::int64_t nnz = factored ? ref.stats().nnz_lu : -1;
    std::fwrite(&nnz, sizeof(nnz), 1, stdout);
    const auto [drift_seed, rhs_seed] = case_seeds(args, m, index);
    Prng drift(drift_seed);
    Prng rhs(rhs_seed);
    for (int k = 0; k < m.steps; ++k) {
      std::copy(a0.values.begin(), a0.values.end(), a.values.begin());
      basker::gen::revalue(a, drift);
      Status st = factored ? ref.refactor(a) : Status::kInvalidInput;
      if (st == Status::kPivotGrowth) st = Status::kOk;
      for (int i = 0; i < m.rhs; ++i) {
        std::vector<double> x = basker::gen::random_rhs(a.ncols, rhs.next_u64());
        if (st != Status::kOk || ref.solve(x) != Status::kOk) {
          std::fill(x.begin(), x.end(), std::numeric_limits<double>::quiet_NaN());
        }
        std::fwrite(x.data(), sizeof(double), x.size(), stdout);
      }
    }
  }
  return std::fflush(stdout) == 0 ? 0 : 1;
}

class Bench {
 public:
  Bench(const Args& args, const WorkloadSpec& w)
      : args_(args), w_(w), spans_(g_process_start) {}

  /// Generates and pins the inputs, then constructs the solvers (team
  /// spawn). Returns false when an input does not match its fingerprint.
  bool setup() {
    const int p = w_.team ? std::min(kTeamThreads, available_cpus()) : 1;
    for (const MatrixSpec& m : w_.matrices) {
      auto c = std::make_unique<Case>();
      c->spec = &m;
      c->a0 = basker::gen::make_by_name(m.name, m.scale);
      if (!args_.fingerprints.empty()) {
        const std::string want = pinned_line(args_.fingerprints, m);
        const std::string got = fingerprint_line(m, c->a0);
        if (want != got) {
          std::fprintf(stderr,
                       "perfbench: input %s changed: pinned \"%s\", generated \"%s\".\n"
                       "Regenerate the table with: python3 perfbench/run.py "
                       "--print-fingerprints > perfbench/fingerprints.txt\n",
                       m.name, want.c_str(), got.c_str());
          return false;
        }
      }
      c->a = c->a0;
      std::tie(c->drift_seed, c->rhs_seed) = case_seeds(args_, m, cases_.size());
      BaskerOptions opt;
      opt.nthreads = p;
      opt.sync_mode = w_.sync;
      c->solver = std::make_unique<Solver>(opt);
      c->has_reference = w_.sync == SyncMode::kTaskDag;
      if (args_.trace) {
        BaskerOptions traced = opt;
        traced.trace = true;
        c->traced = std::make_unique<Solver>(traced);
      }
      cases_.push_back(std::move(c));
    }
    threads_ = cases_.front()->solver->nthreads();
    setup_s_ = seconds_between(g_process_start, Clock::now());
    return true;
  }

  /// Runs this program again with --reference and reads the one-thread
  /// instance's results from its standard output, so that its
  /// factorization stays out of the measured process (peak_rss_mb). Called
  /// after set-up and before the timed rounds; returns false when the child
  /// fails or its output is short.
  bool load_reference() {
    if (!cases_.front()->has_reference) return true;
    const Clock::time_point t0 = Clock::now();
    const std::string self = "/proc/self/exe";
    std::vector<std::string> words = {self,        "--reference",
                                      "--workload", w_.name,
                                      "--seed",     std::to_string(args_.seed),
                                      "--rhs-seed", std::to_string(args_.rhs_seed)};
    std::vector<char*> argv;
    for (std::string& s : words) argv.push_back(s.data());
    argv.push_back(nullptr);
    int fd[2];
    if (pipe(fd) != 0) return false;
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid < 0) {
      close(fd[0]);
      close(fd[1]);
      return false;
    }
    if (pid == 0) {
      dup2(fd[1], STDOUT_FILENO);
      close(fd[0]);
      close(fd[1]);
      execv(self.c_str(), argv.data());
      _exit(127);
    }
    close(fd[1]);
    std::FILE* in = fdopen(fd[0], "rb");
    bool ok = in != nullptr;
    for (auto& cp : cases_) {
      Case& c = *cp;
      std::int64_t nnz = -1;
      ok = ok && std::fread(&nnz, sizeof(nnz), 1, in) == 1;
      c.reference_nnz = nnz;
      c.reference_x.assign(static_cast<size_t>(c.spec->steps) * c.spec->rhs,
                           std::vector<double>(static_cast<size_t>(c.a0.ncols)));
      for (auto& x : c.reference_x) {
        ok = ok && std::fread(x.data(), sizeof(double), x.size(), in) == x.size();
      }
    }
    if (in != nullptr) {
      std::fclose(in);
    } else {
      close(fd[0]);
    }
    int status = 0;
    ok = waitpid(pid, &status, 0) == pid && ok && WIFEXITED(status) && WEXITSTATUS(status) == 0;
    spans_.add("reference (child process)", -1, t0, Clock::now());
    return ok;
  }

  void run() {
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(args_.seconds));
    const double steal0 = host_steal_seconds();
    do {
      const int round = spans_.open("round " + std::to_string(rounds_), -1);
      for (auto& c : cases_) {
        lifecycle_round(*c, round);
        if (args_.trace) layer_round(*c, round);
      }
      if (args_.trace) dense_round(round);
      spans_.close(round);
      ++rounds_;
    } while (Clock::now() < deadline);
    steal_s_ = host_steal_seconds() - steal0;
  }

  void report() {
    struct Metric {
      double value = 0.0;
      const char* unit = "";
    };
    std::map<std::string, Metric> metrics;
    // Metrics of a multi-matrix workload are sums over its matrices.
    auto add = [&](const std::string& name, double value, const char* unit) {
      Metric& m = metrics[name];
      m.value += value;
      m.unit = unit;
    };
    auto total = [](const std::vector<double>& v) {
      double s = 0.0;
      for (double x : v) s += x;
      return s;
    };
    double factor_untraced = 0.0, factor_traced = 0.0;
    for (const auto& c : cases_) {
      if (!args_.trace) {
        add("analyze_s", c->analyze.best, "s");
        add("factor_s", c->factor.best, "s");
        add("refactor_s", c->refactor.best, "s");
        add("solve_s", c->solve.best, "s");
        add("lu_nnz", static_cast<double>(c->lu_nnz), "count");
        continue;
      }
      const LayerFigures& l = c->layer;
      add("graph.matching_s", l.matching.best, "s");
      add("graph.btf_s", l.btf.best, "s");
      add("graph.nd_s", l.nd.best, "s");
      add("graph.amd_s", l.amd.best, "s");
      add("graph.colcount_s", l.colcount.best, "s");
      add("graph.sep_rows", static_cast<double>(l.sep_rows), "count");
      add("graph.amd_fill", static_cast<double>(l.amd_fill), "count");
      add("core.factor_flops", l.factor_flops, "flop");
      add("core.sync_s", l.sync.best, "s");
      add("core.dense_blocks", static_cast<double>(l.dense_blocks), "count");
      add("core.grow_events", static_cast<double>(l.grow_events), "count");
      add("core.refactor_fallbacks", static_cast<double>(c->fallbacks), "count");
      add("sched.dag_tasks", static_cast<double>(l.dag_tasks), "count");
      add("sched.steals", static_cast<double>(l.steals), "count");
      add("sched.critical_cols", l.critical_cols, "count");
      add("sched.total_cols", l.total_cols, "count");
      add("sched.tile_tasks", static_cast<double>(l.tile_tasks), "count");
      add("sched.update_chunks", static_cast<double>(l.update_chunks), "count");
      using basker::obs::SpanKind;
      for (SpanKind k : {SpanKind::kFineBlock, SpanKind::kLeafFactor, SpanKind::kSepUpdate,
                         SpanKind::kSepAssemble, SpanKind::kSepFactor, SpanKind::kTileGemm,
                         SpanKind::kTileGetrf, SpanKind::kTileTrsm, SpanKind::kStaticSepColumn,
                         SpanKind::kDenseGetrf, SpanKind::kDenseTrsm}) {
        const size_t i = static_cast<size_t>(k);
        add(std::string("trace.") + basker::obs::span_kind_name(k) + "_s",
            i < l.trace.kind_total_ns.size() ? l.trace.kind_total_ns[i] * 1e-9 : 0.0, "s");
      }
      add("trace.busy_s", total(l.trace.busy_ns) * 1e-9, "s");
      add("trace.idle_s", total(l.trace.idle_ns) * 1e-9, "s");
      add("trace.park_s", total(l.trace.park_ns) * 1e-9, "s");
      add("trace.critical_s", l.trace.critical_ns * 1e-9, "s");
      factor_untraced += c->factor.best;
      factor_traced += l.traced_factor.best;
    }
    if (!args_.trace) {
      add("setup_s", setup_s_, "s");
      rusage ru{};
      getrusage(RUSAGE_SELF, &ru);
      add("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB");
    } else {
      add("dense.gemm_gflops", gemm_flops_ / gemm_.best * 1e-9, "GFLOP/s");
      add("dense.getrf_gflops", getrf_flops_ / getrf_.best * 1e-9, "GFLOP/s");
      add("trace.overhead", factor_traced / factor_untraced, "ratio");
    }

    for (const auto& c : cases_) {
      std::printf("# %s %s p=%d rounds=%d samples analyze=%lld factor=%lld refactor=%lld solve=%lld "
                  "min analyze=%.6f factor=%.6f refactor=%.6f solve=%.3e lu_nnz=%lld fallbacks=%lld\n",
                  w_.name, c->spec->name, static_cast<int>(threads_), rounds_, c->analyze.samples,
                  c->factor.samples, c->refactor.samples, c->solve.samples, c->analyze.best,
                  c->factor.best, c->refactor.best, c->solve.best, c->lu_nnz, c->fallbacks);
    }
    std::printf("# max backward error %.3e (bound %.0e), %.3e on known-fault inputs; "
                "host steal during the run %.2f cpu-s\n",
                max_backward_error_, kMaxBackwardError, max_backward_error_known_, steal_s_);

    std::string json = "{\"correct\": ";
    json += tally_.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(tally_.attempted);
    json += ", \"failed\": " + std::to_string(tally_.failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, m] : metrics) {
      char buf[256];
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", name.c_str(), m.value, m.unit);
      json += buf;
      first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
  }

  /// Writes the benchmark's spans and each traced instance's trace.
  void write_traces() {
    const std::string stem = args_.out_dir + "/" + w_.name + ".trace" + std::to_string(args_.trace);
    if (!spans_.write_chrome(stem + ".spans.json")) {
      std::fprintf(stderr, "perfbench: cannot write %s.spans.json\n", stem.c_str());
    }
    for (const auto& c : cases_) {
      if (c->traced && c->traced->dump_trace(stem + "." + c->spec->name + ".basker.json") != Status::kOk) {
        std::fprintf(stderr, "perfbench: dump_trace failed for %s\n", c->spec->name);
      }
    }
  }

 private:
  std::string label(const Case& c, const char* call) const {
    return std::string(call) + " " + c.spec->name;
  }

  /// Times `reps` back-to-back calls of f as one sample; returns the
  /// per-call mean and logs the batch as one span.
  template <class F>
  double timed(const std::string& name, int parent, int reps, F&& f) {
    const Clock::time_point t0 = Clock::now();
    for (int r = 0; r < reps; ++r) f();
    const Clock::time_point t1 = Clock::now();
    spans_.add(name, parent, t0, t1);
    return seconds_between(t0, t1) / reps;
  }

  void lifecycle_round(Case& c, int round) {
    const MatrixSpec& m = *c.spec;
    Solver& s = *c.solver;

    c.analyze.add(timed(label(c, "core.symbolic"), round, m.analyze_batch, [&] {
      const Status st = s.symbolic(c.a0);
      tally_.op(st == Status::kOk, true, "symbolic", c.spec->name);
    }));

    for (int f = 0; f < m.factors; ++f) {
      c.factor.add(timed(label(c, "core.numeric"), round, m.factor_batch, [&] {
        const Status st = s.numeric(c.a0);
        tally_.op(st == Status::kOk, true, "numeric", c.spec->name);
      }));
    }
    c.lu_nnz = s.stats().nnz_lu;
    if (args_.trace) {
      const basker::BaskerStats& st = s.stats();
      LayerFigures& l = c.layer;
      l.sync.add(st.sync_seconds);
      l.factor_flops = st.factor_flops;
      l.dense_blocks = st.dense_blocks;
      l.grow_events = st.grow_events;
      l.dag_tasks = st.dag_tasks;
      l.steals = st.dag_steals;
      l.tile_tasks = st.dag_tile_tasks;
      l.update_chunks = st.dag_update_chunks;
      l.critical_cols = st.dag_critical_cols;
      l.total_cols = st.dag_total_cols;
    }
    if (c.has_reference) {
      // Checks the numeric() calls above: equal |L+U| to the one-thread
      // instance (their solutions are compared after every refactor).
      tally_.op(true, c.lu_nnz == c.reference_nnz, "lu_nnz vs one thread", c.spec->name);
    }

    const bool known_fault = m.fixed_seed != 0;
    Prng drift(c.drift_seed);
    Prng rhs(c.rhs_seed);
    std::vector<std::vector<double>> b(static_cast<size_t>(m.rhs));
    std::vector<std::vector<double>> x(b.size());
    std::vector<Status> solve_status(b.size());
    for (int k = 0; k < m.steps; ++k) {
      // Each step drifts a0's values anew: a transient around one
      // operating point, so the sequence stays equally hard to the end.
      std::copy(c.a0.values.begin(), c.a0.values.end(), c.a.values.begin());
      basker::gen::revalue(c.a, drift);
      const double a_norm = norm_inf(c.a);

      c.refactor.add(timed(label(c, "core.refactor"), round, 1, [&] {
        const Status st = s.refactor(c.a);
        if (st == Status::kPivotGrowth) ++c.fallbacks;
        tally_.op(st == Status::kOk || st == Status::kPivotGrowth, true, "refactor", c.spec->name);
      }));
      for (size_t i = 0; i < b.size(); ++i) {
        b[i] = basker::gen::random_rhs(c.a.ncols, rhs.next_u64());
        x[i] = b[i];
      }
      for (size_t next = 0; next < b.size();) {
        c.solve.add(timed(label(c, "core.solve"), round, m.solve_batch, [&] {
          solve_status[next] = s.solve(x[next]);
          ++next;
        }));
      }
      for (size_t i = 0; i < b.size(); ++i) {
        bool ok = false;
        if (solve_status[i] == Status::kOk) {
          const double be = backward_error(c.a, a_norm, x[i], b[i]);
          double& worst = known_fault ? max_backward_error_known_ : max_backward_error_;
          worst = std::max(worst, be);
          ok = be <= kMaxBackwardError;
          if (ok && c.has_reference) {
            ok = bit_equal(c.reference_x[static_cast<size_t>(k) * b.size() + i], x[i]);
          }
        }
        tally_.op(solve_status[i] == Status::kOk, ok, "solve", c.spec->name, known_fault);
      }
    }
  }

  void layer_round(Case& c, int round) {
    LayerFigures& l = c.layer;
    const int reps = c.spec->layer_batch;
    basker::Matching match;
    l.matching.add(timed(label(c, "graph.bottleneck_matching"), round, reps,
                         [&] { match = basker::bottleneck_matching(c.a0); }));
    tally_.op(true, matching_ok(c.a0, match), "bottleneck_matching", c.spec->name);
    if (!c.graph) prepare_graph(c, match);
    GraphInputs& g = *c.graph;

    basker::BtfResult btf;
    l.btf.add(timed(label(c, "graph.btf_order"), round, reps,
                    [&] { btf = basker::btf_order(g.permuted); }));
    tally_.op(true, btf_ok(g.permuted, btf), "btf_order", c.spec->name);

    basker::NdTree tree;
    l.nd.add(timed(label(c, "graph.nested_dissect"), round, reps,
                   [&] { tree = basker::nested_dissect(g.block_sym, 2); }));
    tally_.op(true, nd_ok(g.block_sym, tree), "nested_dissect", c.spec->name);
    l.sep_rows = tree.seg_size(tree.nsegments - 1);

    std::vector<Int> amd;
    l.amd.add(timed(label(c, "graph.min_degree_order"), round, reps,
                    [&] { amd = basker::min_degree_order(g.block_sym); }));
    tally_.op(true, is_permutation_of(amd, g.block_sym.ncols), "min_degree_order", c.spec->name);

    std::vector<Int> counts;
    l.colcount.add(timed(label(c, "graph.chol_col_counts"), round, reps,
                         [&] { counts = basker::chol_col_counts(g.block_amd, g.parent); }));
    long long below_diag = -static_cast<long long>(counts.size());
    for (Int cc : counts) below_diag += cc;
    // Column counts of the AMD-ordered pattern and the brute-force fill
    // count are two independent routes to |L| - n.
    tally_.op(true, below_diag == l.amd_fill, "chol_col_counts (vs fill count)", c.spec->name);

    // Timed exactly as the untraced instance: after one symbolic(), the
    // same number of samples of the same batch of numeric() calls.
    const MatrixSpec& m = *c.spec;
    Solver& t = *c.traced;
    tally_.op(t.symbolic(c.a0) == Status::kOk, true, "traced symbolic", c.spec->name);
    for (int f = 0; f < m.factors; ++f) {
      const double secs = timed(label(c, "core.numeric traced"), round, m.factor_batch, [&] {
        const Status st = t.numeric(c.a0);
        tally_.op(st == Status::kOk, t.stats().nnz_lu == c.lu_nnz, "traced numeric", c.spec->name);
      });
      if (secs < l.traced_factor.best) l.trace = t.stats().trace;
      l.traced_factor.add(secs);
    }
  }

  void prepare_graph(Case& c, const basker::Matching& match) {
    auto g = std::make_unique<GraphInputs>();
    g->permuted = basker::permute(c.a0, match.row_permutation(), {});
    const basker::BtfResult btf = basker::btf_order(g->permuted);
    const Csc b = basker::permute(g->permuted, btf.perm, btf.perm);
    Int big = 0;
    for (Int k = 1; k < btf.num_blocks(); ++k) {
      if (btf.block_size(k) > btf.block_size(big)) big = k;
    }
    const Int lo = btf.block_offsets[static_cast<size_t>(big)];
    const Int hi = btf.block_offsets[static_cast<size_t>(big) + 1];
    g->block_sym = basker::symmetrize_pattern(basker::extract_block(b, lo, hi, lo, hi));
    const std::vector<Int> amd = basker::min_degree_order(g->block_sym);
    c.layer.amd_fill = basker::symbolic_fill_count(g->block_sym, amd);
    g->block_amd = basker::permute(g->block_sym, amd, amd);
    g->parent = basker::etree(g->block_amd);
    c.graph = std::move(g);
  }

  /// Rates of the dense microkernels on a panel dense_tile columns wide.
  void dense_round(int round) {
    const Int w = BaskerOptions{}.dense_tile;
    const Int m = 8 * w;
    const int reps = 8;
    if (panel_.empty()) {
      Prng rng(12345);
      panel_.resize(static_cast<size_t>(m) * w);
      for (double& v : panel_) v = rng.uniform(-1.0, 1.0);
      for (Int j = 0; j < w; ++j) panel_[static_cast<size_t>(j) * m + j] += 2.0 * w;
      square_.resize(static_cast<size_t>(w) * w);
      for (Int j = 0; j < w; ++j) {
        std::copy(panel_.begin() + static_cast<long>(j) * m,
                  panel_.begin() + static_cast<long>(j) * m + w,
                  square_.begin() + static_cast<long>(j) * w);
      }
      gemm_flops_ = 2.0 * m * w * w;
    }
    std::vector<double> c = panel_;
    gemm_.add(timed("dense.gemm_minus", round, reps, [&] {
      basker::gemm_minus<Int, double>(m, w, w, panel_.data(), m, square_.data(), w, c.data(), m);
    }));
    tally_.op(true, gemm_ok(m, w, w, panel_, square_, panel_, c, reps), "gemm_minus");

    std::vector<double> a;
    std::vector<Int> perm(static_cast<size_t>(m)), pos(static_cast<size_t>(m));
    double total = 0.0;
    for (int r = 0; r < reps; ++r) {
      a = panel_;
      for (Int i = 0; i < m; ++i) perm[static_cast<size_t>(i)] = pos[static_cast<size_t>(i)] = i;
      double flops = 0.0;
      Status st = Status::kOk;
      total += timed("dense.panel_getrf_range", round, 1, [&] {
        st = basker::panel_getrf_range<Int, double>(m, m, a.data(), 0, w, perm.data(), pos.data(),
                                                    basker::PanelPivot{}, &flops);
      });
      tally_.op(st == Status::kOk, panel_lu_ok(m, w, panel_, a, perm), "panel_getrf_range");
      getrf_flops_ = flops;
    }
    getrf_.add(total / reps);
  }

  const Args& args_;
  const WorkloadSpec& w_;
  SpanLog spans_;
  std::vector<std::unique_ptr<Case>> cases_;
  Int threads_ = 1;
  double setup_s_ = 0.0;
  int rounds_ = 0;
  double steal_s_ = 0.0;
  Tally tally_;
  double max_backward_error_ = 0.0;
  double max_backward_error_known_ = 0.0;  ///< on inputs of a known fault
  std::vector<double> panel_, square_;
  MinOf gemm_, getrf_;
  double gemm_flops_ = 0.0, getrf_flops_ = 0.0;
};

/// KLU on the same inputs: reference figures for README.md, not metrics.
int run_klu(const WorkloadSpec& w, std::uint64_t seed) {
  for (const MatrixSpec& m : w.matrices) {
    const Csc a0 = basker::gen::make_by_name(m.name, m.scale);
    Csc a = a0;
    Prng drift(seed);
    MinOf factor, refactor, solve;
    bool ok = true;
    for (int r = 0; r < 5; ++r) {
      basker::KluSolver klu;
      Clock::time_point t0 = Clock::now();
      ok = ok && klu.factor(a0) == Status::kOk;
      factor.add(seconds_between(t0, Clock::now()));
      for (int k = 0; k < 4; ++k) {
        std::copy(a0.values.begin(), a0.values.end(), a.values.begin());
        basker::gen::revalue(a, drift);
        t0 = Clock::now();
        ok = ok && klu.refactor(a) == Status::kOk;
        refactor.add(seconds_between(t0, Clock::now()));
        std::vector<double> x = basker::gen::random_rhs(a.ncols, drift.next_u64());
        const std::vector<double> b = x;
        t0 = Clock::now();
        ok = ok && klu.solve(x) == Status::kOk;
        solve.add(seconds_between(t0, Clock::now()));
        ok = ok && backward_error(a, norm_inf(a), x, b) <= kMaxBackwardError;
      }
      if (r == 0) {
        std::printf("klu %s %s n=%d lu_nnz=%lld analyze+factor(first)=%.6f\n", w.name, m.name,
                    static_cast<int>(a0.ncols), static_cast<long long>(klu.stats().nnz_lu),
                    factor.best);
      }
    }
    std::printf("klu %s %s min factor=%.6f refactor=%.6f solve=%.3e %s\n", w.name, m.name,
                factor.best, refactor.best, solve.best, ok ? "ok" : "FAILED");
  }
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: lifecycle --workload NAME --seed N --seconds S --trace 0|1 "
               "--fingerprints FILE [--rhs-seed N] [--out DIR]\n"
               "       lifecycle --print-fingerprints\n"
               "       lifecycle --klu --workload NAME [--seed N]\n"
               "       lifecycle --reference --workload NAME --seed N --rhs-seed N\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (a == "--print-fingerprints") {
      args.print_fingerprints = true;
    } else if (a == "--klu") {
      args.klu = true;
    } else if (a == "--reference") {
      args.reference = true;
    } else if ((v = value()) == nullptr) {
      return usage();
    } else if (a == "--workload") {
      args.workload = v;
    } else if (a == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--rhs-seed") {
      args.rhs_seed = std::strtoull(v, nullptr, 10);
      args.rhs_seed_set = true;
    } else if (a == "--seconds") {
      args.seconds = std::atof(v);
    } else if (a == "--trace") {
      args.trace = std::atoi(v);
    } else if (a == "--fingerprints") {
      args.fingerprints = v;
    } else if (a == "--out") {
      args.out_dir = v;
    } else {
      return usage();
    }
  }
  if (!args.rhs_seed_set) args.rhs_seed = args.seed ^ 0x5DEECE66DULL;

  try {
    if (args.print_fingerprints) {
      std::printf("# name scale n nnz fnv1a64(n, pattern, values)\n");
      std::vector<std::string> done;
      for (const auto& w : workloads()) {
        for (const auto& m : w.matrices) {
          const std::string line =
              fingerprint_line(m, basker::gen::make_by_name(m.name, m.scale));
          if (std::find(done.begin(), done.end(), line) != done.end()) continue;
          done.push_back(line);
          std::printf("%s\n", line.c_str());
        }
      }
      return 0;
    }
    const WorkloadSpec* w = find_workload(args.workload);
    if (w == nullptr) {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
      return usage();
    }
    if (args.klu) return run_klu(*w, args.seed);
    if (args.reference) return write_reference(*w, args);
    if (args.fingerprints.empty() || args.seconds <= 0.0 || (args.trace != 0 && args.trace != 1)) {
      return usage();
    }
    Bench bench(args, *w);
    if (!bench.setup()) return 3;
    if (!bench.load_reference()) {
      std::fprintf(stderr, "perfbench: the one-thread reference run failed\n");
      return 4;
    }
    bench.run();
    bench.write_traces();
    bench.report();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
