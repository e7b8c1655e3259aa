// punctbench: the end-to-end benchmark of punctsafe.
//
//   punctbench --workload <name|all> --seed <n> --seconds <s>
//              --trace <0|1> [--smoke]
//
// Untraced (--trace 0): generates the workload's trace from the seed,
// then repeats whole rounds (admission + the full trace, closed loop)
// until the run time is spent, with one extra warm-up round first.
// Every round's outputs are checked against the benchmark's own
// reference join. Prints the end-to-end metrics; the last stdout line
// is one JSON object {correct, attempted, failed, metrics}.
//
// Traced (--trace 1): replays the same trace with observability on and
// every call into a layer timed, and prints the per-layer metrics plus
// obs.overhead_ratio (untraced over traced throughput of alternating
// rounds).
//
// README.md has the workloads, the metric map and the figures.

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "runners.h"
#include "server/query_registry.h"

namespace punctbench {
namespace {

struct Args {
  std::string workload = "all";
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: punctbench --workload <name|all> --seed <n> "
               "--seconds <s> --trace <0|1> [--smoke]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') Usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a.seconds > 0)) Usage("--seconds takes a positive number");
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        Usage("--trace takes 0 or 1");
      }
      a.trace = v[0] == '1';
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  return a;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string error;
  std::vector<Metric> metrics;

  void Add(const RoundStats& r) {
    attempted += r.events;
    failed += r.failed;
    if (!r.error.empty() && correct) {
      correct = false;
      error = r.error;
    }
  }
};

/// Moves the calling thread to the next allowed CPU, round by round.
/// On a shared virtual machine the CPUs run at different speeds at the
/// same moment, so a single-threaded run that stays on whichever CPU
/// the scheduler picked measures that CPU; rotating makes every run
/// sample all of them. Only serial rounds are rotated: they run on one
/// thread, while the server and the parallel replay start threads that
/// would inherit the pin. The destructor restores the original mask.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&original_);
    if (sched_getaffinity(0, sizeof(original_), &original_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &original_)) cpus_.push_back(c);
    }
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(original_), &original_);
  }

  void PinNext() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
  size_t next_ = 0;
};

double Throughput(const RoundStats& r) {
  return r.busy_s > 0 ? static_cast<double>(r.events) / r.busy_s : 0;
}

/// p-th quantile of one round's samples in microseconds; when fewer
/// than ten samples lie beyond p, the highest quantile that has ten.
double LatencyUs(std::vector<int64_t>* pool, double p, const char* what) {
  double n = static_cast<double>(pool->size());
  double q = p;
  if (n * (1 - p) < 10 && n > 0) {
    q = std::max(0.5, 1 - 10 / n);
    std::fprintf(stderr, "note: %s has %zu samples; reporting q=%.4f\n", what,
                 pool->size(), q);
  }
  return Quantile(pool, q) * 1e-3;
}

/// Executor configuration and admission path of the workload's
/// embedded counterpart: its own configuration, or for the server the
/// registry's defaults admitted the registry's way.
EmbeddedOptions EmbeddedBase(const Workload& w) {
  EmbeddedOptions opt;
  if (w.runner == Runner::kServer) {
    opt.config = punctsafe::server::QueryRegistry().default_config();
    opt.registry_admission = true;
  } else {
    opt.config = w.config;
  }
  opt.setup_reps = w.setup_reps;
  return opt;
}

Outcome RunUntraced(const Workload& w, const RunContext& ctx, double seconds) {
  Outcome out;
  RoundStats mirror;
  if (w.runner == Runner::kServer) {
    mirror = EmbeddedRound(ctx, EmbeddedBase(w), nullptr);
    if (!mirror.error.empty()) out.Add(mirror);
  }
  CpuRotation cpus;
  auto round = [&]() {
    if (w.runner == Runner::kServer) return ServerRound(ctx, mirror, nullptr);
    cpus.PinNext();
    return EmbeddedRound(ctx, EmbeddedBase(w), nullptr);
  };
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  RoundStats warm = round();  // checked and counted, not measured
  out.Add(warm);
  if (!warm.plans.empty()) std::printf("# plan: %s\n", warm.plans.c_str());
  // Latency quantiles are taken per round and their median reported:
  // pooling rounds that ran on CPUs of different speed would mix
  // distributions, and a pooled quantile can fall into the gap
  // between them. A round's samples are dropped once summarized.
  std::vector<double> thr, setup, mem, res50, res99, punct50, punct99;
  size_t peak_tuples = 0, peak_puncts = 0;
  size_t result_samples = 0, punct_samples = 0;
  while (thr.size() < 2 || NowNs() < deadline) {
    RoundStats r = round();
    out.Add(r);
    result_samples = r.result_lat_ns.size();
    punct_samples = r.punct_lat_ns.size();
    thr.push_back(Throughput(r));
    setup.push_back(r.setup_s);
    mem.push_back(r.state_mb);
    res50.push_back(LatencyUs(&r.result_lat_ns, 0.5, "result latency"));
    res99.push_back(LatencyUs(&r.result_lat_ns, 0.99, "result latency"));
    punct50.push_back(LatencyUs(&r.punct_lat_ns, 0.5, "punct latency"));
    punct99.push_back(LatencyUs(&r.punct_lat_ns, 0.99, "punct latency"));
    peak_tuples = std::max(peak_tuples, r.peak_live_tuples);
    peak_puncts = std::max(peak_puncts, r.peak_live_punctuations);
  }
  std::fprintf(stderr,
               "%s: %zu measured rounds of %zu result and %zu punctuation "
               "latency samples\n",
               w.name.c_str(), thr.size(), result_samples, punct_samples);
  out.metrics = {
      {"throughput_eps", Median(thr), "1/s"},
      {"result_latency_p50_us", Median(res50), "us"},
      {"result_latency_p99_us", Median(res99), "us"},
      {"punct_latency_p50_us", Median(punct50), "us"},
      {"punct_latency_p99_us", Median(punct99), "us"},
      {"peak_live_tuples", static_cast<double>(peak_tuples), "count"},
      {"peak_live_punctuations", static_cast<double>(peak_puncts), "count"},
      {"state_mb", Median(mem), "MB"},
      {"setup_s", Median(setup), "s"},
  };
  return out;
}

/// Every per-layer metric a traced run reports, in output order, with
/// its unit (README.md maps each to the end-to-end metric it moves).
const std::pair<const char*, const char*> kLayerMetrics[] = {
    {"query.parse_us", "us"},
    {"core.safety_check_us", "us"},
    {"plan.choose_us", "us"},
    {"exec.create_us", "us"},
    {"exec.tuple_push_ns", "ns"},
    {"exec.probes_per_tuple", "count"},
    {"exec.results_per_tuple", "count"},
    {"exec.insert_allocs", "count"},
    {"exec.probe_allocs", "count"},
    {"exec.expand_allocs", "count"},
    {"exec.index_compactions", "count"},
    {"exec.punct_push_ns", "ns"},
    {"exec.sweep_ns_per_punct", "ns"},
    {"exec.removability_checks_per_punct", "count"},
    {"exec.purge_sweeps", "count"},
    {"exec.tuples_purged", "count"},
    {"exec.punctuations_stored", "count"},
    {"exec.punctuations_retired", "count"},
    {"exec.arena_bytes_reserved_peak", "bytes"},
    {"exec.arena_blocks_reclaimed", "count"},
    {"exec.parallel.routed_skew", "ratio"},
    {"exec.parallel.queue_stalls", "count"},
    {"exec.parallel.queue_depth_p50", "count"},
    {"exec.parallel.drain_ms", "ms"},
    {"server.parse_ns_per_line", "ns"},
    {"server.registry_push_ns_per_event", "ns"},
    {"server.executor_pushes_per_event", "count"},
    {"server.take_results_ns", "ns"},
    {"server.format_ns_per_result", "ns"},
    {"server.result_bytes", "bytes"},
    {"server.transport_ns_per_line", "ns"},
    {"server.shared_store_punctuations", "count"},
    {"server.query_live_punctuations", "count"},
    {"obs.overhead_ratio", "ratio"},
};

Outcome RunTraced(const Workload& w, const RunContext& ctx, uint64_t seed,
                  double seconds) {
  Outcome out;
  LayerMetrics L;
  const EmbeddedOptions base = EmbeddedBase(w);
  EmbeddedOptions traced = base;
  traced.traced = true;
  // Alternating untraced / traced rounds of the embedded serial path
  // give the observation overhead; the traced rounds fill exec.*. They
  // take half the run time, the single passes over the other layers
  // below the rest.
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 0.5e9);
  std::vector<double> plain, observed;
  RoundStats mirror;
  {
    CpuRotation cpus;  // both rounds of a pair on the same CPU
    do {
      cpus.PinNext();
      mirror = EmbeddedRound(ctx, base, nullptr);
      out.Add(mirror);
      plain.push_back(Throughput(mirror));
      RoundStats t = EmbeddedRound(ctx, traced, &L);
      out.Add(t);
      observed.push_back(Throughput(t));
    } while (NowNs() < deadline);
  }
  L["obs.overhead_ratio"] = Median(plain) / Median(observed);

  // The parallel layer, which no workload's own path runs: the first
  // query, once, through a 2-shard ParallelExecutor (two workers plus
  // the calling thread, three threads).
  EmbeddedOptions parallel = traced;
  parallel.setup_reps = 1;
  parallel.parallel = true;
  parallel.registry_admission = false;
  parallel.config.shards = 2;
  parallel.only_query = 0;
  out.Add(EmbeddedRound(ctx, parallel, &L));
  TimeAdmission(ctx, base.config, std::max<size_t>(3, w.setup_reps), &L);

  // Server layers: the registry's queries over the workload's events.
  // The mirror supplies the per-query stores STATS does not show. An
  // embedded workload's queries go through the server on its smoke-size
  // trace (same seed): every figure here is per line or per result, and
  // millions of RESULT lines would only lengthen the run.
  Workload small;
  RunContext small_ctx;
  const RunContext* server_ctx = &ctx;
  if (w.runner != Runner::kServer) {
    MakeWorkload(w.name, seed, /*smoke=*/true, &small);
    small_ctx = Prepare(small);
    server_ctx = &small_ctx;
    EmbeddedOptions registry_way;
    registry_way.config = punctsafe::server::QueryRegistry().default_config();
    registry_way.registry_admission = true;
    mirror = EmbeddedRound(small_ctx, registry_way, nullptr);
    out.Add(mirror);
  }
  out.Add(ServerRound(*server_ctx, mirror, &L));
  ServerReplay(*server_ctx, &L);
  L["server.query_live_punctuations"] =
      static_cast<double>(mirror.final_live_punctuations);
  for (const auto& [name, unit] : kLayerMetrics) {
    auto it = L.find(name);
    if (it == L.end()) {
      out.correct = false;
      out.error = std::string("per-layer metric ") + name + " was not measured";
      continue;
    }
    out.metrics.push_back({name, it->second, unit});
  }
  return out;
}

void PrintJson(const Outcome& o, const std::string& prefix_all) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              o.correct ? "true" : "false",
              static_cast<unsigned long long>(o.attempted),
              static_cast<unsigned long long>(o.failed));
  for (size_t i = 0; i < o.metrics.size(); ++i) {
    std::printf("%s\"%s%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", prefix_all.c_str(), o.metrics[i].name.c_str(),
                o.metrics[i].value, o.metrics[i].unit);
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace punctbench

int main(int argc, char** argv) {
  using namespace punctbench;
  Args args = ParseArgs(argc, argv);
  std::vector<std::string> names;
  if (args.workload == "all") {
    names = WorkloadNames();
  } else {
    names = {args.workload};
  }
  Outcome total;
  for (const std::string& name : names) {
    Workload w;
    if (!MakeWorkload(name, args.seed, args.smoke, &w)) {
      Usage(("unknown workload " + name).c_str());
    }
    const int64_t t0 = NowNs();
    RunContext ctx = Prepare(w);
    std::printf("# %s seed=%llu %s: %zu events, reference prepared in %.2f s\n",
                name.c_str(), static_cast<unsigned long long>(args.seed),
                w.shape.c_str(), w.trace.size(),
                static_cast<double>(NowNs() - t0) * 1e-9);
    Outcome o = args.trace ? RunTraced(w, ctx, args.seed, args.seconds)
                           : RunUntraced(w, ctx, args.seconds);
    for (const Metric& m : o.metrics) {
      std::printf("%-16s %-40s %16.4f %s\n", name.c_str(), m.name.c_str(),
                  m.value, m.unit);
    }
    if (!o.correct) {
      std::printf("%s: OUTPUT CHECK FAILED: %s\n", name.c_str(), o.error.c_str());
    }
    std::fflush(stdout);
    total.correct = total.correct && o.correct;
    total.attempted += o.attempted;
    total.failed += o.failed;
    for (const Metric& m : o.metrics) {
      total.metrics.push_back(
          {names.size() > 1 ? name + "." + m.name : m.name, m.value, m.unit});
    }
  }
  PrintJson(total, "");
  return total.correct ? 0 : 1;
}
