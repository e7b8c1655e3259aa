// Embedded runners: the workload's queries admitted the way an
// embedder admits them (spec parse, safety check, plan choice,
// executor construction), then every event pushed closed loop through
// PlanExecutor or ParallelExecutor, results taken after each call.

#include <cstdio>
#include <memory>

#include "core/safety_checker.h"
#include "runners.h"
#include "exec/parallel_executor.h"
#include "exec/query_register.h"
#include "plan/chooser.h"
#include "query/spec_parser.h"

namespace punctbench {

namespace {

using punctsafe::ParallelExecutor;
using punctsafe::PlanExecutor;

struct Instance {
  size_t query = 0;
  /// Workload stream -> query stream index, -1 where the query does
  /// not read the stream.
  std::vector<int> slot;
  std::unique_ptr<PlanExecutor> serial;
  std::unique_ptr<ParallelExecutor> parallel;
  Digest digest;
  uint64_t tuple_pushes = 0;
  uint64_t punct_pushes = 0;

  const std::vector<std::unique_ptr<punctsafe::MJoinOperator>>& operators()
      const {
    return serial ? serial->operators() : parallel->operators();
  }
  size_t live_tuples() const {
    return serial ? serial->TotalLiveTuples() : parallel->TotalLiveTuples();
  }
  size_t live_punctuations() const {
    return serial ? serial->TotalLivePunctuations()
                  : parallel->TotalLivePunctuations();
  }
  std::vector<punctsafe::Tuple> TakeResults() {
    return serial ? serial->TakeResults() : parallel->TakeResults();
  }
};

/// Nanoseconds spent in each admission step, summed over the
/// admitted queries.
struct AdmitTimes {
  int64_t parse = 0, safety = 0, choose = 0, create = 0;
  std::string plans;  ///< the chosen plan of each query
};

std::string Fail(const std::string& what, const punctsafe::Status& s) {
  return what + ": " + s.ToString();
}

bool Admit(const RunContext& ctx, const EmbeddedOptions& opt,
           std::vector<Instance>* out, AdmitTimes* times,
           std::string* error) {
  const Workload& w = *ctx.w;
  ExecutorConfig config = opt.config;
  config.keep_results = true;  // TakeResults is how a caller sees results
  config.observe.enabled = opt.traced;
  config.mode = opt.parallel ? punctsafe::ExecutionMode::kParallel
                             : punctsafe::ExecutionMode::kSerial;
  for (size_t qi = 0; qi < w.queries.size(); ++qi) {
    if (opt.only_query != static_cast<size_t>(-1) && qi != opt.only_query) {
      continue;
    }
    const QueryDef& q = w.queries[qi];
    size_t copies = opt.only_query == qi ? 1 : q.copies;
    std::string text = StreamSpecLines(w) + QuerySpecBody(w, q);
    int64_t t0 = NowNs();
    auto spec = punctsafe::ParseSpec(text);
    if (!spec.ok()) return *error = Fail("parse " + q.id, spec.status()), false;
    auto query = spec->MakeQuery();
    if (!query.ok()) return *error = Fail("query " + q.id, query.status()), false;
    int64_t t1 = NowNs();
    times->parse += t1 - t0;
    for (size_t c = 0; c < copies; ++c) {
      Instance inst;
      inst.query = qi;
      for (const StreamDef& s : w.streams) {
        auto idx = query->StreamIndex(s.name);
        inst.slot.push_back(idx ? static_cast<int>(*idx) : -1);
      }
      if (opt.registry_admission) {
        // QueryRegistry::RegisterQuery's path: QueryRegister over the
        // catalog, the spec's schemes, the default single-MJoin plan.
        int64_t r0 = NowNs();
        punctsafe::QueryRegister reg(spec->catalog);
        for (const auto& scheme : spec->schemes.schemes()) {
          auto s = reg.RegisterScheme(scheme);
          if (!s.ok()) return *error = Fail("scheme " + q.id, s), false;
        }
        auto rq = reg.Register(spec->query_streams, spec->predicates, config);
        if (!rq.ok()) return *error = Fail("register " + q.id, rq.status()), false;
        times->create += NowNs() - r0;
        inst.serial = std::move(rq->executor);
        inst.parallel = std::move(rq->parallel_executor);
        out->push_back(std::move(inst));
        continue;
      }
      int64_t s0 = NowNs();
      auto report = punctsafe::SafetyChecker(spec->schemes).CheckQuery(*query);
      if (!report.ok()) return *error = Fail("check " + q.id, report.status()), false;
      if (!report->safe) return *error = "query " + q.id + " judged unsafe", false;
      int64_t s1 = NowNs();
      // The memory objective: bounded join state is what the safety
      // guarantee promises, so an embedder ranks plans by it.
      auto best = punctsafe::PlanChooser(*query, spec->schemes, ctx.stats[qi])
                      .Choose(punctsafe::CostObjective::kMemory,
                              config.mjoin.purge_policy);
      if (!best.ok()) return *error = Fail("choose " + q.id, best.status()), false;
      int64_t s2 = NowNs();
      if (opt.parallel) {
        auto exec = ParallelExecutor::Create(*query, spec->schemes,
                                             best->shape, config);
        if (!exec.ok()) return *error = Fail("create " + q.id, exec.status()), false;
        inst.parallel = std::move(exec).ValueOrDie();
      } else {
        auto exec =
            PlanExecutor::Create(*query, spec->schemes, best->shape, config);
        if (!exec.ok()) return *error = Fail("create " + q.id, exec.status()), false;
        inst.serial = std::move(exec).ValueOrDie();
      }
      int64_t s3 = NowNs();
      if (c == 0) times->plans += q.id + "=" + best->shape.ToString(*query) + " ";
      times->safety += s1 - s0;
      times->choose += s2 - s1;
      times->create += s3 - s2;
      out->push_back(std::move(inst));
    }
  }
  return true;
}

/// Counters summed over every operator (and shard) of every instance.
struct ExecCounters {
  punctsafe::StateMetricsSnapshot state;
  punctsafe::OperatorMetricsSnapshot op;
  uint64_t punctuations_purged = 0;
};

ExecCounters SumCounters(const std::vector<Instance>& inst) {
  ExecCounters c;
  for (const Instance& in : inst) {
    for (const auto& op : in.operators()) {
      c.state += op->AggregateStateSnapshot();
      punctsafe::OperatorMetricsSnapshot m = op->metrics().Snapshot();
      c.op.results_emitted += m.results_emitted;
      c.op.punctuations_stored += m.punctuations_stored;
      c.op.punctuations_expired += m.punctuations_expired;
      c.op.purge_sweeps += m.purge_sweeps;
      c.op.removability_checks += m.removability_checks;
      c.punctuations_purged += op->punctuations_purged();
    }
  }
  return c;
}

double PerUnit(double total, uint64_t units) {
  return units == 0 ? 0.0 : total / static_cast<double>(units);
}

}  // namespace

RunContext Prepare(const Workload& w) {
  RunContext ctx;
  ctx.w = &w;
  ctx.ref = ComputeReference(w);
  const size_t n = w.trace.size();
  ctx.tuples.resize(n);
  ctx.puncts.resize(n);
  ctx.lines.reserve(n);
  std::vector<uint64_t> tuples_of(w.streams.size(), 0);
  std::vector<uint64_t> puncts_of(w.streams.size(), 0);
  for (size_t i = 0; i < n; ++i) {
    const Event& e = w.trace[i];
    if (e.punct) {
      ctx.puncts[i] = EventPunctuation(e);
      ++ctx.punct_events;
      ++puncts_of[e.stream];
    } else {
      ctx.tuples[i] = EventTuple(w, e);
      ++ctx.tuple_events;
      ++tuples_of[e.stream];
    }
    ctx.lines.push_back(EventLine(w, e));
  }
  // Chooser statistics as the trace shows them: per-stream arrival and
  // punctuation rates per event, predicate selectivity 1 / distinct
  // join values.
  for (const QueryDef& q : w.queries) {
    punctsafe::WorkloadStats st;
    for (size_t s : q.streams) {
      st.arrival_rate.push_back(static_cast<double>(tuples_of[s]) / n);
      st.punctuation_rate.push_back(static_cast<double>(puncts_of[s]) / n);
    }
    for (const QueryDef::Join& j : q.joins) {
      std::vector<int64_t> values;
      for (const Event& e : w.trace) {
        if (!e.punct && e.stream == j.s1) values.push_back(e.vals[j.a1]);
      }
      std::sort(values.begin(), values.end());
      size_t distinct = static_cast<size_t>(
          std::unique(values.begin(), values.end()) - values.begin());
      st.selectivity.push_back(1.0 / static_cast<double>(std::max<size_t>(1, distinct)));
    }
    st.horizon = static_cast<double>(n);
    ctx.stats.push_back(std::move(st));
  }
  return ctx;
}

RoundStats EmbeddedRound(const RunContext& ctx, const EmbeddedOptions& opt,
                         LayerMetrics* layers) {
  const Workload& w = *ctx.w;
  const size_t n = w.trace.size();
  RoundStats st;
  st.events = n;

  // Bookkeeping buffers are sized and touched before the memory
  // baseline, so state_mb counts only what the program allocates.
  uint64_t expected_results = 0;
  for (size_t qi = 0; qi < w.queries.size(); ++qi) {
    if (opt.only_query != static_cast<size_t>(-1) && qi != opt.only_query) {
      continue;
    }
    size_t copies = opt.only_query == qi ? 1 : w.queries[qi].copies;
    expected_results += copies * ctx.ref[qi].digest.count;
  }
  std::vector<int64_t> start_ns(n, 0);
  st.result_lat_ns.assign(expected_results, 0);
  st.punct_lat_ns.assign(ctx.punct_events, 0);
  size_t n_res = 0, n_punct = 0;

  std::vector<Instance> inst;
  std::vector<double> setups;
  AdmitTimes times;
  size_t base_rss = 0;
  for (size_t r = 0; r < std::max<size_t>(1, opt.setup_reps); ++r) {
    inst.clear();
    times = AdmitTimes();
    if (r + 1 == std::max<size_t>(1, opt.setup_reps)) {
      TrimHeap();
      base_rss = RssBytes();
    }
    int64_t t0 = NowNs();
    if (!Admit(ctx, opt, &inst, &times, &st.error)) return st;
    setups.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }
  st.setup_s = Median(setups);
  st.plans = times.plans;

  std::vector<std::vector<size_t>> readers(w.streams.size());
  for (size_t k = 0; k < inst.size(); ++k) {
    for (size_t s = 0; s < w.streams.size(); ++s) {
      if (inst[k].slot[s] >= 0) readers[s].push_back(k);
    }
  }
  std::vector<std::vector<punctsafe::Tuple>> taken(inst.size());
  size_t peak_rss = base_rss;
  size_t arena_peak = 0;
  size_t joint_live = 0, joint_punct = 0;
  int64_t tuple_push_ns = 0, punct_push_ns = 0, busy_ns = 0;
  uint64_t bad_results = 0;

  // Results taken at `now` from the instances in `from`: digest and
  // latency from the push of the tuple that completed each of them.
  auto account = [&](const std::vector<size_t>& from, int64_t now,
                     size_t pushed) {
    for (size_t k : from) {
      const std::vector<size_t>& ids = ctx.ref[inst[k].query].id_offsets;
      for (const punctsafe::Tuple& t : taken[k]) {
        inst[k].digest.Add(TupleRowHash(t));
        int64_t last = -1;
        for (size_t off : ids) last = std::max(last, t.at(off).AsInt64());
        if (last < 0 || static_cast<size_t>(last) >= pushed ||
            n_res >= st.result_lat_ns.size()) {
          ++bad_results;
          continue;
        }
        st.result_lat_ns[n_res++] = now - start_ns[last];
      }
      taken[k].clear();
    }
  };
  auto sample = [&]() {
    peak_rss = std::max(peak_rss, RssBytes());
    if (layers != nullptr) {
      size_t reserved = 0;
      for (const Instance& in : inst) {
        for (const auto& op : in.operators()) {
          reserved += op->AggregateStateSnapshot().arena_bytes_reserved;
        }
      }
      arena_peak = std::max(arena_peak, reserved);
    }
  };
  std::vector<size_t> all(inst.size());
  for (size_t k = 0; k < inst.size(); ++k) all[k] = k;

  const int64_t begin = NowNs();
  for (size_t i = 0; i < n; ++i) {
    const Event& e = w.trace[i];
    const std::vector<size_t>& rd = readers[e.stream];
    const int64_t ts = static_cast<int64_t>(i) + 1;
    const int64_t t0 = NowNs();
    start_ns[i] = t0;
    for (size_t k : rd) {
      size_t slot = static_cast<size_t>(inst[k].slot[e.stream]);
      if (e.punct) {
        if (opt.parallel) {
          inst[k].parallel->PushPunctuation(slot, ctx.puncts[i], ts);
        } else {
          inst[k].serial->PushPunctuation(slot, ctx.puncts[i], ts);
        }
      } else if (opt.parallel) {
        inst[k].parallel->PushTuple(slot, ctx.tuples[i], ts);
      } else {
        inst[k].serial->PushTuple(slot, ctx.tuples[i], ts);
      }
    }
    const int64_t t1 = NowNs();
    // Serial results can only come from the executors just pushed;
    // parallel workers emit at any time.
    const std::vector<size_t>& from = opt.parallel ? all : rd;
    for (size_t k : from) taken[k] = inst[k].TakeResults();
    const int64_t t2 = NowNs();
    busy_ns += t2 - t0;
    for (size_t k : rd) {
      (e.punct ? inst[k].punct_pushes : inst[k].tuple_pushes) += 1;
    }
    (e.punct ? punct_push_ns : tuple_push_ns) += t1 - t0;
    if (e.punct) st.punct_lat_ns[n_punct++] = t1 - t0;
    account(from, t2, i + 1);
    if (inst.size() > 1 && !opt.parallel) {
      size_t live = 0, puncts = 0;
      for (const Instance& in : inst) {
        live += in.live_tuples();
        puncts += in.live_punctuations();
      }
      joint_live = std::max(joint_live, live);
      joint_punct = std::max(joint_punct, puncts);
    }
    if ((i & 15) == 0) sample();
  }
  // End of input: deliver open batches and run the final sweep (the
  // parallel drain barrier), then take what they emitted.
  const int64_t f0 = NowNs();
  for (Instance& in : inst) {
    if (in.parallel) {
      auto s = in.parallel->Drain(static_cast<int64_t>(n) + 1);
      if (!s.ok() && st.error.empty()) st.error = Fail("drain", s);
    } else {
      in.serial->FlushIngest();
      in.serial->SweepAll(static_cast<int64_t>(n) + 1);
    }
  }
  const int64_t f1 = NowNs();
  for (size_t k : all) taken[k] = inst[k].TakeResults();
  const int64_t f2 = NowNs();
  busy_ns += f2 - f0;
  account(all, f2, n);
  sample();
  // Parallel workers run while the calling thread does its bookkeeping, so
  // their throughput is wall time; the serial runner's bookkeeping
  // between calls is excluded.
  st.busy_s = static_cast<double>(opt.parallel ? f2 - begin : busy_ns) * 1e-9;
  st.state_mb = static_cast<double>(peak_rss - base_rss) / 1e6;
  st.result_lat_ns.resize(n_res);
  st.punct_lat_ns.resize(n_punct);

  // Output checks.
  for (size_t k = 0; k < inst.size() && st.error.empty(); ++k) {
    const QueryReference& ref = ctx.ref[inst[k].query];
    const std::string who = "query " + w.queries[inst[k].query].id +
                            " instance " + std::to_string(k);
    if (inst[k].digest != ref.digest) {
      st.error = who + ": result multiset differs from the reference join (" +
                 std::to_string(inst[k].digest.count) + " results, want " +
                 std::to_string(ref.digest.count) + ")";
    } else if (inst[k].live_tuples() != 0) {
      st.error = who + ": " + std::to_string(inst[k].live_tuples()) +
                 " tuples still live after the closing punctuations";
    }
  }
  if (st.error.empty() && bad_results > 0) {
    st.error = std::to_string(bad_results) +
               " results name a tuple that was not yet pushed";
  }
  if (inst.size() == 1) {
    const Instance& in = inst[0];
    joint_live = in.serial ? in.serial->tuple_high_water()
                           : in.parallel->tuple_high_water();
    joint_punct = in.serial ? in.serial->punctuation_high_water()
                            : in.parallel->punctuation_high_water();
  }
  st.peak_live_tuples = joint_live;
  st.peak_live_punctuations = joint_punct;
  for (const Instance& in : inst) {
    st.final_live_punctuations += in.live_punctuations();
  }
  if (st.error.empty() && w.live_bound > 0 && joint_live > w.live_bound) {
    st.error = "peak live tuples " + std::to_string(joint_live) +
               " exceed the generator's bound " + std::to_string(w.live_bound);
  }

  if (layers != nullptr) {
    uint64_t tuple_pushes = 0, punct_pushes = 0;
    for (const Instance& in : inst) {
      tuple_pushes += in.tuple_pushes;
      punct_pushes += in.punct_pushes;
    }
    ExecCounters c = SumCounters(inst);
    punctsafe::obs::HistogramSnapshot sweep, depth;
    std::vector<double> routed;
    uint64_t stalls = 0;
    for (const Instance& in : inst) {
      punctsafe::obs::ObsSnapshot snap =
          in.serial ? in.serial->ObservabilitySnapshot()
                    : in.parallel->ObservabilitySnapshot();
      for (const auto& op : snap.operators) {
        sweep.Merge(op.sweep_ns);
        depth.Merge(op.queue_depth);
        routed.push_back(static_cast<double>(op.routed_tuples));
        stalls += op.queue_stalls;
      }
    }
    LayerMetrics& L = *layers;
    if (opt.parallel) {
      double total = 0, top = 0;
      for (double r : routed) {
        total += r;
        top = std::max(top, r);
      }
      L["exec.parallel.routed_skew"] =
          total > 0 ? top / (total / static_cast<double>(routed.size())) : 1.0;
      L["exec.parallel.queue_stalls"] = static_cast<double>(stalls);
      L["exec.parallel.queue_depth_p50"] =
          static_cast<double>(depth.Quantile(0.5));
      L["exec.parallel.drain_ms"] = static_cast<double>(f1 - f0) * 1e-6;
    } else {
      L["exec.tuple_push_ns"] = PerUnit(static_cast<double>(tuple_push_ns),
                                        ctx.tuple_events);
      L["exec.punct_push_ns"] = PerUnit(static_cast<double>(punct_push_ns),
                                        ctx.punct_events);
      L["exec.probes_per_tuple"] =
          PerUnit(static_cast<double>(c.state.probes), tuple_pushes);
      L["exec.results_per_tuple"] =
          PerUnit(static_cast<double>(c.op.results_emitted), tuple_pushes);
      L["exec.insert_allocs"] = static_cast<double>(c.state.insert_allocs);
      L["exec.probe_allocs"] = static_cast<double>(c.state.probe_allocs);
      L["exec.expand_allocs"] = static_cast<double>(c.state.expand_allocs);
      L["exec.index_compactions"] =
          static_cast<double>(c.state.index_compactions);
      L["exec.sweep_ns_per_punct"] =
          PerUnit(static_cast<double>(sweep.sum), punct_pushes);
      L["exec.removability_checks_per_punct"] =
          PerUnit(static_cast<double>(c.op.removability_checks), punct_pushes);
      L["exec.purge_sweeps"] = static_cast<double>(c.op.purge_sweeps);
      L["exec.tuples_purged"] = static_cast<double>(c.state.purged);
      L["exec.punctuations_stored"] =
          static_cast<double>(c.op.punctuations_stored);
      L["exec.punctuations_retired"] = static_cast<double>(
          c.punctuations_purged + c.op.punctuations_expired);
      L["exec.arena_bytes_reserved_peak"] = static_cast<double>(arena_peak);
      L["exec.arena_blocks_reclaimed"] =
          static_cast<double>(c.state.arena_blocks_reclaimed);
    }
  }
  return st;
}

void TimeAdmission(const RunContext& ctx, const ExecutorConfig& config,
                   size_t reps, LayerMetrics* layers) {
  const Workload& w = *ctx.w;
  std::vector<double> parse, safety, choose, create;
  size_t admitted = 0;
  for (const QueryDef& q : w.queries) admitted += q.copies;
  for (size_t r = 0; r < reps; ++r) {
    EmbeddedOptions opt;
    opt.config = config;
    std::vector<Instance> inst;
    AdmitTimes t;
    std::string error;
    if (!Admit(ctx, opt, &inst, &t, &error)) {
      std::fprintf(stderr, "admission failed: %s\n", error.c_str());
      return;
    }
    // Parse runs once per distinct query in Admit; a server parses
    // every registration, so scale it to per-admitted-query.
    parse.push_back(static_cast<double>(t.parse) * 1e-3 /
                    static_cast<double>(w.queries.size()));
    safety.push_back(static_cast<double>(t.safety) * 1e-3 / admitted);
    choose.push_back(static_cast<double>(t.choose) * 1e-3 / admitted);
    create.push_back(static_cast<double>(t.create) * 1e-3 / admitted);
  }
  (*layers)["query.parse_us"] = Median(parse);
  (*layers)["core.safety_check_us"] = Median(safety);
  (*layers)["plan.choose_us"] = Median(choose);
  (*layers)["exec.create_us"] = Median(create);
}

}  // namespace punctbench
