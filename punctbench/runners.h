// The runners that push a workload's trace through the program: the
// embedded serial and parallel executors (embedded.cc) and the
// ingestion server over loopback sockets or in-process
// (server.cc). A runner runs one round — admission, then every
// event of the trace, closed loop — and checks the round's outputs
// against the benchmark's reference.

#ifndef PUNCTBENCH_RUNNERS_H_
#define PUNCTBENCH_RUNNERS_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common.h"
#include "plan/cost_model.h"

namespace punctbench {

/// Everything a round needs that is built once per run, before any
/// timing: the program-side form of every event and the reference.
struct RunContext {
  const Workload* w = nullptr;
  std::vector<QueryReference> ref;
  std::vector<punctsafe::Tuple> tuples;        ///< by event (tuples only)
  std::vector<punctsafe::Punctuation> puncts;  ///< by event (puncts only)
  std::vector<std::string> lines;              ///< protocol line by event
  /// Plan-chooser statistics per query, measured on the trace.
  std::vector<punctsafe::WorkloadStats> stats;
  uint64_t tuple_events = 0;
  uint64_t punct_events = 0;
};

RunContext Prepare(const Workload& w);

struct EmbeddedOptions {
  ExecutorConfig config;
  bool parallel = false;
  /// Traced: observability on, every push timed, counters read back
  /// into the LayerMetrics.
  bool traced = false;
  /// Admit through QueryRegister's default single-MJoin path exactly
  /// as the server registry does, instead of parse + check + chooser.
  bool registry_admission = false;
  /// Run only this query, once (the parallel replay of multi-query
  /// workloads stays within the thread budget); SIZE_MAX = all copies
  /// of all queries.
  size_t only_query = static_cast<size_t>(-1);
  size_t setup_reps = 1;
};

/// One round through PlanExecutor / ParallelExecutor. `layers` (traced
/// runs only) receives the exec.* (and exec.parallel.*) metrics.
RoundStats EmbeddedRound(const RunContext& ctx, const EmbeddedOptions& opt,
                         LayerMetrics* layers);

/// Times the admission steps of every query separately (spec parse,
/// safety check, plan choice, executor construction) as the median
/// of `reps` repetitions, into query.parse_us, core.safety_check_us,
/// plan.choose_us and exec.create_us.
void TimeAdmission(const RunContext& ctx, const ExecutorConfig& config,
                   size_t reps, LayerMetrics* layers);

/// One round through a real IngestServer on a loopback port under the
/// registry's default configuration: one pipelining producer
/// connection, one subscriber connection. Traced runs also record the
/// socket run's per-line time for server.transport_ns_per_line.
RoundStats ServerRound(const RunContext& ctx, const RoundStats& mirror,
                       LayerMetrics* layers);

/// In-process replay of the same protocol lines (traced runs only):
/// ProcessLine end to end, then the parse functions, the registry
/// pushes, result taking and formatting timed one by one, plus the
/// registry's STATS counters.
void ServerReplay(const RunContext& ctx, LayerMetrics* layers);

}  // namespace punctbench

#endif  // PUNCTBENCH_RUNNERS_H_
