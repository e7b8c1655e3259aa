#include "exec/parallel_executor.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <thread>
#include <utility>

#include "exec/bounded_queue.h"
#include "exec/exchange.h"
#include "exec/operator_tree.h"
#include "exec/simd.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace punctsafe {

namespace {

constexpr size_t kNone = static_cast<size_t>(-1);

}  // namespace

// One message on a shard's input queue: a whole tuple batch OR a
// single stream element tagged with the input it belongs to, or a
// barrier marker (drain / checkpoint / recheck — processed after
// everything queued before it; the pushing thread guarantees all
// producers are quiescent first). Batches are the first-class hand-off
// unit (ExecutorConfig::batch_size): one queue operation moves the
// whole batch, and batches of one travel as plain elements so
// batch_size == 1 reproduces per-tuple execution exactly.
struct OpMessage {
  PipelineMarker marker = PipelineMarker::kNone;
  size_t input = 0;
  StreamElement element;
  // Whole-batch payload; when set, `element` is unused and the merge
  // ordering key is the batch's first row timestamp. shared_ptr keeps
  // the message copyable for the reorder deques; a batch still has
  // exactly one consumer at a time.
  std::shared_ptr<TupleBatch> batch;
  // Steady-clock stamp taken when the element entered the pipeline
  // edge (enqueue or emit-staging flush). Only populated while
  // observability is on; Deliver turns it into the consumer's latency
  // sample, so the measured latency covers queue wait + reorder
  // buffering + processing — for a batch, one stamp and one sample
  // (the per-tuple mean) cover every row. 0 when observability is off.
  int64_t enqueue_ns = 0;
};

namespace {

// Merge-ordering key: batches order by their first row's timestamp.
int64_t OrderTs(const OpMessage& m) {
  return m.batch != nullptr ? m.batch->first_timestamp()
                            : m.element.timestamp;
}

}  // namespace

// One shard worker: exclusive owner of one MJoinOperator replica.
struct ParallelExecutor::Worker {
  explicit Worker(size_t queue_capacity) : queue(queue_capacity) {}

  MJoinOperator* op = nullptr;
  BoundedQueue<OpMessage> queue;
  // Per-input FIFO reorder buffers for the timestamp merge (whole
  // messages, so the enqueue stamp survives buffering and the latency
  // sample charges reorder wait to this shard).
  std::vector<std::deque<OpMessage>> pending;
  std::thread thread;

  // This shard's observation point (null when observability is off).
  // The worker thread is the trace ring's single producer; producers
  // on other threads (router stalls) touch only its atomic counters.
  obs::OperatorObs* obs = nullptr;

  // Owning group index, and the downstream emit staging: result
  // tuples this shard produces are staged into one TupleBatch per
  // *parent* shard and flushed as one queue message per batch once
  // ExecutorConfig::batch_size rows are staged (the former hard-coded
  // kEmitFlushBatch = 128). Touched only by this worker's thread
  // (emits run inside op->Push*, on this thread); root-group workers
  // keep it empty. Flush-before-punctuation and flush-before-drain-ack
  // preserve the per-queue FIFO invariant that a punctuation never
  // overtakes the tuples it covers.
  size_t group = 0;
  std::vector<TupleBatch> emit_buf;
  size_t emit_buffered = 0;
  // Staged-rows flush trigger. Starts at ExecutorConfig::batch_size;
  // with adaptive_batch on, this worker retunes it from its own
  // operator's probe-run statistics at barrier boundaries (own-thread
  // state, so per-operator adaptation needs no synchronization).
  size_t emit_threshold = 1;
  uint64_t adapt_rows_seen = 0;
  uint64_t adapt_runs_seen = 0;

  // Routing-pressure counters for the rebalancer (maintained only
  // when ExecutorConfig::rebalance.enabled; obs counters stay tied to
  // observability). `routed` counts tuples enqueued to this shard,
  // `stalls` counts full-queue observations before a blocking push.
  std::atomic<uint64_t> routed{0};
  std::atomic<uint64_t> stalls{0};

  // Barrier handshake (drain / checkpoint / recheck markers all share
  // it). `drains_requested` is touched only by the driver thread;
  // `drains_done` is the worker's ack, published under `mu`.
  uint64_t drains_requested = 0;
  std::mutex mu;
  std::condition_variable drained_cv;
  uint64_t drains_done = 0;
};

// One logical operator: K contiguous shard workers behind a
// partitioning router, plus the output-punctuation merge barrier.
struct ParallelExecutor::OpGroup {
  OpGroup(size_t num_shards_in, size_t active_shards, PartitionSpec spec_in)
      : num_shards(num_shards_in),
        spec(std::move(spec_in)),
        shard_map(active_shards),
        aligner(num_shards_in) {}

  size_t first_worker = 0;  // index into workers_/operators_
  // Allocated shard workers. Broadcasts, barriers, and the aligner
  // always cover all of them; the ShardMap routes tuples to an active
  // subset (idle workers hold full punctuation stores and vote
  // immediately, so correctness is unaffected by headroom).
  size_t num_shards = 1;
  PartitionSpec spec;
  // Versioned slot -> shard routing table (exec/shard_map.h). Read
  // lock-free on every route; mutated only by the driver while the
  // group is parked at a kMigrate barrier.
  ShardMap shard_map;
  // Per-slot routed-tuple counters feeding the rebalancer (null
  // unless rebalance tracking is on and the group is partitioned);
  // `slot_base` is the driver-side snapshot the next pass diffs
  // against, `stall_base` likewise for the group's stall total.
  std::unique_ptr<std::atomic<uint64_t>[]> slot_routed;
  std::vector<uint64_t> slot_base;
  uint64_t stall_base = 0;
  // Drift backoff (RebalanceConfig::max_backoff_windows): after an
  // automatic migration the controller sits out `cooldown` check
  // windows for this group, doubling on each further migration and
  // resetting when a window comes in balanced.
  size_t rebalance_backoff = 1;
  size_t rebalance_cooldown = 0;
  // The operator's input layout, kept so migration can instantiate
  // fresh shard replicas (MJoinOperator::RestoreState requires a
  // freshly created operator).
  std::vector<LocalInput> node_inputs;
  // Serializes punctuation/drain broadcasts into this group so every
  // shard observes the same punctuation order (keeps the per-shard
  // punctuation stores identical; see docs/CONCURRENCY.md).
  std::mutex broadcast_mu;
  // Merge barrier for this group's *output* punctuations.
  PunctuationAligner aligner;
  // Parent wiring (kNone for the root group).
  size_t parent_group = kNone;
  size_t parent_input = 0;
};

Result<std::unique_ptr<ParallelExecutor>> ParallelExecutor::Create(
    const ContinuousJoinQuery& query, const SchemeSet& schemes,
    const PlanShape& shape, ExecutorConfig config) {
  // Exchange planning (exec/exchange.h): rewrite unshardable m-way
  // nodes into binary chains before anything is derived from the
  // shape — the executed shape (safety report, operator tree,
  // checkpoint fingerprint) is the decomposed one.
  PlanShape effective_shape =
      config.exchange ? DecomposeForExchange(query, shape) : shape;
  PUNCTSAFE_ASSIGN_OR_RETURN(PlanSafetyReport safety,
                             CheckPlanSafety(query, schemes, effective_shape));
  if (config.shards == 0) config.shards = 1;
  if (config.batch_size == 0) config.batch_size = 1;
  if (config.adaptive_batch && config.batch_size < 2) {
    // Adaptive tuning needs a batched starting point; 1 would pin the
    // per-tuple path forever.
    config.batch_size = TupleBatch::kDefaultCapacity;
  }
  config.mjoin.arena = config.arena;

  auto exec = std::unique_ptr<ParallelExecutor>(new ParallelExecutor());
  exec->query_ = query;
  exec->shape_ = std::move(effective_shape);
  exec->config_ = config;
  exec->safety_ = std::move(safety);
  exec->ingest_batch_ = TupleBatch(config.batch_size);
  exec->track_pressure_ = config.rebalance.enabled;

  PUNCTSAFE_ASSIGN_OR_RETURN(
      OperatorTree tree,
      BuildOperatorTree(exec->query_, schemes, exec->shape_, config.mjoin));

  ParallelExecutor* raw = exec.get();
  const size_t num_groups = tree.operators.size();
  // Elasticity headroom: allocate workers up to rebalance.max_shards
  // per partitionable group; the ShardMap initially activates
  // config.shards of them.
  const size_t allocated_shards =
      config.rebalance.enabled
          ? std::max(config.shards, config.rebalance.max_shards)
          : config.shards;
  for (size_t j = 0; j < num_groups; ++j) {
    PartitionSpec spec =
        ComputePartitionSpec(exec->query_, tree.node_inputs[j]);
    size_t shards = spec.partitionable ? allocated_shards : 1;
    size_t active = spec.partitionable ? config.shards : 1;
    auto group = std::make_unique<OpGroup>(shards, active, std::move(spec));
    group->first_worker = exec->workers_.size();
    group->node_inputs = tree.node_inputs[j];
    if (exec->track_pressure_ && shards > 1) {
      group->slot_routed =
          std::make_unique<std::atomic<uint64_t>[]>(ShardMap::kNumSlots);
      for (size_t i = 0; i < ShardMap::kNumSlots; ++i) {
        group->slot_routed[i].store(0, std::memory_order_relaxed);
      }
      group->slot_base.assign(ShardMap::kNumSlots, 0);
    }
    for (size_t s = 0; s < shards; ++s) {
      std::unique_ptr<MJoinOperator> op;
      if (s == 0) {
        op = std::move(tree.operators[j]);
      } else {
        // Shard replicas: same inputs + config, so identical layouts,
        // purge plans, and propagatable signatures — only the stored
        // tuples differ (a key-disjoint slice each).
        PUNCTSAFE_ASSIGN_OR_RETURN(
            op, MJoinOperator::Create(exec->query_, tree.node_inputs[j],
                                      config.mjoin));
      }
      auto worker = std::make_unique<Worker>(config.queue_capacity);
      worker->op = op.get();
      worker->pending.resize(op->num_inputs());
      exec->operators_.push_back(std::move(op));
      exec->workers_.push_back(std::move(worker));
    }
    exec->groups_.push_back(std::move(group));
  }

  // Wiring: every shard emits through EmitFromShard, which hashes
  // result tuples into the parent group's shard queues and funnels
  // output punctuations through the group's aligner. (Executed on the
  // emitting shard's worker thread; the root's results land in the
  // executor's sink.)
  for (size_t j = 0; j < num_groups; ++j) {
    const OperatorTree::ParentEdge& edge = tree.parents[j];
    if (edge.parent_op != OperatorTree::ParentEdge::kNoParent) {
      exec->groups_[j]->parent_group = edge.parent_op;
      exec->groups_[j]->parent_input = edge.parent_input;
    }
    OpGroup& group = *exec->groups_[j];
    for (size_t s = 0; s < group.num_shards; ++s) {
      Worker& worker = *exec->workers_[group.first_worker + s];
      worker.group = j;
      worker.emit_threshold = config.batch_size;
      if (group.parent_group != kNone) {
        worker.emit_buf.assign(exec->groups_[group.parent_group]->num_shards,
                               TupleBatch(config.batch_size));
      }
      exec->operators_[group.first_worker + s]->SetEmitter(
          [raw, j, s](const StreamElement& e) { raw->EmitFromShard(j, s, e); });
      if (config.batch_size > 1) {
        // Batch-granular result channel; batch_size == 1 leaves it
        // unset so EmitBatch falls back per element and the wiring is
        // bit-identical to tuple-at-a-time delivery.
        exec->operators_[group.first_worker + s]->SetBatchEmitter(
            [raw, j, s](TupleBatch& b) { raw->EmitBatchFromShard(j, s, b); });
      }
    }
  }

  exec->progress_.resize(query.num_streams());
  exec->leaf_route_.assign(query.num_streams(), {kNone, 0});
  for (size_t s = 0; s < query.num_streams(); ++s) {
    exec->leaf_route_[s] = tree.leaf_route[s];
  }

  // Observation points: one per shard worker, registered before any
  // worker thread starts (the registry is append-only afterwards).
  if (obs::kCompiled && config.observe.enabled) {
    exec->obs_ = std::make_unique<obs::Observability>(config.observe);
    for (size_t j = 0; j < num_groups; ++j) {
      OpGroup& group = *exec->groups_[j];
      for (size_t s = 0; s < group.num_shards; ++s) {
        obs::OperatorObs* point = exec->obs_->AddOperator(
            static_cast<uint16_t>(j), static_cast<uint32_t>(s));
        exec->workers_[group.first_worker + s]->obs = point;
        exec->operators_[group.first_worker + s]->SetObserver(point);
      }
    }
  }

  for (size_t i = 0; i < exec->workers_.size(); ++i) {
    exec->workers_[i]->thread =
        std::thread([raw, i] { raw->WorkerLoop(i); });
  }
  return exec;
}

ParallelExecutor::~ParallelExecutor() { Stop(); }

void ParallelExecutor::EmitFromShard(size_t group_idx, size_t shard,
                                     const StreamElement& element) {
  OpGroup& group = *groups_[group_idx];
  if (group.parent_group == kNone) {
    // Root: tuples are results; punctuations reach the consumer app.
    if (!element.is_tuple()) return;
    num_results_.fetch_add(1, std::memory_order_relaxed);
    if (config_.keep_results) {
      std::lock_guard<std::mutex> lock(results_mu_);
      kept_results_.push_back(element.tuple);
    }
    return;
  }
  OpGroup& parent = *groups_[group.parent_group];
  Worker& self = *workers_[group.first_worker + shard];
  if (element.is_tuple()) {
    // Stage into the per-parent-shard batch; the flush moves each
    // staged batch with one queue operation instead of one per tuple.
    // This re-hash onto the parent's partition key is the
    // repartitioning exchange (exec/exchange.h): child and parent may
    // shard on different equivalence classes. A failed flush means
    // Stop() closed the pipeline; elements are dropped (the
    // non-graceful path).
    size_t target = RouteShard(parent, group.parent_input, element.tuple);
    self.emit_buf[target].Append(element.tuple, element.timestamp);
    if (++self.emit_buffered >= self.emit_threshold) FlushEmits(self);
    return;
  }
  // Output punctuation: flush this shard's staged tuples first so the
  // punctuation cannot overtake them in the parent queues. Every shard
  // flushes before its aligner arrival, and arrivals happen-before the
  // completing shard's broadcast, so all covered tuples of all shards
  // are queued ahead of the forwarded punctuation.
  FlushEmits(self);
  // The punctuation is valid for the merged output only once every
  // shard of this group has emitted it — until then another shard may
  // still hold (and later emit results from) matching tuples.
  int64_t forward_ts = element.timestamp;
  if (group.num_shards > 1 &&
      !group.aligner.Arrive(shard, element.punctuation, element.timestamp,
                            &forward_ts)) {
    return;
  }
  Broadcast(parent, group.parent_input,
            StreamElement::OfPunctuation(element.punctuation, forward_ts));
}

void ParallelExecutor::EmitBatchFromShard(size_t group_idx, size_t shard,
                                          TupleBatch& batch) {
  OpGroup& group = *groups_[group_idx];
  if (group.parent_group == kNone) {
    // Root: the whole batch is results. One atomic add and (when
    // results are kept) one lock section per batch instead of per row.
    num_results_.fetch_add(batch.size(), std::memory_order_relaxed);
    if (config_.keep_results) {
      std::lock_guard<std::mutex> lock(results_mu_);
      batch.CopyRowsTo(&kept_results_);  // shares the result block
    }
    return;
  }
  // Interior: route and stage row by row (rows of one result batch
  // generally scatter across parent shards), flushing at the same
  // threshold as the per-element path so queue granularity and
  // batch-boundary ordering are unchanged.
  OpGroup& parent = *groups_[group.parent_group];
  Worker& self = *workers_[group.first_worker + shard];
  for (size_t i = 0; i < batch.size(); ++i) {
    size_t target = RouteShard(parent, group.parent_input, batch.tuple(i));
    self.emit_buf[target].Append(batch.tuple(i), batch.timestamp(i));
    if (++self.emit_buffered >= self.emit_threshold) FlushEmits(self);
  }
}

void ParallelExecutor::FlushEmits(Worker& worker) {
  if (worker.emit_buffered == 0) return;
  const size_t input = groups_[worker.group]->parent_input;
  OpGroup& parent = *groups_[groups_[worker.group]->parent_group];
  // One clock read covers the whole flush (per-batch sampling); the
  // consumer's latency sample then charges queue wait from here.
  const int64_t now =
      (obs::kCompiled && obs_ != nullptr) ? obs::NowNs() : 0;
  for (size_t s = 0; s < worker.emit_buf.size(); ++s) {
    TupleBatch& staged = worker.emit_buf[s];
    if (staged.empty()) continue;
    Worker& target = *workers_[parent.first_worker + s];
    NotePressure(target, staged.size());
    if (obs::kCompiled && obs_ != nullptr) {
      target.obs->IncRouted(staged.size());
    }
    OpMessage message;
    message.input = input;
    message.enqueue_ns = now;
    if (staged.size() == 1) {
      // Batches of one travel as plain elements: batch_size == 1
      // reproduces the per-tuple delivery path exactly.
      message.element =
          StreamElement::OfTuple(staged.tuple(0), staged.timestamp(0));
    } else {
      message.batch = std::make_shared<TupleBatch>(std::move(staged));
    }
    staged.Clear();  // moved-from state resets to a valid empty batch
    target.queue.Push(std::move(message));
  }
  worker.emit_buffered = 0;
}

size_t ParallelExecutor::RouteShard(OpGroup& group, size_t input,
                                    const Tuple& tuple) {
  if (group.num_shards <= 1) return 0;
  const uint64_t h = group.spec.KeyHash(input, tuple);
  if (group.slot_routed != nullptr) {
    group.slot_routed[ShardMap::SlotOf(h)].fetch_add(
        1, std::memory_order_relaxed);
  }
  return group.shard_map.ShardOf(h);
}

void ParallelExecutor::NotePressure(Worker& target, uint64_t routed) {
  if (!track_pressure_) return;
  target.routed.fetch_add(routed, std::memory_order_relaxed);
  // Same racy-but-useful stall heuristic as the obs counter: a full
  // reading here means the blocking push almost certainly waited.
  if (target.queue.size() >= target.queue.capacity()) {
    target.stalls.fetch_add(1, std::memory_order_relaxed);
  }
}

bool ParallelExecutor::RouteTuple(OpGroup& group, size_t input,
                                  const StreamElement& element) {
  size_t shard = RouteShard(group, input, element.tuple);
  Worker& target = *workers_[group.first_worker + shard];
  NotePressure(target, 1);
  OpMessage message{PipelineMarker::kNone, input, element, 0};
  if (obs::kCompiled && obs_ != nullptr) {
    message.enqueue_ns = obs::NowNs();
    target.obs->IncRouted();
    // Stall heuristic: the size check is racy against the consumer,
    // but a full reading here means the blocking Push below almost
    // certainly waited — good enough for a backpressure counter.
    if (target.queue.size() >= target.queue.capacity()) {
      target.obs->IncStall();
    }
  }
  return target.queue.Push(std::move(message));
}

bool ParallelExecutor::Broadcast(OpGroup& group, size_t input,
                                 const StreamElement& element) {
  // Holding broadcast_mu across the (possibly blocking) pushes is
  // deadlock-free: consumers of these queues never take this mutex —
  // they only take their *parent* group's, and the plan is a tree, so
  // the wait chain ends at the root sink, which always accepts.
  std::lock_guard<std::mutex> lock(group.broadcast_mu);
  bool ok = true;
  for (size_t s = 0; s < group.num_shards; ++s) {
    Worker& target = *workers_[group.first_worker + s];
    OpMessage message{PipelineMarker::kNone, input, element, 0};
    if (obs::kCompiled && obs_ != nullptr) {
      message.enqueue_ns = obs::NowNs();
      if (target.queue.size() >= target.queue.capacity()) {
        target.obs->IncStall();
      }
    }
    ok &= target.queue.Push(std::move(message));
  }
  return ok;
}

void ParallelExecutor::WorkerLoop(size_t index) {
  Worker& worker = *workers_[index];
  while (true) {
    // Batched pop: one lock acquisition per burst (see
    // BoundedQueue::PopAll), and the timestamp merge below sees as
    // much context as possible.
    std::optional<std::deque<OpMessage>> batch = worker.queue.PopAll();
    if (!batch.has_value()) break;  // closed and fully drained
    if (obs::kCompiled && worker.obs != nullptr) {
      worker.obs->RecordQueueBatch(batch->size());
    }

    // Barriers in this batch. The handshake admits at most one
    // outstanding barrier per worker (the driver waits for acks before
    // issuing the next), but the counting stays general. All kinds
    // require processing everything queued before the marker; they
    // differ only in the action run before the ack: drains sweep,
    // rechecks re-evaluate pending propagations, checkpoints do
    // nothing (pure quiescence so the driver can observe state).
    size_t barriers = 0;
    size_t drains = 0;
    bool recheck = false;
    int64_t barrier_ts = 0;
    for (OpMessage& m : *batch) {
      if (m.marker != PipelineMarker::kNone) {
        ++barriers;
        barrier_ts = m.element.timestamp;
        if (m.marker == PipelineMarker::kDrain) ++drains;
        if (m.marker == PipelineMarker::kRecheck) recheck = true;
      } else {
        worker.pending[m.input].push_back(std::move(m));
      }
    }

    ProcessPending(worker);

    if (drains > 0) {
      worker.op->Sweep(barrier_ts);
      SampleHighWater();
      if (obs::kCompiled && worker.obs != nullptr) {
        worker.obs->Note(obs::TraceKind::kDrain, drains);
      }
    }
    if (recheck) {
      // Restore phase 2: runs on this worker thread so re-emitted
      // punctuations flow through the normal aligner/queue path.
      worker.op->RecheckPropagations(barrier_ts);
      SampleHighWater();
    }
    // Flush staged downstream emits at every batch boundary — and,
    // crucially, *before* acking a barrier: the barrier contract
    // promises that everything this shard will ever emit for the
    // barriered epoch is already in the parent's queues when the ack
    // lands.
    FlushEmits(worker);
    if (barriers > 0 && config_.adaptive_batch && !worker.emit_buf.empty()) {
      // Per-operator adaptive batch: with the staging flushed, retune
      // this worker's emit threshold from its operator's probe-run
      // delta (worker-owned state on the worker's own thread). A
      // migration swaps in a fresh operator whose stats restart at
      // zero, so a shrinking total just resets the baseline.
      const TupleStore::ProbeRunStats total = worker.op->ProbeRunStatsTotal();
      if (total.rows < worker.adapt_rows_seen ||
          total.runs < worker.adapt_runs_seen) {
        worker.adapt_rows_seen = total.rows;
        worker.adapt_runs_seen = total.runs;
      } else {
        const uint64_t rows = total.rows - worker.adapt_rows_seen;
        const uint64_t runs = total.runs - worker.adapt_runs_seen;
        worker.adapt_rows_seen = total.rows;
        worker.adapt_runs_seen = total.runs;
        const size_t target =
            AdaptiveBatchTarget(rows, runs, worker.emit_threshold);
        if (target != worker.emit_threshold) {
          worker.emit_threshold = target;
          for (TupleBatch& b : worker.emit_buf) b = TupleBatch(target);
        }
      }
    }
    if (barriers > 0) {
      {
        std::lock_guard<std::mutex> lock(worker.mu);
        worker.drains_done += barriers;
      }
      worker.drained_cv.notify_all();
    }
  }
  // Shutdown: deliver what was already buffered locally (downstream
  // pushes may fail once their queues close; that is fine, Stop() is
  // the non-graceful path).
  ProcessPending(worker);
  FlushEmits(worker);
}

void ParallelExecutor::ProcessPending(Worker& worker) {
  // Deliver buffered elements in ascending timestamp order across
  // inputs (ties: lowest input index). Per-input order is preserved by
  // the FIFO buffers; the cross-input ordering is best-effort only —
  // an empty buffer is never waited on.
  while (true) {
    size_t best = kNone;
    int64_t best_ts = 0;
    for (size_t i = 0; i < worker.pending.size(); ++i) {
      if (worker.pending[i].empty()) continue;
      int64_t ts = OrderTs(worker.pending[i].front());
      if (best == kNone || ts < best_ts) {
        best = i;
        best_ts = ts;
      }
    }
    if (best == kNone) return;
    OpMessage message = std::move(worker.pending[best].front());
    worker.pending[best].pop_front();
    Deliver(worker, message);
  }
}

void ParallelExecutor::Deliver(Worker& worker, const OpMessage& message) {
  if (message.batch != nullptr) {
    // Whole-batch delivery: one PushBatch call, and per-batch
    // observation sampling — a single clock read closes the latency
    // sample for every row (recorded as the per-tuple mean) and one
    // ring event carries the batch's result count.
    TupleBatch& batch = *message.batch;
    if (obs::kCompiled && worker.obs != nullptr) {
      const uint64_t results_before =
          worker.op->metrics().results_emitted.load(std::memory_order_relaxed);
      worker.op->PushBatch(message.input, batch);
      const int64_t now = obs::NowNs();
      if (message.enqueue_ns != 0 && !batch.empty()) {
        worker.obs->RecordLatencyNs((now - message.enqueue_ns) /
                                    static_cast<int64_t>(batch.size()));
      }
      worker.obs->NoteAt(
          now, obs::TraceKind::kTupleIn, message.input,
          worker.op->metrics().results_emitted.load(
              std::memory_order_relaxed) -
              results_before);
    } else {
      worker.op->PushBatch(message.input, batch);
    }
    SampleHighWater();
    return;
  }
  const StreamElement& element = message.element;
  if (element.is_tuple()) {
    if (obs::kCompiled && worker.obs != nullptr) {
      const uint64_t results_before =
          worker.op->metrics().results_emitted.load(std::memory_order_relaxed);
      worker.op->PushTuple(message.input, element.tuple, element.timestamp);
      // Latency sample: pipeline-edge enqueue -> processed by this
      // shard (queue wait + reorder buffering + the operator's own
      // work). One clock read covers both the sample and the trace.
      const int64_t now = obs::NowNs();
      if (message.enqueue_ns != 0) {
        worker.obs->RecordLatencyNs(now - message.enqueue_ns);
      }
      worker.obs->NoteAt(
          now, obs::TraceKind::kTupleIn, message.input,
          worker.op->metrics().results_emitted.load(
              std::memory_order_relaxed) -
              results_before);
    } else {
      worker.op->PushTuple(message.input, element.tuple, element.timestamp);
    }
  } else {
    worker.op->PushPunctuation(message.input, element.punctuation,
                               element.timestamp);
  }
  SampleHighWater();
}

void ParallelExecutor::SampleHighWater() {
  size_t tuples = 0;
  size_t puncts = 0;
  for (const auto& group : groups_) {
    size_t group_puncts = 0;
    for (size_t s = 0; s < group->num_shards; ++s) {
      const MJoinOperator& op = *operators_[group->first_worker + s];
      for (size_t i = 0; i < op.num_inputs(); ++i) {
        tuples += op.state_metrics(i).live.load(std::memory_order_relaxed);
      }
      // Punctuations are broadcast: every shard holds the full store,
      // so the logical count is the max over shards, not the sum.
      group_puncts = std::max(
          group_puncts,
          op.metrics().punctuations_live.load(std::memory_order_relaxed));
    }
    puncts += group_puncts;
  }
  internal::AtomicMax(tuple_high_water_, tuples);
  internal::AtomicMax(punct_high_water_, puncts);
}

Status ParallelExecutor::Push(const TraceEvent& event) {
  auto idx = query_.StreamIndex(event.stream);
  if (!idx.has_value()) {
    return Status::NotFound(
        StrCat("stream '", event.stream, "' not part of ", query_.ToString()));
  }
  auto [group_idx, input] = leaf_route_[*idx];
  if (group_idx == kNone) {
    return Status::Internal(
        StrCat("stream '", event.stream, "' has no leaf route"));
  }
  OpGroup& group = *groups_[group_idx];
  if (event.element.is_tuple() && config_.batch_size > 1) {
    // Batched ingestion: accumulate the run, flush on stream change /
    // full batch. The tuple is accepted into the buffer now; a flush
    // that fails later means Stop() closed the pipeline.
    if (!ingest_batch_.empty() && ingest_stream_ != *idx) {
      if (!FlushIngest()) {
        return Status::FailedPrecondition("parallel executor is stopped");
      }
    }
    ingest_stream_ = *idx;
    ingest_batch_.Append(event.element.tuple, event.element.timestamp);
    NoteProgress(*idx, event.element.timestamp);
    if (ingest_batch_.full() && !FlushIngest()) {
      return Status::FailedPrecondition("parallel executor is stopped");
    }
    return Status::OK();
  }
  if (!event.element.is_tuple() && !FlushIngest()) {
    return Status::FailedPrecondition("parallel executor is stopped");
  }
  bool ok = event.element.is_tuple()
                ? RouteTuple(group, input, event.element)
                : Broadcast(group, input, event.element);
  if (!ok) {
    return Status::FailedPrecondition("parallel executor is stopped");
  }
  NoteProgress(*idx, event.element.timestamp);
  if (!event.element.is_tuple()) {
    MaybeAutoCheckpoint(event.element.timestamp);
    MaybeRebalance(event.element.timestamp);
  }
  return Status::OK();
}

bool ParallelExecutor::FlushIngest() {
  if (ingest_batch_.empty()) return true;
  auto [group_idx, input] = leaf_route_[ingest_stream_];
  OpGroup& group = *groups_[group_idx];
  bool ok = true;
  if (group.num_shards > 1) {
    // Single-pass scatter into per-shard sub-batches (routed through
    // the group's ShardMap, counting slot loads for the rebalancer in
    // the same pass), then one queue message per non-empty shard.
    ScatterBatch(group.spec, group.shard_map, input, ingest_batch_,
                 group.num_shards, &scatter_scratch_,
                 group.slot_routed.get());
    for (size_t s = 0; s < group.num_shards; ++s) {
      if (scatter_scratch_[s].empty()) continue;
      ok &= PushIngestBatch(group, s, input, &scatter_scratch_[s]);
    }
  } else {
    ok = PushIngestBatch(group, 0, input, &ingest_batch_);
  }
  ingest_batch_.Clear();
  return ok;
}

bool ParallelExecutor::PushIngestBatch(OpGroup& group, size_t shard,
                                       size_t input, TupleBatch* batch) {
  Worker& target = *workers_[group.first_worker + shard];
  NotePressure(target, batch->size());
  OpMessage message;
  message.input = input;
  if (obs::kCompiled && obs_ != nullptr) {
    message.enqueue_ns = obs::NowNs();
    target.obs->IncRouted(batch->size());
    if (target.queue.size() >= target.queue.capacity()) {
      target.obs->IncStall();
    }
  }
  if (batch->size() == 1) {
    // Scatter can strand a single row on a shard; it rides as a plain
    // element message (same delivery path as batch_size == 1).
    message.element =
        StreamElement::OfTuple(batch->tuple(0), batch->timestamp(0));
  } else {
    message.batch = std::make_shared<TupleBatch>(std::move(*batch));
  }
  batch->Clear();
  return target.queue.Push(std::move(message));
}

void ParallelExecutor::PushTuple(size_t stream, const Tuple& tuple,
                                 int64_t ts) {
  if (config_.batch_size > 1) {
    if (!ingest_batch_.empty() && ingest_stream_ != stream) {
      if (!FlushIngest()) return;
    }
    ingest_stream_ = stream;
    ingest_batch_.Append(tuple, ts);
    NoteProgress(stream, ts);
    if (ingest_batch_.full()) FlushIngest();
    return;
  }
  auto [group_idx, input] = leaf_route_[stream];
  if (RouteTuple(*groups_[group_idx], input,
                 StreamElement::OfTuple(tuple, ts))) {
    NoteProgress(stream, ts);
  }
}

void ParallelExecutor::PushPunctuation(size_t stream,
                                       const Punctuation& punctuation,
                                       int64_t ts) {
  // Batch-boundary ordering: buffered tuples reach the shard queues
  // before the punctuation is broadcast.
  if (!FlushIngest()) return;
  auto [group_idx, input] = leaf_route_[stream];
  if (Broadcast(*groups_[group_idx], input,
                StreamElement::OfPunctuation(punctuation, ts))) {
    NoteProgress(stream, ts);
    MaybeAutoCheckpoint(ts);
    MaybeRebalance(ts);
  }
}

void ParallelExecutor::NoteProgress(size_t stream, int64_t ts) {
  InputProgress& p = progress_[stream];
  ++p.events_consumed;
  p.watermark_ts = std::max(p.watermark_ts, ts);
}

void ParallelExecutor::MaybeAutoCheckpoint(int64_t ts) {
  if (config_.checkpoint.interval_punctuations == 0) return;
  if (++punctuations_since_checkpoint_ <
      config_.checkpoint.interval_punctuations) {
    return;
  }
  punctuations_since_checkpoint_ = 0;
  if (config_.checkpoint.path.empty()) return;
  Result<StateSnapshot> snap = Checkpoint(ts);
  Status status = snap.ok()
                      ? WriteSnapshotFile(*snap, config_.checkpoint.path)
                      : snap.status();
  if (!status.ok()) {
    PUNCTSAFE_LOG(Warning) << "automatic checkpoint to '"
                           << config_.checkpoint.path
                           << "' failed: " << status.ToString();
  }
}

Status ParallelExecutor::BarrierAll(PipelineMarker marker, int64_t now) {
  if (stopped_.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition("parallel executor is stopped");
  }
  // The barrier contract covers everything pushed so far — including
  // tuples still sitting in the driver's ingest buffer.
  if (!FlushIngest()) {
    return Status::FailedPrecondition("parallel executor is stopped");
  }
  // Leaves-first (groups_ is post-order, children before parents):
  // once every shard of operator j's children has acked its marker,
  // every element they will ever emit is already in j's shard queues,
  // so j's markers are provably last and their acks mean the whole
  // group is caught up (and swept / rechecked, per marker kind).
  // Markers go through Broadcast-style pushes under broadcast_mu so
  // they order consistently against punctuation broadcasts.
  for (size_t j = 0; j < groups_.size(); ++j) {
    OpGroup& group = *groups_[j];
    std::vector<uint64_t> targets(group.num_shards);
    for (size_t s = 0; s < group.num_shards; ++s) {
      targets[s] = ++workers_[group.first_worker + s]->drains_requested;
    }
    {
      std::lock_guard<std::mutex> lock(group.broadcast_mu);
      for (size_t s = 0; s < group.num_shards; ++s) {
        OpMessage message;
        message.marker = marker;
        message.element.timestamp = now;
        if (!workers_[group.first_worker + s]->queue.Push(
                std::move(message))) {
          return Status::FailedPrecondition("parallel executor is stopped");
        }
      }
    }
    for (size_t s = 0; s < group.num_shards; ++s) {
      Worker& worker = *workers_[group.first_worker + s];
      std::unique_lock<std::mutex> lock(worker.mu);
      worker.drained_cv.wait(
          lock, [&] { return worker.drains_done >= targets[s]; });
    }
  }
  return Status::OK();
}

Status ParallelExecutor::Drain(int64_t now) {
  PUNCTSAFE_RETURN_IF_ERROR(BarrierAll(PipelineMarker::kDrain, now));
  // Quiescent: worker operator state is published to this thread by
  // the barrier acks, so the driver can retune its ingest batch from
  // the observed probe-run structure.
  MaybeAdaptIngest();
  return Status::OK();
}

Result<StateSnapshot> ParallelExecutor::Checkpoint(int64_t now) {
  // After the barrier every worker has processed everything queued
  // ahead of its marker and is parked on an empty queue; the ack under
  // worker.mu publishes its operator mutations to this thread, so the
  // driver can read shard state directly.
  PUNCTSAFE_RETURN_IF_ERROR(BarrierAll(PipelineMarker::kCheckpoint, now));
  StateSnapshot snap;
  snap.fingerprint = PlanFingerprint(query_, shape_);
  snap.progress = progress_;
  snap.num_results = num_results();
  snap.results = kept_results();
  snap.tuple_high_water = tuple_high_water();
  snap.punct_high_water = punctuation_high_water();
  snap.operators.reserve(groups_.size());
  for (const auto& group : groups_) {
    // Fold the shard captures into the logical operator's snapshot —
    // the same monoid the split/merge laws are stated over, so a
    // K-shard checkpoint equals the serial executor's byte-for-byte
    // once canonicalized.
    OperatorStateSnapshot merged =
        operators_[group->first_worker]->CaptureState();
    for (size_t s = 1; s < group->num_shards; ++s) {
      merged = MergeOperatorSnapshots(
          merged, operators_[group->first_worker + s]->CaptureState());
    }
    snap.operators.push_back(std::move(merged));
  }
  CanonicalizeSnapshot(&snap);
  return snap;
}

Status ParallelExecutor::RestoreState(const StateSnapshot& snapshot) {
  if (stopped_.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition("parallel executor is stopped");
  }
  if (snapshot.fingerprint != PlanFingerprint(query_, shape_)) {
    return Status::InvalidArgument(
        StrCat("snapshot fingerprint '", snapshot.fingerprint,
               "' does not match this plan '",
               PlanFingerprint(query_, shape_), "'"));
  }
  if (snapshot.operators.size() != groups_.size()) {
    return Status::InvalidArgument(
        StrCat("snapshot has ", snapshot.operators.size(),
               " operators but the plan has ", groups_.size()));
  }
  // Phase 1: rebuild each shard's state directly from the driver
  // thread. The fresh-executor contract means nothing has been queued,
  // so every worker is parked in PopAll and never touches its operator
  // concurrently; the phase-2 barrier's queue pushes publish these
  // writes to the worker threads.
  for (size_t j = 0; j < groups_.size(); ++j) {
    PUNCTSAFE_RETURN_IF_ERROR(
        RestoreGroupFromLogical(*groups_[j], snapshot.operators[j]));
  }
  progress_ = snapshot.progress;
  progress_.resize(query_.num_streams());
  num_results_.store(snapshot.num_results, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(results_mu_);
    kept_results_ = snapshot.results;
  }
  tuple_high_water_.store(snapshot.tuple_high_water,
                          std::memory_order_relaxed);
  punct_high_water_.store(snapshot.punct_high_water,
                          std::memory_order_relaxed);
  // Phase 2: pending propagations were replicated to every shard, but
  // a shard that had already cleared (and voted at the aligner) before
  // the snapshot must re-emit — the crash discarded its vote. The
  // recheck barrier runs on the worker threads, leaves-first, so those
  // re-emissions flow through the normal aligner/queue path and the
  // aligner completes exactly once when the last shard clears during
  // replay (docs/RECOVERY.md).
  int64_t now = 0;
  for (const InputProgress& p : progress_) {
    now = std::max(now, p.watermark_ts);
  }
  return BarrierAll(PipelineMarker::kRecheck, now);
}

Status ParallelExecutor::RestoreGroupFromLogical(
    OpGroup& group, const OperatorStateSnapshot& logical) {
  const size_t num_inputs = operators_[group.first_worker]->num_inputs();
  if (logical.inputs.size() != num_inputs) {
    return Status::InvalidArgument(
        StrCat("snapshot operator has ", logical.inputs.size(),
               " inputs but the operator has ", num_inputs));
  }
  // Split the logical snapshot across the group's shards: tuples by
  // the group's ShardMap over the partition-key hash (the same route
  // live tuples take, so restored and replayed tuples agree on their
  // shard), punctuations / pending / sweep counters replicated
  // (broadcast state — every shard holds the full set), summed
  // counters and result credits on shard 0 only.
  std::vector<OperatorStateSnapshot> pieces(group.num_shards);
  for (size_t s = 0; s < group.num_shards; ++s) {
    OperatorStateSnapshot& piece = pieces[s];
    piece.inputs.resize(num_inputs);
    piece.pending = logical.pending;
    piece.punctuations_purged = logical.punctuations_purged;
    piece.punctuations_since_sweep = logical.punctuations_since_sweep;
    piece.op_metrics = logical.op_metrics;
    if (s != 0) {
      piece.op_metrics.results_emitted = 0;
      piece.op_metrics.removability_checks = 0;
    }
    for (size_t k = 0; k < num_inputs; ++k) {
      piece.inputs[k].punctuations = logical.inputs[k].punctuations;
      if (s == 0) {
        piece.inputs[k].state_metrics = logical.inputs[k].state_metrics;
        piece.inputs[k].state_metrics.live = 0;  // recomputed below
      }
    }
  }
  for (size_t k = 0; k < num_inputs; ++k) {
    for (const Tuple& tuple : logical.inputs[k].tuples) {
      size_t target =
          group.num_shards > 1
              ? group.shard_map.ShardOf(group.spec.KeyHash(k, tuple))
              : 0;
      pieces[target].inputs[k].tuples.push_back(tuple);
      pieces[target].inputs[k].state_metrics.live += 1;
    }
    // Gauge drift (a hand-edited snapshot whose live gauge disagrees
    // with its tuple list) lands on shard 0, mirroring SplitSnapshot.
    const uint64_t listed = logical.inputs[k].tuples.size();
    if (logical.inputs[k].state_metrics.live > listed) {
      pieces[0].inputs[k].state_metrics.live +=
          logical.inputs[k].state_metrics.live - listed;
    }
  }
  for (size_t s = 0; s < group.num_shards; ++s) {
    PUNCTSAFE_RETURN_IF_ERROR(
        operators_[group.first_worker + s]->RestoreState(pieces[s]));
  }
  return Status::OK();
}

void ParallelExecutor::MaybeRebalance(int64_t ts) {
  if (!config_.rebalance.enabled ||
      config_.rebalance.interval_punctuations == 0) {
    return;
  }
  if (++punctuations_since_rebalance_ <
      config_.rebalance.interval_punctuations) {
    return;
  }
  punctuations_since_rebalance_ = 0;
  Status status = RebalancePass(ts, /*target_active=*/0, /*force=*/false);
  if (!status.ok()) {
    PUNCTSAFE_LOG(Warning) << "automatic shard rebalance failed: "
                           << status.ToString();
  }
}

Status ParallelExecutor::RebalanceNow(int64_t now) {
  if (!config_.rebalance.enabled) {
    return Status::FailedPrecondition(
        "RebalanceNow requires ExecutorConfig::rebalance.enabled "
        "(the routed-load counters do not exist otherwise)");
  }
  return RebalancePass(now, /*target_active=*/0, /*force=*/true);
}

Status ParallelExecutor::ResizeShards(size_t active, int64_t now) {
  if (!config_.rebalance.enabled) {
    return Status::FailedPrecondition(
        "ResizeShards requires ExecutorConfig::rebalance.enabled");
  }
  if (active == 0) {
    return Status::InvalidArgument("ResizeShards: active must be >= 1");
  }
  return RebalancePass(now, active, /*force=*/true);
}

Status ParallelExecutor::RebalancePass(int64_t now, size_t target_active,
                                       bool force) {
  // Plan first from the driver-visible counters (relaxed reads are
  // fine: the plan is heuristic; the authoritative state move happens
  // under the barrier). Nothing pays for a barrier unless some group
  // actually wants to move.
  struct PlannedMigration {
    size_t group = 0;
    std::vector<uint32_t> assignment;
    size_t active = 0;
  };
  std::vector<PlannedMigration> plan;
  for (size_t j = 0; j < groups_.size(); ++j) {
    OpGroup& group = *groups_[j];
    if (group.num_shards <= 1 || group.slot_routed == nullptr) continue;
    const size_t current_active = group.shard_map.num_shards();
    size_t active = target_active == 0
                        ? current_active
                        : std::min(target_active, group.num_shards);

    // Load deltas since the last pass, per slot and per active shard.
    std::vector<uint64_t> slot_delta(ShardMap::kNumSlots, 0);
    uint64_t routed_delta = 0;
    for (size_t i = 0; i < ShardMap::kNumSlots; ++i) {
      const uint64_t total =
          group.slot_routed[i].load(std::memory_order_relaxed);
      slot_delta[i] = total - group.slot_base[i];
      routed_delta += slot_delta[i];
    }
    uint64_t stall_total = 0;
    for (size_t s = 0; s < group.num_shards; ++s) {
      stall_total += workers_[group.first_worker + s]->stalls.load(
          std::memory_order_relaxed);
    }
    const uint64_t stall_delta = stall_total - group.stall_base;

    if (!force) {
      if (routed_delta < config_.rebalance.min_routed) continue;
      // Backoff: a recent migration means this window's loads were
      // shaped by the old assignment anyway — consume the window and
      // sit it out.
      if (group.rebalance_cooldown > 0) {
        --group.rebalance_cooldown;
        for (size_t i = 0; i < ShardMap::kNumSlots; ++i) {
          group.slot_base[i] += slot_delta[i];
        }
        group.stall_base = stall_total;
        continue;
      }
      std::vector<uint64_t> shard_delta(current_active, 0);
      for (size_t i = 0; i < ShardMap::kNumSlots; ++i) {
        shard_delta[group.shard_map.shard_of_slot(i)] += slot_delta[i];
      }
      const double skew = LoadSkew(shard_delta);
      // Auto-grow: chronic queue stalls mean the active set is
      // compute-bound, not just imbalanced — activate headroom.
      const bool grow = config_.rebalance.grow_stall_threshold > 0 &&
                        stall_delta >= config_.rebalance.grow_stall_threshold &&
                        active < group.num_shards;
      if (grow) {
        ++active;
      } else if (skew < config_.rebalance.skew_threshold) {
        // Balanced enough: consume the window so the next check looks
        // at fresh traffic only, and forgive past drift.
        group.rebalance_backoff = 1;
        for (size_t i = 0; i < ShardMap::kNumSlots; ++i) {
          group.slot_base[i] += slot_delta[i];
        }
        group.stall_base = stall_total;
        continue;
      }
    }

    std::vector<uint32_t> assignment = ComputeShardAssignment(
        routed_delta > 0 ? slot_delta
                         : std::vector<uint64_t>(ShardMap::kNumSlots, 1),
        active);
    // Consume the load window regardless of whether the assignment
    // actually changes.
    for (size_t i = 0; i < ShardMap::kNumSlots; ++i) {
      group.slot_base[i] += slot_delta[i];
    }
    group.stall_base = stall_total;
    if (assignment == group.shard_map.slots() &&
        active == current_active) {
      continue;
    }
    if (!force && config_.rebalance.max_backoff_windows > 0) {
      group.rebalance_cooldown = group.rebalance_backoff;
      group.rebalance_backoff = std::min(
          group.rebalance_backoff * 2, config_.rebalance.max_backoff_windows);
    }
    plan.push_back({j, std::move(assignment), active});
  }
  if (plan.empty()) return Status::OK();

  // Quiesce the whole pipeline (kMigrate: pure barrier, no sweep —
  // migration must observe state, not change it), move the planned
  // groups, then rebuild aligner votes with a recheck barrier exactly
  // as checkpoint restore does.
  PUNCTSAFE_RETURN_IF_ERROR(BarrierAll(PipelineMarker::kMigrate, now));
  for (PlannedMigration& m : plan) {
    PUNCTSAFE_RETURN_IF_ERROR(
        MigrateGroup(m.group, std::move(m.assignment), m.active));
  }
  return BarrierAll(PipelineMarker::kRecheck, now);
}

Status ParallelExecutor::MigrateGroup(size_t group_idx,
                                      std::vector<uint32_t> assignment,
                                      size_t active) {
  OpGroup& group = *groups_[group_idx];
  // Capture every allocated shard (workers are parked at the kMigrate
  // barrier; the acks published their state to this thread) and fold
  // into the logical operator snapshot — the same monoid checkpoint
  // uses, so migration is literally Merge then Split.
  OperatorStateSnapshot logical =
      operators_[group.first_worker]->CaptureState();
  for (size_t s = 1; s < group.num_shards; ++s) {
    logical = MergeOperatorSnapshots(
        logical, operators_[group.first_worker + s]->CaptureState());
  }
  // The merged high-water is the sum of the replicas' marks — a sound
  // upper bound for one restore, but repeated migrations would seed
  // each capture with the previous sum and compound it without bound.
  // At a migration point the state is exactly the live tuples, so the
  // mark restarts there.
  for (InputStateSnapshot& input : logical.inputs) {
    input.state_metrics.high_water =
        std::max<uint64_t>(input.tuples.size(), input.state_metrics.live);
  }

  // Count the tuples whose owning shard changes under the new
  // assignment before installing it.
  uint64_t moved = 0;
  for (size_t k = 0; k < logical.inputs.size(); ++k) {
    for (const Tuple& tuple : logical.inputs[k].tuples) {
      const uint64_t h = group.spec.KeyHash(k, tuple);
      if (assignment[ShardMap::SlotOf(h)] != group.shard_map.ShardOf(h)) {
        ++moved;
      }
    }
  }

  PUNCTSAFE_RETURN_IF_ERROR(
      group.shard_map.Apply(std::move(assignment), active));

  // Fresh operator replicas (MJoinOperator::RestoreState requires a
  // freshly created operator), rewired exactly as Create wires them.
  // Swapping worker.op / operators_ is safe: every worker of every
  // group is parked in PopAll, and the next queue push publishes the
  // new pointers.
  ParallelExecutor* raw = this;
  for (size_t s = 0; s < group.num_shards; ++s) {
    PUNCTSAFE_ASSIGN_OR_RETURN(
        std::unique_ptr<MJoinOperator> op,
        MJoinOperator::Create(query_, group.node_inputs, config_.mjoin));
    const size_t w = group.first_worker + s;
    op->SetEmitter([raw, group_idx, s](const StreamElement& e) {
      raw->EmitFromShard(group_idx, s, e);
    });
    if (config_.batch_size > 1) {
      op->SetBatchEmitter([raw, group_idx, s](TupleBatch& b) {
        raw->EmitBatchFromShard(group_idx, s, b);
      });
    }
    if (workers_[w]->obs != nullptr) op->SetObserver(workers_[w]->obs);
    workers_[w]->op = op.get();
    operators_[w] = std::move(op);
  }
  PUNCTSAFE_RETURN_IF_ERROR(RestoreGroupFromLogical(group, logical));
  // Votes recorded under the old assignment are stale (a shard's
  // matching state just changed under it); the caller's kRecheck
  // barrier rebuilds them from the restored pending propagations.
  group.aligner.Reset();
  rebalance_migrations_.fetch_add(1, std::memory_order_relaxed);
  rebalance_tuples_moved_.fetch_add(moved, std::memory_order_relaxed);
  return Status::OK();
}

void ParallelExecutor::MaybeAdaptIngest() {
  if (!config_.adaptive_batch) return;
  uint64_t rows = 0;
  uint64_t runs = 0;
  for (const auto& op : operators_) {
    const TupleStore::ProbeRunStats total = op->ProbeRunStatsTotal();
    rows += total.rows;
    runs += total.runs;
  }
  // Migrations replace operators (stats restart at zero); treat a
  // shrinking total as a fresh baseline.
  if (rows < adapt_rows_seen_ || runs < adapt_runs_seen_) {
    adapt_rows_seen_ = rows;
    adapt_runs_seen_ = runs;
    return;
  }
  const uint64_t d_rows = rows - adapt_rows_seen_;
  const uint64_t d_runs = runs - adapt_runs_seen_;
  adapt_rows_seen_ = rows;
  adapt_runs_seen_ = runs;
  const size_t target =
      AdaptiveBatchTarget(d_rows, d_runs, ingest_batch_.capacity());
  if (target != ingest_batch_.capacity() && ingest_batch_.empty()) {
    ingest_batch_ = TupleBatch(target);
  }
}

void ParallelExecutor::Stop() {
  if (stopped_.exchange(true)) return;
  for (auto& worker : workers_) worker->queue.Close();
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
}

size_t ParallelExecutor::TotalLiveTuples() const {
  // Tuples partition across a group's shards (each stored exactly
  // once), so the plain sum is the logical total.
  size_t total = 0;
  for (const auto& op : operators_) {
    for (size_t i = 0; i < op->num_inputs(); ++i) {
      total += op->state_metrics(i).live.load(std::memory_order_relaxed);
    }
  }
  return total;
}

size_t ParallelExecutor::TotalLivePunctuations() const {
  size_t total = 0;
  for (const auto& group : groups_) {
    size_t group_puncts = 0;
    for (size_t s = 0; s < group->num_shards; ++s) {
      group_puncts = std::max(
          group_puncts, operators_[group->first_worker + s]
                            ->metrics()
                            .punctuations_live.load(std::memory_order_relaxed));
    }
    total += group_puncts;
  }
  return total;
}

std::vector<ParallelExecutor::OperatorGroupSnapshot>
ParallelExecutor::GroupSnapshots() const {
  std::vector<OperatorGroupSnapshot> out;
  out.reserve(groups_.size());
  for (const auto& group : groups_) {
    OperatorGroupSnapshot snap;
    snap.num_shards = group->num_shards;
    snap.partitioned = group->num_shards > 1;
    snap.partition_detail = group->spec.detail;
    snap.active_shards = group->shard_map.num_shards();
    snap.shard_map_version = group->shard_map.version();
    for (size_t s = 0; s < group->num_shards; ++s) {
      const MJoinOperator& op = *operators_[group->first_worker + s];
      StateMetricsSnapshot shard = op.AggregateStateSnapshot();
      snap.aggregate += shard;
      snap.shard_live.push_back(shard.live);
      snap.shard_high_water.push_back(shard.high_water);
      snap.punctuations_live =
          std::max(snap.punctuations_live,
                   op.metrics().punctuations_live.load(
                       std::memory_order_relaxed));
      if (track_pressure_) {
        const Worker& worker = *workers_[group->first_worker + s];
        snap.shard_routed.push_back(
            worker.routed.load(std::memory_order_relaxed));
        snap.shard_stalls.push_back(
            worker.stalls.load(std::memory_order_relaxed));
      }
    }
    if (!snap.shard_routed.empty()) {
      std::vector<uint64_t> active_routed(
          snap.shard_routed.begin(),
          snap.shard_routed.begin() +
              std::min(snap.active_shards, snap.shard_routed.size()));
      snap.skew = LoadSkew(active_routed);
    }
    out.push_back(std::move(snap));
  }
  return out;
}

obs::ObsSnapshot ParallelExecutor::ObservabilitySnapshot() const {
  obs::ObsSnapshot snap;
  snap.executor = "parallel";
  snap.simd_dispatch = simd::kDispatchName;
  snap.batch_size = config_.batch_size;
  snap.results = num_results();
  snap.live_tuples = TotalLiveTuples();
  snap.live_punctuations = TotalLivePunctuations();
  snap.tuple_high_water = tuple_high_water();
  snap.punctuation_high_water = punctuation_high_water();
  snap.rebalance_migrations = rebalance_migrations();
  snap.rebalance_tuples_moved = rebalance_tuples_moved();
  if (obs_ == nullptr) return snap;
  snap.operators.reserve(workers_.size());
  for (const auto& group : groups_) {
    const size_t aligner_pending = group->aligner.pending();
    const size_t aligner_hw = group->aligner.pending_high_water();
    double group_skew = 1.0;
    if (track_pressure_ && group->num_shards > 1) {
      std::vector<uint64_t> active_routed(group->shard_map.num_shards(), 0);
      for (size_t s = 0; s < active_routed.size(); ++s) {
        active_routed[s] = workers_[group->first_worker + s]->routed.load(
            std::memory_order_relaxed);
      }
      group_skew = LoadSkew(active_routed);
    }
    for (size_t s = 0; s < group->num_shards; ++s) {
      const size_t w = group->first_worker + s;
      obs::OperatorObsEntry entry;
      entry.CaptureFrom(*workers_[w]->obs);
      entry.num_shards = group->num_shards;
      entry.partitioned = group->num_shards > 1;
      entry.partition_detail = group->spec.detail;
      entry.active_shards = group->shard_map.num_shards();
      entry.shard_map_version = group->shard_map.version();
      entry.skew = group_skew;
      entry.state = operators_[w]->AggregateStateSnapshot();
      entry.op_metrics = operators_[w]->metrics().Snapshot();
      // Group-level gauges, replicated onto each shard entry (the
      // aligner is per group; consumers should read shard 0's).
      entry.aligner_pending = aligner_pending;
      entry.aligner_pending_high_water = aligner_hw;
      snap.operators.push_back(std::move(entry));
    }
  }
  return snap;
}

std::vector<Tuple> ParallelExecutor::kept_results() const {
  std::lock_guard<std::mutex> lock(results_mu_);
  return kept_results_;
}

std::vector<Tuple> ParallelExecutor::TakeResults() {
  std::lock_guard<std::mutex> lock(results_mu_);
  if (kept_results_.empty()) return {};  // see PlanExecutor::TakeResults
  std::vector<Tuple> out = std::move(kept_results_);
  kept_results_ = std::vector<Tuple>();
  kept_results_.reserve(out.size());
  return out;
}

Status FeedTraceParallel(ParallelExecutor* executor, const Trace& trace) {
  int64_t max_ts = 0;
  for (const TraceEvent& event : trace) {
    PUNCTSAFE_RETURN_IF_ERROR(executor->Push(event));
    if (event.element.timestamp > max_ts) max_ts = event.element.timestamp;
  }
  return executor->Drain(max_ts + 1);
}

}  // namespace punctsafe
