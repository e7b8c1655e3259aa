// The MJoin operator [Viglas et al. 2003]: a generalized symmetric
// join over n >= 2 inputs, extended with punctuation-driven state
// purging via the paper's chained purge strategy (Sections 3.2 and
// 4.2).
//
// Inputs may be raw streams or sub-plan outputs; each input carries a
// composite row whose layout is the concatenation of its covered
// query streams' schemas in ascending stream order (the operator's
// output uses the same convention over the union of its covers, so
// operators nest without glue).
//
// Runtime behavior per input i:
//  * new tuple  — joined symmetrically against the other states
//    (index-accelerated expansion along the operator's predicate
//    graph), results emitted, tuple inserted; under the eager policy
//    its removability is tested immediately so already-closed arrivals
//    never occupy state ("purging future tuples", Section 5.1).
//  * new punctuation — stored (with optional lifespan), then a purge
//    sweep runs per policy: every stored tuple whose chained purge
//    plan is fully covered by the punctuation stores is dropped.
//    If the punctuation instantiates a propagatable scheme, an output
//    punctuation is emitted once the matching stored tuples are gone
//    (pending until then) — the propagation rule plan trees rely on.
//
// Removability of tuple t in input i follows the chained purge plan
// derived from the operator-local generalized punctuation graph
// (core/local_graph.h): walk the plan's steps, at each step verify
// that the joinable-value combinations accumulated so far are all
// excluded by the target input's punctuation store, then extend the
// joinable set T_t[Υ] through the target's state. The fixpoint, the
// layout and the expansion live in PurgeKernel (exec/purge_kernel.h),
// shared with PurgeEngine.
//
// Sweeps are incremental (docs/PERF.md, "Delta purge"): a sweep checks
// only the tuples whose verdict can have changed since the last one —
// tuples join-connected to the new punctuations' seed values, tuples
// join-connected to this sweep's purges, aborted checks, and (lazy and
// none policies) unchecked arrivals — and finds pending propagations
// and retirement candidates by value, not by scanning. One full scan
// (ScanInput) remains for the first sweep after RestoreState, for
// punctuations no index can locate candidates for (all-wildcard), and
// for the test-only audit that runs it beside every delta sweep.

#ifndef PUNCTSAFE_EXEC_MJOIN_H_
#define PUNCTSAFE_EXEC_MJOIN_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/local_graph.h"
#include "exec/batch_frontier.h"
#include "exec/checkpoint.h"
#include "exec/operator.h"
#include "exec/punctuation_store.h"
#include "exec/purge_kernel.h"
#include "exec/tuple_store.h"
#include "query/cjq.h"
#include "util/status.h"

namespace punctsafe {

struct MJoinConfig {
  PurgePolicy purge_policy = PurgePolicy::kEager;
  /// Punctuations between sweeps under the lazy policy.
  size_t lazy_batch = 64;
  /// Lifespan (timestamp units) for stored punctuations; nullopt
  /// keeps them forever (see Section 5.1 on the trade-off).
  std::optional<int64_t> punctuation_lifespan;
  /// Drop arriving tuples already excluded by a stored punctuation on
  /// their own input (late/contract-violating arrivals).
  bool drop_excluded_arrivals = true;
  /// Emit output punctuations for propagatable schemes.
  bool propagate_punctuations = true;
  /// Joinable-set size cap during removability checks; exceeding it
  /// aborts the check conservatively (tuple stays, counted in
  /// OperatorMetrics::removability_aborts and re-checked every sweep).
  size_t max_joinable_set = 4096;
  /// Purge stored punctuations once partner punctuations prove them
  /// obsolete (paper Section 5.1, "punctuation purgeability"): a
  /// punctuation can go when, for every join predicate touching one of
  /// its constrained attributes, the partner input is itself closed on
  /// the corresponding value and holds no matching live tuple.
  bool purge_punctuations = false;
  /// Arena-backed tuple storage with epoch reclamation tied to purge
  /// sweeps (TupleStoreOptions::arena); off = per-tuple heap
  /// ownership. Results are identical either way — the differential
  /// harness sweeps both.
  bool arena = true;
};

class MJoinOperator : public JoinOperator {
 public:
  /// \brief Builds an MJoin over `inputs` (>= 2) of `query`.
  ///
  /// `inputs[k].streams` are the query streams covered by input k;
  /// `inputs[k].schemes` the punctuation schemes deliverable on it
  /// (for raw-stream inputs, RawAvailableSchemes). Covers must be
  /// disjoint, and there are at most PurgeKernel::kMaxInputs inputs.
  /// Inputs whose operator-local state is not purgeable get
  /// no purge plan: the operator still runs, its state just grows —
  /// exactly the unsafe behavior the safety checker exists to reject,
  /// kept executable for the paper's unbounded-state experiments.
  static Result<std::unique_ptr<MJoinOperator>> Create(
      const ContinuousJoinQuery& query, std::vector<LocalInput> inputs,
      MJoinConfig config);
  ~MJoinOperator() override;

  /// \brief Result blocks stay at most this large, so a large emit
  /// stages into several blocks instead of one for the whole emit (on
  /// punctbench `chain_expand` one block per emit measured slower
  /// punctuation sweeps; see docs/PERF.md "Result delivery").
  static constexpr size_t kResultBlockBytes = 32 * 1024;
  /// \brief Result rows staged per block (kResultBlockBytes / row size).
  size_t result_rows_per_block() const { return rows_per_block_; }

  size_t num_inputs() const override { return inputs_.size(); }
  void PushTuple(size_t input, const Tuple& tuple, int64_t ts) override;
  /// Batch arrival path: result-identical to per-row PushTuple, with
  /// the per-tuple overheads amortized to the batch boundary — the
  /// punctuation-exclusion scan and the eager removability check are
  /// skipped wholesale when no punctuation can affect them (stores
  /// cannot change mid-batch), and the binary-join first hop probes
  /// through the vectorized TupleStore::ProbeBatch over the batch's
  /// hash column.
  void PushBatch(size_t input, TupleBatch& batch) override;
  void PushPunctuation(size_t input, const Punctuation& punctuation,
                       int64_t ts) override;
  size_t TotalLiveTuples() const override;
  size_t TotalLivePunctuations() const override;

  /// \brief Per-input join-state metrics.
  const StateMetrics& state_metrics(size_t input) const {
    return states_[input]->metrics();
  }
  /// \brief All inputs' state snapshots summed into one operator-level
  /// view (under partitioned execution, one shard's contribution to
  /// the logical operator's aggregate).
  StateMetricsSnapshot AggregateStateSnapshot() const;
  /// \brief Summed probe-run statistics over all input stores
  /// (TupleStore::ProbeRunStats): the mean same-key run length of the
  /// batched probe path, the adaptive-batch tuning signal.
  TupleStore::ProbeRunStats ProbeRunStatsTotal() const {
    TupleStore::ProbeRunStats total;
    for (const auto& state : states_) {
      total.rows += state->probe_run_stats().rows;
      total.runs += state->probe_run_stats().runs;
    }
    return total;
  }
  /// \brief Whether input k's state is purgeable (Theorem 3 on the
  /// operator-local generalized graph).
  bool InputPurgeable(size_t input) const {
    return kernel_.purgeable(input);
  }
  /// \brief Streams covered by the operator output (sorted).
  const std::vector<size_t>& output_streams() const {
    return output_streams_;
  }
  /// \brief Output composite width (attribute count).
  size_t output_width() const { return output_width_; }

  /// \brief Forces a purge sweep (used by lazy-policy drivers that
  /// want a final flush, and by tests).
  void Sweep(int64_t now);

  /// \brief Stored punctuations dropped by the Section 5.1
  /// punctuation-purgeability pass.
  uint64_t punctuations_purged() const { return punctuations_purged_; }

  /// \brief Captures this operator's logical state for a
  /// punctuation-aligned checkpoint (exec/checkpoint.h): live tuples,
  /// punctuation-store entries with arrivals, pending propagations,
  /// and metric counters. Must run while the operator is quiescent
  /// (between pushes; under the parallel executor, behind a barrier).
  OperatorStateSnapshot CaptureState() const;

  /// \brief Rebuilds the captured state into this operator, which must
  /// be freshly created (same query/inputs/config shape, empty state).
  /// Tuples are re-inserted through the normal path (so indexes and
  /// arena layout rebuild), then the metric counters are overwritten
  /// with their captured values.
  Status RestoreState(const OperatorStateSnapshot& snapshot);

  /// \brief Re-evaluates every pending propagation as if all inputs
  /// had changed. Restore paths call this after state is rebuilt: a
  /// shard that had already reported a punctuation to the alignment
  /// barrier before the snapshot re-emits it, reconstructing the
  /// aligner votes a crash discards (docs/RECOVERY.md).
  void RecheckPropagations(int64_t now);

  /// \brief Test-only audit: from now on every sweep also runs the full
  /// scan beside the delta one and compares, per sweep, the purged
  /// slots of every input, the retired punctuations, and the in-order
  /// list of propagated punctuations. The full scan's counter effects
  /// are undone, so counters read as without the audit.
  void EnablePurgeAuditForTesting() { audit_ = true; }
  /// \brief Sweeps (or propagation steps) on which the audit found the
  /// delta and the full scan disagreeing; the first disagreement is
  /// described by purge_audit_report().
  uint64_t purge_audit_mismatches() const { return audit_mismatches_; }
  const std::string& purge_audit_report() const { return audit_report_; }

 protected:
  void OnObserverSet() override;

 private:
  struct PendingPropagation {
    size_t input;
    Punctuation punctuation;  // in the input's composite space
    bool live = true;         // false once emitted (a hole until compaction)
  };
  // One vertex of the key-level walk over the live join graph: the
  // bucket of input `input` whose attribute `offset` equals *value.
  struct WalkKey {
    uint32_t input;
    uint32_t offset;
    const Value* value;
  };
  struct KeySlot {
    const Value* value = nullptr;
    uint32_t input = 0;
    uint32_t offset = 0;
    uint32_t stamp = 0;
  };

  MJoinOperator() = default;

  // Result staging: rows [c * R, (c + 1) * R) of an emit, R =
  // rows_per_block_, go into out_blocks_[c] and the rows in out_batch_
  // share it (one reference each). A consumer that keeps rows keeps
  // the block; when none did, the reference count is back to this
  // operator's one after EmitBatch and the block is re-staged in place.
  struct StagingBlock {
    ValueBlock* block = nullptr;
    size_t capacity = 0;  // values it has room for
  };

  /// Assembles one output row per frontier row via copy_plan_ into the
  /// staging blocks, appends rows sharing them to out_batch_, and emits
  /// the whole batch (EmitBatch). Timestamps come from `src` through
  /// the frontier's provenance column, or from `single_ts` for
  /// tuple-at-a-time pushes (src == nullptr).
  void EmitFrontier(size_t input, const BatchFrontier& frontier,
                    const TupleBatch* src, int64_t single_ts);
  /// A block of `s` emptied for `needed` values: the old one re-staged
  /// when this operator holds it alone and it is big enough, else a
  /// fresh one (charged to `input`'s StateMetrics::result_blocks).
  ValueBlock* PrepareStagingBlock(size_t input, StagingBlock* s,
                                  size_t needed);
  /// Summed capacities of every expansion scratch structure; growth
  /// across a push/sweep is charged to StateMetrics::expand_allocs.
  size_t ExpandScratchCapacity() const;
  /// One counted removability check (aborts counted too).
  PurgeKernel::Verdict Check(size_t input, const Tuple& tuple, int64_t now);
  /// Eager arrival: drops the tuple when the chained purge plan already
  /// closes it, stores it otherwise; an aborted check is stored and
  /// queued for the next sweep.
  void StoreChecked(size_t input, const Tuple& tuple, int64_t now);
  void ProduceResults(size_t input, const Tuple& tuple, int64_t ts);

  // --- Sweep (delta and full) ---
  /// The sweep proper; `trigger` is the punctuation whose push runs it
  /// (eager, or the lazy batch's last one), nullptr for forced sweeps.
  void RunSweep(int64_t now, size_t trigger_input,
                const Punctuation* trigger);
  /// Runs fn with every counter it bumps restored afterwards: the
  /// audit's full scan must not show in the metrics.
  template <typename Fn>
  void Quietly(Fn&& fn);
  /// Decides this sweep's candidates: carried slots, unchecked
  /// arrivals, and the walk from every new punctuation's seeds; falls
  /// back to scanning an input whose candidates reach its live count.
  /// Returns false when the sweep must be a full one.
  bool CollectCandidates(int64_t now, size_t trigger_input,
                         const Punctuation* trigger);
  /// Queues the seed keys of punctuation `p` on input j: for every edge
  /// into j whose target signature covers p's constrained attributes,
  /// the source values that instantiate it. False when no index can
  /// locate p's candidates (all-wildcard).
  bool QueueSeeds(size_t j, const Punctuation& p);
  /// Checks one stored tuple, appending its slot to *removable or
  /// *aborted by verdict.
  void CheckSlot(size_t k, size_t slot, const Tuple& t, int64_t now,
                 std::vector<size_t>* removable,
                 std::vector<size_t>* aborted);
  /// The full scan: every live tuple of input k, in live order.
  void ScanInput(size_t k, int64_t now, std::vector<size_t>* removable,
                 std::vector<size_t>* aborted);
  /// Walks the live join graph from the queued keys (key-deduplicated
  /// breadth-first search over the TupleStore buckets), calling
  /// visit(input, slot) for every live tuple reached, until stop().
  template <typename Visit, typename Stop>
  void WalkJoinGraph(Visit&& visit, Stop&& stop);
  /// Starts a walk: empties the queue and the visited-key set.
  void BeginWalk();
  void QueueKey(size_t input, size_t offset, const Value* value);
  void GrowKeySlots();
  void QueueNeighbors(size_t input, const Tuple& tuple);
  /// Candidate of this sweep / carried into the next (deduplicated by
  /// slot marks; switch the input to a scan once they reach its live
  /// count).
  void AddCandidate(size_t input, size_t slot);
  void AddCarry(size_t input, size_t slot);
  uint32_t& Mark(size_t input, size_t slot);

  // --- Propagation (paper Sec 4.2's propagation rule) ---
  size_t PendingKeyHash(size_t input, const Punctuation& p) const;
  /// Appends a pending entry for (input, p) unless one is pending.
  void AddPending(size_t input, const Punctuation& p);
  /// Position of the pending entry equal to (input, p), or -1.
  long FindPending(size_t input, const Punctuation& p) const;
  /// Collects the pending entries a purged tuple of `input` matches.
  void NotePurgedForPropagation(size_t input, const Tuple& tuple);
  /// True while a stored tuple still matches the pending entry.
  bool PropagationBlocked(const PendingPropagation& entry);
  /// Checks the entries at prop_hits_ (plus every entry of an input
  /// whose entries are unverified since a restore, when it is in
  /// `changed`) and emits the unblocked ones in arrival order.
  void PropagateDelta(int64_t now, uint64_t changed);
  /// The full rule: every entry of a changed input, in arrival order.
  void FullPropagationList(uint64_t changed, std::vector<uint32_t>* out);
  void EmitPropagations(int64_t now, const std::vector<uint32_t>& positions);
  void CompactPending();
  Punctuation RebaseToOutput(size_t input, const Punctuation& p) const;

  // --- Retirement (Section 5.1 punctuation purgeability) ---
  bool Retirable(size_t v, const Punctuation& p, int64_t now);
  /// Retirement candidates a new punctuation opens: itself, and the
  /// partner punctuations a single-attribute one may make obsolete.
  /// False for an all-wildcard one (no index locates its candidates).
  bool NoteRetirementTrigger(size_t input, const Punctuation& p);
  /// Queues the partner punctuations a purged tuple may unblock
  /// (condition (b)), skipped when condition (a) cannot hold for them.
  void NotePurgedForRetirement(size_t input, const Tuple& tuple, int64_t now);
  /// The full rule: every stored punctuation, evaluated on a snapshot.
  void FullRetirementList(
      int64_t now, std::vector<std::pair<size_t, const Punctuation*>>* out);
  void Retire(int64_t now, bool full);

  void NoteAuditMismatch(const std::string& what);

  std::vector<LocalInput> inputs_;
  MJoinConfig config_;
  PurgeKernel kernel_;
  std::vector<size_t> output_streams_;
  size_t output_width_ = 0;

  // Output assembly: for each input, where its composite lands in the
  // output row (per covered stream segment).
  struct CopySegment {
    size_t input, from, len, to;
  };
  std::vector<CopySegment> copy_plan_;

  // Per start input: the BFS expansion order over the predicate graph
  // (precomputed at Create so ProduceResults allocates nothing).
  std::vector<std::vector<size_t>> expand_orders_;
  uint64_t punctuations_purged_ = 0;

  std::vector<StagingBlock> out_blocks_;
  size_t rows_per_block_ = 1;
  TupleBatch out_batch_;

  std::vector<std::unique_ptr<TupleStore>> states_;
  std::vector<std::unique_ptr<PunctuationStore>> punct_stores_;

  // Schemes propagatable on the output, per input, as composite
  // constrained-offset signatures.
  std::vector<std::vector<std::vector<size_t>>> propagatable_signatures_;
  // Pending propagations in arrival order (emitted entries leave holes
  // until CompactPending), indexed by (input, constant projection).
  std::vector<PendingPropagation> pending_;
  size_t pending_live_ = 0;
  std::unordered_multimap<size_t, uint32_t> pending_index_;
  // Per input: pending entries not verified since a restore; the
  // input's next change re-checks all of them (the full rule).
  uint64_t pending_unverified_ = 0;
  std::vector<uint32_t> prop_hits_;

  size_t punctuations_since_sweep_ = 0;

  // Delta sweep state. Slot marks: mark == sweep_stamp_ means
  // "candidate of the running sweep", sweep_stamp_ + 1 "carried into
  // the next one".
  bool full_sweep_due_ = false;
  std::vector<std::pair<size_t, Punctuation>> unswept_puncts_;
  std::vector<size_t> swept_slot_end_;
  int64_t unswept_insert_max_ts_ = INT64_MIN;
  int64_t last_sweep_now_ = INT64_MIN;
  uint32_t sweep_stamp_ = 1;
  std::vector<std::vector<uint32_t>> marks_;
  std::vector<std::vector<size_t>> candidates_;
  std::vector<std::vector<size_t>> carried_;
  uint64_t scan_all_ = 0;        // inputs scanned in full this sweep
  uint64_t carry_scan_all_ = 0;  // ... and in the next one
  uint64_t purgeable_mask_ = 0;
  std::vector<size_t> purged_;
  std::vector<size_t> aborted_;
  std::vector<WalkKey> walk_queue_;
  std::vector<KeySlot> key_slots_;
  size_t key_count_ = 0;
  uint32_t key_stamp_ = 0;
  // Retirement candidates (input, stored punctuation); `retire_full_`
  // asks for the full rule instead.
  std::vector<std::pair<size_t, const Punctuation*>> retire_cands_;
  bool retire_full_ = false;
  std::vector<size_t> retire_attr_;  // the one partner attribute tested

  bool audit_ = false;
  uint64_t audit_mismatches_ = 0;
  std::string audit_report_;
};

}  // namespace punctsafe

#endif  // PUNCTSAFE_EXEC_MJOIN_H_
