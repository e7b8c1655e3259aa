// The join-state kernel shared by both Section 2.4 purge models: the
// operator-local model (MJoinOperator, one kernel per operator over its
// inputs) and the separate purge engine (PurgeEngine, one kernel over
// the query's raw streams). It owns the composite layout of the inputs,
// the localized join predicates and generalized edges, the batched
// frontier expansion, and the chained purge fixpoint (Sections 3.2.1
// and 4.2) — one copy of each, so both models answer removability with
// the same code.
//
// The fixpoint is allocation-free once its scratch has warmed up: the
// covered-input set is a 64-bit mask (hence at most kMaxInputs inputs),
// each edge's value combinations are projected as Value pointers into
// one reused buffer and probed against the target's punctuation store
// without building a Tuple, and the joinable set T_t[Υ] lives in two
// ping-ponged BatchFrontiers whose capacity is retained.
//
// The kernel does not own the stores: its owner creates them from
// IndexedOffsets() and binds them with Attach(). Not thread-safe, like
// the stores (one kernel per operator shard).

#ifndef PUNCTSAFE_EXEC_PURGE_KERNEL_H_
#define PUNCTSAFE_EXEC_PURGE_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/local_graph.h"
#include "exec/batch_frontier.h"
#include "exec/punctuation_store.h"
#include "exec/tuple_store.h"
#include "query/cjq.h"
#include "util/status.h"

namespace punctsafe {

class PurgeKernel {
 public:
  /// The covered-input set is one 64-bit mask.
  static constexpr size_t kMaxInputs = 64;

  // A join predicate localized to inputs and composite offsets.
  struct Predicate {
    size_t input_a, offset_a;
    size_t input_b, offset_b;

    size_t Other(size_t v) const { return input_a == v ? input_b : input_a; }
    size_t OffsetOn(size_t v) const {
      return input_a == v ? offset_a : offset_b;
    }
    size_t OffsetOnOther(size_t v) const {
      return input_a == v ? offset_b : offset_a;
    }
  };
  // One generalized edge in composite-offset space. Removability runs
  // a fixpoint over ALL of these (the chained purge strategy is
  // existential: any instantiated alternative may close an input).
  struct Edge {
    size_t target_input = 0;
    std::vector<size_t> target_offsets;  // punctuatable attrs (composite)
    // Per target offset: where the required values come from.
    struct Source {
      size_t input;
      size_t offset;
    };
    std::vector<Source> sources;
    uint64_t source_mask = 0;  // bit per source input
  };
  /// Outcome of one removability check. kAborted is the conservative
  /// "kept" of a check whose joinable set outgrew max_joinable_set.
  enum class Verdict { kKept, kRemovable, kAborted };

  PurgeKernel() = default;

  /// \brief Builds the layout for `inputs` (disjoint, sorted stream
  /// covers, validated by the caller) of `query`. InvalidArgument for
  /// more than kMaxInputs inputs.
  static Result<PurgeKernel> Create(const ContinuousJoinQuery& query,
                                    const std::vector<LocalInput>& inputs,
                                    size_t max_joinable_set);

  /// \brief Binds the owner's stores (one per input, built over
  /// IndexedOffsets). Must precede Expand/Removable.
  void Attach(std::vector<const TupleStore*> states,
              std::vector<const PunctuationStore*> puncts) {
    states_ = std::move(states);
    puncts_ = std::move(puncts);
  }

  size_t num_inputs() const { return widths_.size(); }
  /// \brief Composite width (attribute count) of input k.
  size_t width(size_t k) const { return widths_[k]; }
  /// \brief Composite offset of (stream, attr) inside input k.
  size_t OffsetOf(size_t input, size_t stream, size_t attr) const;
  /// \brief Offsets of input k that join predicates touch (sorted,
  /// deduplicated): what its TupleStore must index.
  const std::vector<size_t>& IndexedOffsets(size_t k) const {
    return indexed_[k];
  }
  const std::vector<Predicate>& predicates() const { return predicates_; }
  /// \brief Indices into predicates() touching input k.
  const std::vector<size_t>& predicates_of_input(size_t k) const {
    return predicates_of_input_[k];
  }
  const std::vector<Edge>& edges() const { return edges_; }
  /// \brief Theorem 3 on the kernel's generalized graph.
  bool purgeable(size_t k) const { return purgeable_[k]; }

  /// \brief Extends each partial assignment of `in` through input v's
  /// state into `out` (cleared first), batch-at-a-time: the probe-key
  /// hashes of the whole frontier are gathered into one column, SIMD
  /// run detection resolves one index bucket per same-key run (runs
  /// span source rows, not just one row's children), and the
  /// verification predicates run as a cached-hash prefilter over the
  /// (row, candidate) pair list before exact Value equality touches
  /// the survivors (cross product when no probe predicate applies).
  /// `in` and `out` must be distinct; callers ping-pong frontier(0/1).
  void Expand(size_t v, const BatchFrontier& in, BatchFrontier* out) const;

  /// \brief The generalized chained purge fixpoint for `tuple` on
  /// `input` against the attached stores at time `now`.
  Verdict Removable(size_t input, const Tuple& tuple, int64_t now) const;

  /// \brief The two reusable expansion frontiers (result production
  /// ping-pongs them too; Removable clobbers both).
  BatchFrontier* frontier(size_t i) const { return &bufs_[i]; }

  /// \brief Summed capacity of every scratch structure; growth across a
  /// push or sweep is one allocation event (StateMetrics::expand_allocs).
  size_t ScratchCapacity() const;

 private:
  /// Compacts the (pair_rows_, pair_cands_) pair list in place to the
  /// pairs satisfying every predicate in verify_scratch_: per
  /// predicate, SIMD equal-hash prefilter, then exact equality on the
  /// survivors (order-preserving, so emission order matches a per-row
  /// verify loop).
  void VerifyPairs(size_t v, const BatchFrontier& in) const;
  /// True iff the target's store excludes every value combination the
  /// joinable set's rows project onto `edge`'s sources: δ_PA(T_t[Υ]).
  bool AllCombosExcluded(const Edge& edge, const BatchFrontier& joinable,
                         int64_t now) const;

  std::vector<size_t> widths_;
  // Per input: (stream, attr) -> offset, as parallel vectors.
  std::vector<std::vector<std::pair<size_t, size_t>>> offset_keys_;
  std::vector<std::vector<size_t>> offset_values_;
  std::vector<std::vector<size_t>> indexed_;
  std::vector<Predicate> predicates_;
  std::vector<std::vector<size_t>> predicates_of_input_;
  std::vector<Edge> edges_;
  std::vector<bool> purgeable_;
  size_t max_joinable_set_ = 0;

  std::vector<const TupleStore*> states_;
  std::vector<const PunctuationStore*> puncts_;

  // Reused scratch (mutable: expansion and removability are logically
  // const). Single-threaded, like the stores.
  mutable BatchFrontier bufs_[2];
  mutable std::vector<size_t> verify_scratch_;
  // Probe-key hash column over the frontier (lives across the whole
  // run loop of one hop).
  mutable std::vector<uint64_t> probe_hashes_;
  // Live candidates of the current run's bucket, filtered once and
  // replayed per row.
  mutable std::vector<const Tuple*> run_cands_;
  // (frontier row, candidate) pair list under verification, plus the
  // per-predicate hash columns and survivor indices of the prefilter.
  mutable std::vector<uint32_t> pair_rows_;
  mutable std::vector<const Tuple*> pair_cands_;
  mutable std::vector<uint64_t> verify_hashes_a_;
  mutable std::vector<uint64_t> verify_hashes_b_;
  mutable std::vector<uint32_t> filter_scratch_;
  // One projected value combination (pointers into stored tuples).
  mutable std::vector<const Value*> combo_;
};

}  // namespace punctsafe

#endif  // PUNCTSAFE_EXEC_PURGE_KERNEL_H_
