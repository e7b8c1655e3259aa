// The unit of batched execution: a fixed-capacity run of tuples from
// one input, carried through ingestion, queues, and operators as a
// single object (docs/PERF.md, "Batched & vectorized execution").
//
// Columnar side-structures make the probe path vectorizable:
//  * the **hash column** gathers each row's cached join-key hash into
//    one contiguous uint64_t vector (BuildHashColumn — a single pass,
//    no re-hashing: Value caches its hash at construction), which is
//    what TupleStore::ProbeBatch scans with SIMD run detection;
//  * the **selection vector** lists the active row indices, so
//    predicate / punctuation-exclusion filtering drops rows without
//    moving tuple payloads — downstream stages iterate the selection,
//    not the raw rows.
//
// Rows are Tuple handles (stream/tuple.h): appending a copy of an
// owning row bumps its block's reference count instead of copying
// values, so a recycled batch fills without allocating (the slot
// vector's capacity survives Clear). Clear() destroys the handles and
// so drops every row reference: MJoinOperator relies on that to see
// its result staging block back at one reference and re-stage into it.
// A view row (an arena-resident tuple) stays a view; it must stay
// valid until the batch is consumed.
//
// A batch never mixes inputs and never contains punctuations: the
// executors flush the open batch before forwarding a punctuation,
// which is the batch-boundary ordering guarantee (results produced
// from a batch are emitted before any punctuation that arrived after
// it). Timestamps stay per-row — batching changes granularity, not
// semantics, and a batch of capacity 1 reproduces tuple-at-a-time
// execution exactly.
//
// Not thread-safe; a batch has exactly one consumer at a time.

#ifndef PUNCTSAFE_EXEC_TUPLE_BATCH_H_
#define PUNCTSAFE_EXEC_TUPLE_BATCH_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "stream/tuple.h"
#include "util/logging.h"

namespace punctsafe {

class TupleBatch {
 public:
  /// Default unit of batched hand-off; ExecutorConfig::batch_size
  /// overrides it per executor.
  static constexpr size_t kDefaultCapacity = 128;

  TupleBatch() : TupleBatch(kDefaultCapacity) {}
  explicit TupleBatch(size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {
    tuples_.reserve(capacity_);
    timestamps_.reserve(capacity_);
  }

  TupleBatch(const TupleBatch&) = default;
  TupleBatch& operator=(const TupleBatch&) = default;
  // Explicit moves so the source's hash-column tag resets with its
  // moved vectors: a moved-from batch is empty and safely reusable (the
  // parallel emit staging moves a staged batch out and keeps filling
  // the same object).
  TupleBatch(TupleBatch&& other) noexcept
      : capacity_(other.capacity_),
        tuples_(std::move(other.tuples_)),
        timestamps_(std::move(other.timestamps_)),
        selection_(std::move(other.selection_)),
        hashes_(std::move(other.hashes_)),
        hash_offset_(other.hash_offset_) {
    other.hash_offset_ = kNoHashColumn;
  }
  TupleBatch& operator=(TupleBatch&& other) noexcept {
    if (this != &other) {
      capacity_ = other.capacity_;
      tuples_ = std::move(other.tuples_);
      timestamps_ = std::move(other.timestamps_);
      selection_ = std::move(other.selection_);
      hashes_ = std::move(other.hashes_);
      hash_offset_ = other.hash_offset_;
      other.hash_offset_ = kNoHashColumn;
    }
    return *this;
  }

  size_t capacity() const { return capacity_; }
  size_t size() const { return tuples_.size(); }
  bool empty() const { return tuples_.empty(); }
  bool full() const { return tuples_.size() >= capacity_; }

  void Append(const Tuple& tuple, int64_t ts) {
    tuples_.push_back(tuple);
    timestamps_.push_back(ts);
  }
  void Append(Tuple&& tuple, int64_t ts) {
    tuples_.push_back(std::move(tuple));
    timestamps_.push_back(ts);
  }

  const Tuple& tuple(size_t i) const { return tuples_[i]; }
  /// \brief Appends a copy of every row to *out (one reference add per
  /// run of rows sharing a block; see Tuple::AppendCopies).
  void CopyRowsTo(std::vector<Tuple>* out) const {
    Tuple::AppendCopies(tuples_, out);
  }
  int64_t timestamp(size_t i) const { return timestamps_[i]; }

  /// \brief Timestamp of the first row (queue-merge ordering key).
  int64_t first_timestamp() const { return timestamps_.front(); }
  /// \brief Largest row timestamp (watermark fold, one pass).
  int64_t max_timestamp() const {
    return *std::max_element(timestamps_.begin(), timestamps_.end());
  }

  /// \brief Empties the batch for reuse: the rows (and their block
  /// references) are dropped, vector capacities are retained, so a
  /// recycled batch allocates nothing steady-state.
  void Clear() {
    Tuple::ClearRows(&tuples_);
    timestamps_.clear();
    selection_.clear();
    hashes_.clear();
    hash_offset_ = kNoHashColumn;
  }

  /// \brief Selects every row (identity selection). Call before
  /// filtering; ProbeBatch and the operators iterate the selection.
  void SelectAll() {
    selection_.resize(tuples_.size());
    std::iota(selection_.begin(), selection_.end(), 0u);
  }

  const std::vector<uint32_t>& selection() const { return selection_; }
  /// \brief In-place filtering: operators rewrite the selection to
  /// drop rows (ascending row order must be preserved).
  std::vector<uint32_t>* mutable_selection() { return &selection_; }

  /// \brief Builds the contiguous hash column over attribute `offset`:
  /// one gather pass over the rows' cached Value hashes. Returns the
  /// column; it stays valid until the next Append/Clear.
  const uint64_t* BuildHashColumn(size_t offset) {
    hashes_.clear();
    hashes_.reserve(tuples_.size());
    for (const Tuple& t : tuples_) {
      PUNCTSAFE_CHECK(offset < t.size()) << "hash column offset out of range";
      hashes_.push_back(static_cast<uint64_t>(t.HashAt(offset)));
    }
    hash_offset_ = offset;
    return hashes_.data();
  }
  bool HasHashColumn(size_t offset) const { return hash_offset_ == offset; }
  const std::vector<uint64_t>& hashes() const { return hashes_; }

  /// \brief Capacity of the pooled tuple-slot vector (expand_allocs
  /// accounting input for operators that stage output batches).
  size_t TupleCapacity() const { return tuples_.capacity(); }

 private:
  static constexpr size_t kNoHashColumn = static_cast<size_t>(-1);

  size_t capacity_;
  std::vector<Tuple> tuples_;
  std::vector<int64_t> timestamps_;
  std::vector<uint32_t> selection_;
  std::vector<uint64_t> hashes_;
  size_t hash_offset_ = kNoHashColumn;
};

}  // namespace punctsafe

#endif  // PUNCTSAFE_EXEC_TUPLE_BATCH_H_
