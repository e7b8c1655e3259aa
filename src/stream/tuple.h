// Stream tuples: positional value lists matching a stream's schema.

#ifndef PUNCTSAFE_STREAM_TUPLE_H_
#define PUNCTSAFE_STREAM_TUPLE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <new>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "stream/schema.h"
#include "stream/value.h"
#include "util/status.h"

namespace punctsafe {

/// Seed/step of the tuple hash, exposed so non-owning projections of
/// values (exec/punctuation_store.h) can hash exactly like the Tuple
/// they project — a transparent-lookup requirement.
inline constexpr size_t kTupleHashSeed = 0x51ED270B0B2C5A1BULL;
inline size_t TupleHashStep(size_t seed, size_t value_hash) {
  return seed ^ (value_hash + 0x9E3779B9u + (seed << 6) + (seed >> 2));
}

/// \brief An immutable, reference-counted run of Values: the storage
/// behind every owning Tuple. One allocation holds the header and the
/// values; a Tuple names a [data, data + size) window of it, so one
/// block can back many rows (MJoinOperator stages a whole result batch
/// into one block). The count is atomic, so rows sharing a block may be
/// copied and destroyed on different threads; the values are never
/// written while more than one reference exists.
class ValueBlock {
 public:
  /// \brief A block with room for `capacity` values, none constructed
  /// yet (count() == 0), holding one reference (the caller's). The
  /// builder placement-constructs values into slots() and then declares
  /// them with SetCount.
  static ValueBlock* Allocate(size_t capacity);

  Value* slots() { return reinterpret_cast<Value*>(this + 1); }
  const Value* values() const {
    return reinterpret_cast<const Value*>(this + 1);
  }
  /// \brief Number of constructed values (destroyed with the block).
  size_t count() const { return count_; }
  /// \brief Declares slots [0, n) constructed. Only the sole holder of
  /// a block (refs() == 1) may call this or DestroyValues.
  void SetCount(size_t n) { count_ = static_cast<uint32_t>(n); }
  /// \brief Destroys the constructed values (count back to 0), keeping
  /// the allocation for re-staging.
  void DestroyValues();

  /// \brief References held. Acquire: a holder that reads 1 owns the
  /// block alone, and every other former holder's reads of the values
  /// happened before it may overwrite them.
  uint32_t refs() const { return refs_.load(std::memory_order_acquire); }
  void Ref(uint32_t n = 1) { refs_.fetch_add(n, std::memory_order_relaxed); }
  /// \brief Drops `n` references; the last one frees the block.
  void Unref(uint32_t n = 1) {
    if (refs_.fetch_sub(n, std::memory_order_acq_rel) == n) Free(this);
  }

 private:
  explicit ValueBlock(uint32_t refs) : refs_(refs), count_(0) {}
  static void Free(ValueBlock* block);

  std::atomic<uint32_t> refs_;
  uint32_t count_;
};
static_assert(sizeof(ValueBlock) % alignof(Value) == 0,
              "values must start aligned right after the header");

/// \brief A positional row. Tuples are schema-agnostic containers;
/// conformance is checked via MatchesSchema where it matters
/// (operator input boundaries, workload generators).
///
/// A Tuple is an immutable handle {block, data, size}:
///   * owning — `block` is a ValueBlock holding the values and the
///     handle holds one reference to it. Copying bumps the count
///     instead of copying values, so a result row reaches the consumer
///     (executor sinks, StreamElement copies, TakeResults) without an
///     allocation or a value copy. Several rows may share one block.
///   * view — no block: a non-owning window of a Value array laid out
///     elsewhere, the arena-resident form TupleStore keeps for stored
///     state (exec/arena.h). Copying a view deep-copies it into a fresh
///     block (the Value copy constructor re-owns external string
///     bytes), so views never escape their arena's lifetime through
///     the value API.
/// A default-constructed (empty) tuple has neither block nor data.
class Tuple {
 public:
  /// Tag for constructing a non-owning view over externally managed
  /// values (TupleStore's arena layout).
  struct ExternalRef {};
  /// Tag for taking over a reference the caller already added to a
  /// block (bulk ValueBlock::Ref of a whole batch of rows).
  struct AdoptRef {};

  Tuple() = default;
  explicit Tuple(std::vector<Value> values);
  Tuple(std::initializer_list<Value> values);
  Tuple(ExternalRef, const Value* data, size_t size)
      : data_(data), size_(size) {}
  /// \brief The row [data, data + size) of `block`, taking over one
  /// reference the caller holds on it.
  Tuple(AdoptRef, ValueBlock* block, const Value* data, size_t size)
      : block_(block), data_(data), size_(size) {}

  Tuple(const Tuple& other)
      : block_(other.block_), data_(other.data_), size_(other.size_) {
    if (block_ != nullptr) {
      block_->Ref();
    } else if (data_ != nullptr) {
      *this = other.DeepCopy();  // a view re-owns
    }
  }
  Tuple(Tuple&& other) noexcept
      : block_(other.block_), data_(other.data_), size_(other.size_) {
    other.block_ = nullptr;
    other.data_ = nullptr;
    other.size_ = 0;
  }
  Tuple& operator=(const Tuple& other) {
    *this = Tuple(other);
    return *this;
  }
  Tuple& operator=(Tuple&& other) noexcept {
    if (this != &other) {
      if (block_ != nullptr) block_->Unref();
      block_ = other.block_;
      data_ = other.data_;
      size_ = other.size_;
      other.block_ = nullptr;
      other.data_ = nullptr;
      other.size_ = 0;
    }
    return *this;
  }
  ~Tuple() {
    if (block_ != nullptr) block_->Unref();
  }

  /// \brief Whether this Tuple views externally managed values (its
  /// data lives in an arena, valid only while that storage is).
  bool is_external() const { return block_ == nullptr && data_ != nullptr; }
  /// \brief The block this row shares (null for views and empty
  /// tuples).
  const ValueBlock* block() const { return block_; }

  /// \brief A copy that owns a fresh block holding exactly this row's
  /// values, so it pins no other row's storage (heap-mode TupleStore
  /// keeps rows this way; a plain copy of a result row would hold its
  /// whole staging block alive).
  Tuple DeepCopy() const;

  /// \brief Appends a copy of every row to *out. Runs of consecutive
  /// rows on one block take their references in one add (the executor
  /// result sinks keep whole staged batches this way).
  static void AppendCopies(std::span<const Tuple> rows,
                           std::vector<Tuple>* out);
  /// \brief Destroys every row of *rows (leaving it empty, capacity
  /// kept). Runs of consecutive rows on one block drop their
  /// references in one subtraction.
  static void ClearRows(std::vector<Tuple>* rows);

  size_t size() const { return size_; }
  const Value& at(size_t i) const { return data_[i]; }
  std::span<const Value> values() const { return {data_, size_}; }
  const Value* begin() const { return data_; }
  const Value* end() const { return data_ + size_; }

  /// \brief Cached hash of the value at position i (the per-offset
  /// key-hash accessor the join indexes key on; O(1), no re-hashing).
  size_t HashAt(size_t i) const { return data_[i].Hash(); }

  /// \brief Arity and per-position type conformance (null allowed
  /// anywhere; the paper's model has no null semantics so workloads do
  /// not produce them, but operators tolerate them).
  Status MatchesSchema(const Schema& schema) const;

  bool operator==(const Tuple& other) const {
    if (size_ != other.size_) return false;
    for (size_t i = 0; i < size_; ++i) {
      if (!(data_[i] == other.data_[i])) return false;
    }
    return true;
  }
  bool operator<(const Tuple& other) const {
    size_t n = size_ < other.size_ ? size_ : other.size_;
    for (size_t i = 0; i < n; ++i) {
      if (data_[i] < other.data_[i]) return true;
      if (other.data_[i] < data_[i]) return false;
    }
    return size_ < other.size_;
  }

  size_t Hash() const;

  std::string ToString() const;

 private:
  ValueBlock* block_ = nullptr;
  const Value* data_ = nullptr;
  size_t size_ = 0;
};
// Per-slot bookkeeping of every stored tuple (TupleStore handles) and
// of every kept result: the handle must stay three words.
static_assert(sizeof(Tuple) <= 24, "Tuple must stay a three-word handle");

/// \brief Builds an owning Tuple of known arity straight into its
/// block: one allocation, no intermediate vector. A builder abandoned
/// before Finish (say, on a parse error) frees what it built.
class TupleBuilder {
 public:
  explicit TupleBuilder(size_t size)
      : block_(ValueBlock::Allocate(size)), size_(size) {}
  TupleBuilder(const TupleBuilder&) = delete;
  TupleBuilder& operator=(const TupleBuilder&) = delete;
  ~TupleBuilder() {
    if (block_ != nullptr) block_->Unref();
  }

  /// \brief Appends the next value (at most `size` in all).
  void Append(const Value& value) { Emplace(value); }
  void Append(Value&& value) { Emplace(std::move(value)); }

  /// \brief The tuple of the appended values; exactly `size` must have
  /// been appended.
  Tuple Finish();

 private:
  template <typename V>
  void Emplace(V&& value) {
    const size_t n = block_->count();
    new (block_->slots() + n) Value(std::forward<V>(value));
    block_->SetCount(n + 1);
  }

  ValueBlock* block_;
  size_t size_;
};

struct TupleHash {
  size_t operator()(const Tuple& t) const { return t.Hash(); }
};

/// \brief Concatenates tuples in argument order (used for join output
/// rows, whose schema is the concatenation of input schemas).
Tuple ConcatTuples(const std::vector<const Tuple*>& parts);

}  // namespace punctsafe

#endif  // PUNCTSAFE_STREAM_TUPLE_H_
