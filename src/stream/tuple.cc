#include "stream/tuple.h"

#include <algorithm>
#include <new>

#include "util/logging.h"
#include "util/string_util.h"

namespace punctsafe {

ValueBlock* ValueBlock::Allocate(size_t capacity) {
  void* raw = ::operator new(sizeof(ValueBlock) + capacity * sizeof(Value));
  return new (raw) ValueBlock(1);
}

void ValueBlock::DestroyValues() {
  Value* v = slots();
  for (size_t i = 0; i < count_; ++i) v[i].~Value();
  count_ = 0;
}

void ValueBlock::Free(ValueBlock* block) {
  block->DestroyValues();
  block->~ValueBlock();
  ::operator delete(block);
}

Tuple::Tuple(std::vector<Value> values) {
  if (values.empty()) return;
  TupleBuilder builder(values.size());
  for (Value& v : values) builder.Append(std::move(v));
  *this = builder.Finish();
}

Tuple::Tuple(std::initializer_list<Value> values) {
  if (values.size() == 0) return;
  TupleBuilder builder(values.size());
  for (const Value& v : values) builder.Append(v);
  *this = builder.Finish();
}

Tuple Tuple::DeepCopy() const {
  if (size_ == 0) return Tuple();
  TupleBuilder builder(size_);
  for (const Value& v : values()) builder.Append(v);
  return builder.Finish();
}

Tuple TupleBuilder::Finish() {
  PUNCTSAFE_CHECK(block_->count() == size_)
      << "TupleBuilder: " << block_->count() << " of " << size_
      << " values appended";
  ValueBlock* block = std::exchange(block_, nullptr);
  return Tuple(Tuple::AdoptRef{}, block, block->values(), size_);
}

void Tuple::AppendCopies(std::span<const Tuple> rows,
                         std::vector<Tuple>* out) {
  // Geometric growth: sinks append batch after batch into one vector.
  const size_t needed = out->size() + rows.size();
  if (needed > out->capacity()) {
    out->reserve(std::max(needed, 2 * out->capacity()));
  }
  for (size_t i = 0; i < rows.size();) {
    ValueBlock* block = rows[i].block_;
    if (block == nullptr) {
      out->push_back(rows[i++]);  // view (re-owned) or empty
      continue;
    }
    size_t run = i + 1;
    while (run < rows.size() && rows[run].block_ == block) ++run;
    block->Ref(static_cast<uint32_t>(run - i));
    for (; i < run; ++i) {
      out->emplace_back(AdoptRef{}, block, rows[i].data_, rows[i].size_);
    }
  }
}

void Tuple::ClearRows(std::vector<Tuple>* rows) {
  const size_t n = rows->size();
  Tuple* row = rows->data();
  for (size_t i = 0; i < n;) {
    ValueBlock* block = row[i].block_;
    size_t run = i;
    for (; run < n && row[run].block_ == block; ++run) {
      row[run].block_ = nullptr;
    }
    if (block != nullptr) block->Unref(static_cast<uint32_t>(run - i));
    i = run;
  }
  rows->clear();
}

Status Tuple::MatchesSchema(const Schema& schema) const {
  if (size_ != schema.num_attributes()) {
    return Status::InvalidArgument(
        StrCat("tuple arity ", size_, " != schema arity ",
               schema.num_attributes()));
  }
  for (size_t i = 0; i < size_; ++i) {
    if (data_[i].is_null()) continue;
    if (data_[i].type() != schema.attribute(i).type) {
      return Status::InvalidArgument(
          StrCat("attribute '", schema.attribute(i).name, "' expects ",
                 ValueTypeToString(schema.attribute(i).type), ", got ",
                 ValueTypeToString(data_[i].type())));
    }
  }
  return Status::OK();
}

size_t Tuple::Hash() const {
  size_t seed = kTupleHashSeed;
  for (size_t i = 0; i < size_; ++i) seed = TupleHashStep(seed, data_[i].Hash());
  return seed;
}

std::string Tuple::ToString() const {
  return StrCat(
      "(",
      JoinMapped(values(), ", ", [](const Value& v) { return v.ToString(); }),
      ")");
}

Tuple ConcatTuples(const std::vector<const Tuple*>& parts) {
  size_t total = 0;
  for (const Tuple* p : parts) total += p->size();
  if (total == 0) return Tuple();
  TupleBuilder builder(total);
  for (const Tuple* p : parts) {
    for (const Value& v : p->values()) builder.Append(v);
  }
  return builder.Finish();
}

}  // namespace punctsafe
