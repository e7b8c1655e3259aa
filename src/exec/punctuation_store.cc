#include "exec/punctuation_store.h"

#include <algorithm>

namespace punctsafe {

namespace {

// Copies a punctuation's constants projection (ascending attribute
// order, as GroupOf leaves it) into a Tuple usable as a hash key.
Tuple KeyOf(const std::vector<const Value*>& projection) {
  TupleBuilder key(projection.size());
  for (const Value* v : projection) key.Append(*v);
  return key.Finish();
}

}  // namespace

bool PunctuationStore::Add(const Punctuation& punctuation, int64_t now) {
  // GroupOf also leaves the constants' projection in key_scratch_.
  Group* group = const_cast<Group*>(GroupOf(punctuation));
  if (group == nullptr) {
    groups_.push_back({punctuation.ConstrainedAttrs(), {}});
    group = &groups_.back();
  }
  auto it = group->by_values.find(ProjectedKey{&key_scratch_});
  if (it != group->by_values.end()) {
    it->second.arrival = now;  // refresh lifespan of a duplicate
    return false;
  }
  group->by_values.emplace(KeyOf(key_scratch_), Entry{punctuation, now});
  ++size_;
  high_water_ = std::max(high_water_, size_);
  return true;
}

template <typename ValueAt>
bool PunctuationStore::Covers(const std::vector<size_t>& attrs,
                              ValueAt value_at, int64_t now) const {
  for (const Group& group : groups_) {
    // Group applies iff its constrained attrs are a subset of `attrs`.
    key_scratch_.clear();
    bool subset = true;
    for (size_t a : group.attrs) {
      auto it = std::find(attrs.begin(), attrs.end(), a);
      if (it == attrs.end()) {
        subset = false;
        break;
      }
      key_scratch_.push_back(value_at(it - attrs.begin()));
    }
    if (!subset) continue;
    auto it = group.by_values.find(ProjectedKey{&key_scratch_});
    if (it != group.by_values.end() && !Expired(it->second, now)) {
      return true;
    }
  }
  return false;
}

bool PunctuationStore::CoversSubspace(const std::vector<size_t>& attrs,
                                      std::span<const Value> values,
                                      int64_t now) const {
  return Covers(attrs, [&](size_t i) { return &values[i]; }, now);
}

bool PunctuationStore::CoversSubspace(const std::vector<size_t>& attrs,
                                      std::span<const Value* const> values,
                                      int64_t now) const {
  return Covers(attrs, [&](size_t i) { return values[i]; }, now);
}

bool PunctuationStore::ExcludesTuple(const Tuple& tuple, int64_t now) const {
  for (const Group& group : groups_) {
    key_scratch_.clear();
    bool ok = true;
    for (size_t a : group.attrs) {
      if (a >= tuple.size()) {
        ok = false;
        break;
      }
      key_scratch_.push_back(&tuple.at(a));
    }
    if (!ok) continue;
    auto it = group.by_values.find(ProjectedKey{&key_scratch_});
    if (it != group.by_values.end() && !Expired(it->second, now)) {
      return true;
    }
  }
  return false;
}

size_t PunctuationStore::ExpireBefore(int64_t now) {
  if (!lifespan_.has_value()) return 0;
  size_t dropped = 0;
  for (Group& group : groups_) {
    for (auto it = group.by_values.begin(); it != group.by_values.end();) {
      if (Expired(it->second, now)) {
        it = group.by_values.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
  }
  size_ -= dropped;
  return dropped;
}

const PunctuationStore::Group* PunctuationStore::GroupOf(
    const Punctuation& p) const {
  key_scratch_.clear();
  for (size_t a = 0; a < p.arity(); ++a) {
    if (!p.pattern(a).is_wildcard()) {
      key_scratch_.push_back(&p.pattern(a).constant());
    }
  }
  for (const Group& group : groups_) {
    if (group.attrs.size() != key_scratch_.size()) continue;
    // Same size and every group attr constrained in p: same signature.
    if (std::all_of(group.attrs.begin(), group.attrs.end(), [&](size_t a) {
          return a < p.arity() && !p.pattern(a).is_wildcard();
        })) {
      return &group;
    }
  }
  return nullptr;
}

const Punctuation* PunctuationStore::Find(const Punctuation& p) const {
  const Group* group = GroupOf(p);
  if (group == nullptr) return nullptr;
  auto it = group->by_values.find(ProjectedKey{&key_scratch_});
  return it == group->by_values.end() ? nullptr : &it->second.punctuation;
}

bool PunctuationStore::Remove(const Punctuation& p) {
  Group* group = const_cast<Group*>(GroupOf(p));
  if (group == nullptr) return false;
  auto it = group->by_values.find(ProjectedKey{&key_scratch_});
  if (it == group->by_values.end()) return false;
  group->by_values.erase(it);  // p may alias the erased entry: unused below
  --size_;
  return true;
}

void PunctuationStore::ForEach(
    const std::function<void(const Punctuation&)>& fn) const {
  for (const Group& group : groups_) {
    for (const auto& [key, entry] : group.by_values) fn(entry.punctuation);
  }
}

void PunctuationStore::ForEachEntry(
    const std::function<void(const Punctuation&, int64_t)>& fn) const {
  for (const Group& group : groups_) {
    for (const auto& [key, entry] : group.by_values) {
      fn(entry.punctuation, entry.arrival);
    }
  }
}

}  // namespace punctsafe
