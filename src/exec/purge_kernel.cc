#include "exec/purge_kernel.h"

#include <algorithm>

#include "exec/simd.h"
#include "util/logging.h"

namespace punctsafe {

Result<PurgeKernel> PurgeKernel::Create(const ContinuousJoinQuery& query,
                                        const std::vector<LocalInput>& inputs,
                                        size_t max_joinable_set) {
  const size_t m = inputs.size();
  if (m > kMaxInputs) {
    return Status::InvalidArgument(
        "a join over more than 64 inputs is not supported (the purge "
        "fixpoint tracks covered inputs in one 64-bit mask)");
  }
  PurgeKernel k;
  k.max_joinable_set_ = max_joinable_set;

  // Composite layouts: per input, (stream, attr) -> offset.
  k.widths_.resize(m);
  k.offset_keys_.resize(m);
  k.offset_values_.resize(m);
  for (size_t i = 0; i < m; ++i) {
    size_t offset = 0;
    for (size_t s : inputs[i].streams) {
      for (size_t a = 0; a < query.schema(s).num_attributes(); ++a) {
        k.offset_keys_[i].push_back({s, a});
        k.offset_values_[i].push_back(offset + a);
      }
      offset += query.schema(s).num_attributes();
    }
    k.widths_[i] = offset;
  }

  // Localized predicates + per-input join offsets for indexing.
  constexpr size_t kOutside = static_cast<size_t>(-1);
  std::vector<size_t> input_of(query.num_streams(), kOutside);
  for (size_t i = 0; i < m; ++i) {
    for (size_t s : inputs[i].streams) input_of[s] = i;
  }
  k.indexed_.resize(m);
  for (const ResolvedPredicate& p : query.predicates()) {
    size_t ia = input_of[p.left_stream];
    size_t ib = input_of[p.right_stream];
    if (ia == kOutside || ib == kOutside || ia == ib) continue;
    Predicate lp{ia, k.OffsetOf(ia, p.left_stream, p.left_attr), ib,
                 k.OffsetOf(ib, p.right_stream, p.right_attr)};
    k.indexed_[ia].push_back(lp.offset_a);
    k.indexed_[ib].push_back(lp.offset_b);
    k.predicates_.push_back(lp);
  }
  k.predicates_of_input_.resize(m);
  for (size_t i = 0; i < k.predicates_.size(); ++i) {
    k.predicates_of_input_[k.predicates_[i].input_a].push_back(i);
    k.predicates_of_input_[k.predicates_[i].input_b].push_back(i);
  }
  for (auto& offsets : k.indexed_) {
    std::sort(offsets.begin(), offsets.end());
    offsets.erase(std::unique(offsets.begin(), offsets.end()), offsets.end());
  }

  // All generalized edges of the kernel's graph, localized to
  // composite offsets.
  std::vector<LocalGpgEdge> edges = BuildLocalEdges(query, inputs);
  for (const LocalGpgEdge& e : edges) {
    Edge edge;
    edge.target_input = e.target_input;
    for (size_t s : e.source_inputs) edge.source_mask |= uint64_t{1} << s;
    for (const LocalGpgEdge::Binding& b : e.bindings) {
      edge.target_offsets.push_back(
          k.OffsetOf(e.target_input, e.scheme.origin_stream, b.target_attr));
      edge.sources.push_back(
          {b.source_input,
           k.OffsetOf(b.source_input, b.source_stream, b.source_attr)});
    }
    k.edges_.push_back(std::move(edge));
  }
  k.purgeable_.resize(m);
  for (size_t i = 0; i < m; ++i) {
    k.purgeable_[i] = LocalInputPurgeable(i, m, edges);
  }
  return k;
}

size_t PurgeKernel::OffsetOf(size_t input, size_t stream, size_t attr) const {
  for (size_t i = 0; i < offset_keys_[input].size(); ++i) {
    if (offset_keys_[input][i] == std::make_pair(stream, attr)) {
      return offset_values_[input][i];
    }
  }
  PUNCTSAFE_LOG(Fatal) << "attribute (" << stream << "," << attr
                       << ") not covered by input " << input;
  return 0;
}

void PurgeKernel::Expand(size_t v, const BatchFrontier& in,
                         BatchFrontier* out) const {
  out->Reset(in.width());
  if (in.empty()) return;
  // Predicates between v and covered inputs, split into one probe
  // predicate (index lookup) and verification predicates. Which
  // inputs are covered is identical for every row of `in` (expansion
  // fills inputs uniformly), so split once per call, not per row.
  long probe_pred = -1;
  verify_scratch_.clear();
  for (size_t pi : predicates_of_input_[v]) {
    if (in.cell(0, predicates_[pi].Other(v)) == nullptr) continue;
    if (probe_pred < 0) {
      probe_pred = static_cast<long>(pi);
    } else {
      verify_scratch_.push_back(pi);
    }
  }
  const size_t rows = in.size();
  if (probe_pred >= 0) {
    const Predicate& p = predicates_[probe_pred];
    const size_t v_off = p.OffsetOn(v);
    const size_t o_in = p.Other(v);
    const size_t o_off = p.OffsetOnOther(v);
    const TupleStore& store = *states_[v];
    // One gather pass builds the probe-key hash column over the whole
    // frontier (cached Value hashes, no re-hashing); SIMD run
    // detection then finds same-key runs spanning source rows —
    // consecutive rows frequently carry the same probe key (all
    // children of one parent row do, and so do key-clustered batch
    // rows), so the bucket is resolved and its live members filtered
    // once per run, not per row. The bucket pointer stays valid across
    // the run because only FindBucket can trigger index compaction —
    // ForBucketLive never mutates the index.
    probe_hashes_.clear();
    for (size_t r = 0; r < rows; ++r) {
      probe_hashes_.push_back(
          static_cast<uint64_t>(in.cell(r, o_in)->HashAt(o_off)));
    }
    size_t k = 0;
    while (k < rows) {
      const Value& key = in.cell(k, o_in)->at(o_off);
      // Exact key equality guards hash collisions inside the hash run
      // (same discipline as ProbeBatch).
      const size_t hash_run =
          simd::HashRunLength(probe_hashes_.data() + k, rows - k);
      size_t same_key = 1;
      while (same_key < hash_run &&
             in.cell(k + same_key, o_in)->at(o_off) == key) {
        ++same_key;
      }
      const TupleStore::Bucket* bucket = store.FindBucket(v_off, key);
      store.NoteProbeRun(same_key);
      run_cands_.clear();
      store.ForBucketLive(bucket, [&](size_t, const Tuple& candidate) {
        run_cands_.push_back(&candidate);
      });
      if (run_cands_.empty()) {
        k += same_key;
        continue;
      }
      if (verify_scratch_.empty()) {
        // Every (row, candidate) pair of the run is a result.
        // Row-major product append keeps the frontier in
        // per-source-row DFS order — the emission-order invariant —
        // while writing each column as one segment.
        out->AppendProduct(in, k, same_key, v, run_cands_.data(),
                           run_cands_.size());
      } else {
        pair_rows_.clear();
        pair_cands_.clear();
        for (size_t r = k; r < k + same_key; ++r) {
          for (const Tuple* cand : run_cands_) {
            pair_rows_.push_back(static_cast<uint32_t>(r));
            pair_cands_.push_back(cand);
          }
        }
        VerifyPairs(v, in);
        for (size_t i = 0; i < pair_rows_.size(); ++i) {
          out->AppendExtended(in, pair_rows_[i], v, pair_cands_[i]);
        }
      }
      k += same_key;
    }
  } else {
    // No predicate to covered inputs: cross product of the whole
    // frontier with v's live state (one state walk, not per row). No
    // index probe is counted, matching the per-row ForEachLive path.
    run_cands_.clear();
    states_[v]->ForEachLive([&](size_t, const Tuple& candidate) {
      run_cands_.push_back(&candidate);
    });
    if (run_cands_.empty()) return;
    if (verify_scratch_.empty()) {
      out->AppendProduct(in, 0, rows, v, run_cands_.data(),
                         run_cands_.size());
      return;
    }
    pair_rows_.clear();
    pair_cands_.clear();
    for (size_t r = 0; r < rows; ++r) {
      for (const Tuple* cand : run_cands_) {
        pair_rows_.push_back(static_cast<uint32_t>(r));
        pair_cands_.push_back(cand);
      }
    }
    VerifyPairs(v, in);
    for (size_t i = 0; i < pair_rows_.size(); ++i) {
      out->AppendExtended(in, pair_rows_[i], v, pair_cands_[i]);
    }
  }
}

void PurgeKernel::VerifyPairs(size_t v, const BatchFrontier& in) const {
  size_t n = pair_rows_.size();
  for (size_t pi : verify_scratch_) {
    if (n == 0) break;
    const Predicate& vp = predicates_[pi];
    const size_t vv_off = vp.OffsetOn(v);
    const size_t vo_in = vp.Other(v);
    const size_t vo_off = vp.OffsetOnOther(v);
    // Gather both sides' cached hashes into contiguous columns, SIMD
    // prefilter, exact Value equality only on the survivors (a hash
    // collision survives the filter and dies here — false positives,
    // never false negatives).
    verify_hashes_a_.clear();
    verify_hashes_b_.clear();
    for (size_t i = 0; i < n; ++i) {
      verify_hashes_a_.push_back(
          static_cast<uint64_t>(pair_cands_[i]->HashAt(vv_off)));
      verify_hashes_b_.push_back(static_cast<uint64_t>(
          in.cell(pair_rows_[i], vo_in)->HashAt(vo_off)));
    }
    filter_scratch_.resize(n);
    const size_t maybe =
        simd::FilterEqualHashes(verify_hashes_a_.data(),
                                verify_hashes_b_.data(), n,
                                filter_scratch_.data());
    // In-place stable compaction (filter indices ascend, so the write
    // cursor never passes a pending read), preserving pair order — and
    // with it emission order.
    size_t kept = 0;
    for (size_t j = 0; j < maybe; ++j) {
      const uint32_t i = filter_scratch_[j];
      if (pair_cands_[i]->at(vv_off) ==
          in.cell(pair_rows_[i], vo_in)->at(vo_off)) {
        pair_rows_[kept] = pair_rows_[i];
        pair_cands_[kept] = pair_cands_[i];
        ++kept;
      }
    }
    n = kept;
  }
  pair_rows_.resize(n);
  pair_cands_.resize(n);
}

bool PurgeKernel::AllCombosExcluded(const Edge& edge,
                                    const BatchFrontier& joinable,
                                    int64_t now) const {
  const PunctuationStore& store = *puncts_[edge.target_input];
  const size_t arity = edge.sources.size();
  combo_.resize(arity);
  for (size_t r = 0; r < joinable.size(); ++r) {
    // Rows come out of expansion grouped by parent, so a combination
    // usually repeats the previous row's; skip the store lookup then.
    bool same_as_previous = r > 0;
    for (size_t i = 0; i < arity; ++i) {
      const Edge::Source& src = edge.sources[i];
      const Value* value = &joinable.cell(r, src.input)->at(src.offset);
      if (same_as_previous && !(*combo_[i] == *value)) {
        same_as_previous = false;
      }
      combo_[i] = value;
    }
    if (same_as_previous) continue;
    if (!store.CoversSubspace(
            edge.target_offsets,
            std::span<const Value* const>(combo_.data(), arity), now)) {
      return false;
    }
  }
  return true;
}

PurgeKernel::Verdict PurgeKernel::Removable(size_t input, const Tuple& tuple,
                                            int64_t now) const {
  if (!purgeable_[input]) return Verdict::kKept;
  const size_t m = num_inputs();
  const uint64_t all =
      m == kMaxInputs ? ~uint64_t{0} : (uint64_t{1} << m) - 1;

  BatchFrontier* joinable = &bufs_[0];
  BatchFrontier* scratch = &bufs_[1];
  joinable->Reset(m);
  joinable->SeedSingle(&tuple, input);

  // Fixpoint over the generalized edges: an input counts as closed as
  // soon as ANY edge whose sources are already closed has all its
  // value combinations excluded by the target's punctuation store —
  // the existential reading of the chained purge strategy.
  uint64_t covered = uint64_t{1} << input;
  bool progress = true;
  while (progress && covered != all) {
    progress = false;
    for (const Edge& edge : edges_) {
      const uint64_t target = uint64_t{1} << edge.target_input;
      if ((covered & target) != 0) continue;
      if ((edge.source_mask & ~covered) != 0) continue;
      if (!AllCombosExcluded(edge, *joinable, now)) continue;
      // Extend T_t[Υ] through the newly closed input.
      Expand(edge.target_input, *joinable, scratch);
      std::swap(joinable, scratch);
      if (joinable->size() > max_joinable_set_) return Verdict::kAborted;
      covered |= target;
      progress = true;
    }
  }
  return covered == all ? Verdict::kRemovable : Verdict::kKept;
}

size_t PurgeKernel::ScratchCapacity() const {
  return bufs_[0].CapacitySum() + bufs_[1].CapacitySum() +
         verify_scratch_.capacity() + probe_hashes_.capacity() +
         run_cands_.capacity() + pair_rows_.capacity() +
         pair_cands_.capacity() + verify_hashes_a_.capacity() +
         verify_hashes_b_.capacity() + filter_scratch_.capacity() +
         combo_.capacity();
}

}  // namespace punctsafe
