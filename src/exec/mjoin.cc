#include "exec/mjoin.h"

#include <algorithm>
#include <deque>
#include <new>

#include "util/logging.h"
#include "util/string_util.h"

namespace punctsafe {

Result<std::unique_ptr<MJoinOperator>> MJoinOperator::Create(
    const ContinuousJoinQuery& query, std::vector<LocalInput> inputs,
    MJoinConfig config) {
  if (inputs.size() < 2) {
    return Status::InvalidArgument("an MJoin needs at least two inputs");
  }
  std::vector<bool> covered(query.num_streams(), false);
  for (const LocalInput& in : inputs) {
    if (in.streams.empty()) {
      return Status::InvalidArgument("an MJoin input must cover >= 1 stream");
    }
    if (!std::is_sorted(in.streams.begin(), in.streams.end())) {
      return Status::InvalidArgument("input stream covers must be sorted");
    }
    for (size_t s : in.streams) {
      if (s >= query.num_streams() || covered[s]) {
        return Status::InvalidArgument(
            "input covers must be disjoint subsets of the query streams");
      }
      covered[s] = true;
    }
  }

  Result<PurgeKernel> kernel =
      PurgeKernel::Create(query, inputs, config.max_joinable_set);
  if (!kernel.ok()) return kernel.status();
  auto op = std::unique_ptr<MJoinOperator>(new MJoinOperator());
  op->config_ = config;
  op->inputs_ = std::move(inputs);
  op->kernel_ = std::move(kernel).ValueOrDie();
  const PurgeKernel& layout = op->kernel_;
  const size_t m = op->inputs_.size();

  // Output layout: covered streams ascending; copy plan per stream.
  for (size_t s = 0; s < query.num_streams(); ++s) {
    if (covered[s]) op->output_streams_.push_back(s);
  }
  size_t out = 0;
  for (size_t s : op->output_streams_) {
    // Locate the input covering s and the segment start within it.
    for (size_t k = 0; k < m; ++k) {
      size_t from = 0;
      bool found = false;
      for (size_t cs : op->inputs_[k].streams) {
        if (cs == s) {
          found = true;
          break;
        }
        from += query.schema(cs).num_attributes();
      }
      if (found) {
        size_t len = query.schema(s).num_attributes();
        op->copy_plan_.push_back({k, from, len, out});
        out += len;
        break;
      }
    }
  }
  op->output_width_ = out;
  op->rows_per_block_ = std::max<size_t>(
      1, (kResultBlockBytes - sizeof(ValueBlock)) / (out * sizeof(Value)));

  // Expansion orders, one per arrival input: BFS over the predicate
  // graph from the input, then any unreached inputs (cross-product
  // components). Depends only on the graph, so computed once here.
  op->expand_orders_.resize(m);
  for (size_t start = 0; start < m; ++start) {
    std::vector<size_t>& order = op->expand_orders_[start];
    std::vector<bool> seen(m, false);
    std::deque<size_t> queue{start};
    seen[start] = true;
    while (!queue.empty()) {
      size_t u = queue.front();
      queue.pop_front();
      order.push_back(u);
      for (size_t pi : layout.predicates_of_input(u)) {
        size_t v = layout.predicates()[pi].Other(u);
        if (!seen[v]) {
          seen[v] = true;
          queue.push_back(v);
        }
      }
    }
    for (size_t k = 0; k < m; ++k) {
      if (!seen[k]) order.push_back(k);
    }
  }

  // Stores, bound to the kernel.
  std::vector<const TupleStore*> states;
  std::vector<const PunctuationStore*> puncts;
  for (size_t k = 0; k < m; ++k) {
    op->states_.push_back(std::make_unique<TupleStore>(
        layout.IndexedOffsets(k), TupleStoreOptions{.arena = config.arena}));
    op->punct_stores_.push_back(
        std::make_unique<PunctuationStore>(config.punctuation_lifespan));
    states.push_back(op->states_.back().get());
    puncts.push_back(op->punct_stores_.back().get());
    if (layout.purgeable(k)) op->purgeable_mask_ |= uint64_t{1} << k;
  }
  op->kernel_.Attach(std::move(states), std::move(puncts));

  // Propagatable scheme signatures (inputs with purgeable state only).
  op->propagatable_signatures_.resize(m);
  for (size_t k = 0; k < m; ++k) {
    if (!layout.purgeable(k)) continue;
    for (const AvailableScheme& scheme : op->inputs_[k].schemes) {
      std::vector<size_t> signature;
      for (size_t attr : scheme.attrs) {
        signature.push_back(layout.OffsetOf(k, scheme.origin_stream, attr));
      }
      std::sort(signature.begin(), signature.end());
      op->propagatable_signatures_[k].push_back(std::move(signature));
    }
  }
  op->swept_slot_end_.assign(m, 0);
  op->marks_.resize(m);
  op->candidates_.resize(m);
  op->carried_.resize(m);
  return op;
}

namespace {

constexpr uint64_t Bit(size_t k) { return uint64_t{1} << k; }

// True iff p's constrained attributes are exactly `signature` (sorted).
bool HasSignature(const Punctuation& p, const std::vector<size_t>& signature) {
  size_t constrained = 0;
  for (size_t a = 0; a < p.arity(); ++a) {
    if (!p.pattern(a).is_wildcard()) ++constrained;
  }
  if (constrained != signature.size()) return false;
  return std::all_of(signature.begin(), signature.end(), [&](size_t a) {
    return a < p.arity() && !p.pattern(a).is_wildcard();
  });
}

// Slot of a walk key in the visited-key table (before masking).
size_t KeySlotHash(size_t input, size_t offset, const Value& value) {
  uint64_t x = static_cast<uint64_t>(value.Hash()) ^ (input << 48) ^
               (offset << 32);
  x *= 0xFF51AFD7ED558CCDull;
  return static_cast<size_t>(x ^ (x >> 33));
}

}  // namespace

MJoinOperator::~MJoinOperator() {
  for (StagingBlock& s : out_blocks_) {
    if (s.block != nullptr) s.block->Unref();
  }
}

void MJoinOperator::PushTuple(size_t input, const Tuple& tuple, int64_t ts) {
  PUNCTSAFE_CHECK(input < num_inputs());
  PUNCTSAFE_CHECK(tuple.size() == kernel_.width(input))
      << "tuple arity " << tuple.size() << " != input width "
      << kernel_.width(input);
  if (obs::kCompiled && obs_ != nullptr) obs_->NoteTupleTs(ts);

  if (config_.drop_excluded_arrivals &&
      punct_stores_[input]->ExcludesTuple(tuple, ts)) {
    // Promised never to arrive: late or contract-violating; ignore.
    states_[input]->CountDroppedArrival();
    return;
  }

  // The kTupleIn ring event is recorded by the executors (serial leaf
  // push / parallel Deliver), which already hold a fresh NowNs for the
  // latency sample — keeping this path down to one clock-free hook.
  const size_t scratch_before = ExpandScratchCapacity();
  ProduceResults(input, tuple, ts);

  // Under the eager policy, test the chained purge plan before
  // storing: if the stores already close every continuation, the
  // tuple never occupies state.
  if (config_.purge_policy == PurgePolicy::kEager) {
    StoreChecked(input, tuple, ts);
  } else {
    states_[input]->Insert(tuple);
  }
  // Any scratch-capacity growth across this push is one expansion
  // allocation event; steady state stays pinned at zero.
  if (ExpandScratchCapacity() > scratch_before) {
    states_[input]->CountExpandAllocs(1);
  }
}

void MJoinOperator::PushBatch(size_t input, TupleBatch& batch) {
  PUNCTSAFE_CHECK(input < num_inputs());
  if (batch.empty()) return;
  for (size_t i = 0; i < batch.size(); ++i) {
    PUNCTSAFE_CHECK(batch.tuple(i).size() == kernel_.width(input))
        << "tuple arity " << batch.tuple(i).size() << " != input width "
        << kernel_.width(input);
  }
  if (obs::kCompiled && obs_ != nullptr) {
    // One watermark fold per batch (NoteTupleTs is an atomic max, so
    // folding the batch max is equivalent to per-row notes).
    obs_->NoteTupleTs(batch.max_timestamp());
  }

  batch.SelectAll();
  // Punctuation-exclusion filtering over the selection vector,
  // amortized to the batch boundary: the store cannot change
  // mid-batch, so an empty store skips the whole scan.
  if (config_.drop_excluded_arrivals && punct_stores_[input]->size() > 0) {
    std::vector<uint32_t>& sel = *batch.mutable_selection();
    size_t keep = 0;
    for (uint32_t row : sel) {
      if (punct_stores_[input]->ExcludesTuple(batch.tuple(row),
                                              batch.timestamp(row))) {
        states_[input]->CountDroppedArrival();
      } else {
        sel[keep++] = row;
      }
    }
    sel.resize(keep);
  }
  if (batch.selection().empty()) return;

  // Result production, batch-at-a-time: the whole selection becomes
  // the initial frontier and every expansion hop runs over it at once
  // — one bucket resolution per same-key run *across* the batch, SIMD
  // equal-hash prefilter on the verification predicates, one staged
  // output batch per push (docs/PERF.md, "Batched expansion").
  // Frontier rows stay source-row-major through every hop, so the
  // emission sequence matches a per-row ProduceResults loop exactly.
  const size_t scratch_before = ExpandScratchCapacity();
  const std::vector<size_t>& order = expand_orders_[input];
  BatchFrontier* cur = kernel_.frontier(0);
  BatchFrontier* nxt = kernel_.frontier(1);
  cur->Reset(num_inputs());
  cur->SeedFromBatch(batch, input);
  for (size_t idx = 1; idx < order.size() && !cur->empty(); ++idx) {
    kernel_.Expand(order[idx], *cur, nxt);
    std::swap(cur, nxt);
  }
  EmitFrontier(input, *cur, &batch, 0);

  // Eager removability amortized the same way: with no punctuation
  // stored anywhere the chained purge plan cannot close any input
  // (CoversSubspace over an empty store is false), so the whole
  // fixpoint is skipped. Probing never touches states_[input] and
  // expansion never walks through the arrival input, so running all
  // probes before any insert is result-identical to the interleaved
  // per-row order.
  const bool check_removable =
      config_.purge_policy == PurgePolicy::kEager &&
      kernel_.purgeable(input) && TotalLivePunctuations() > 0;
  if (check_removable) {
    for (uint32_t row : batch.selection()) {
      StoreChecked(input, batch.tuple(row), batch.timestamp(row));
    }
  } else {
    states_[input]->InsertBatch(batch);
    if (config_.punctuation_lifespan.has_value()) {
      unswept_insert_max_ts_ =
          std::max(unswept_insert_max_ts_, batch.max_timestamp());
    }
  }
  if (ExpandScratchCapacity() > scratch_before) {
    states_[input]->CountExpandAllocs(1);
  }
}

void MJoinOperator::StoreChecked(size_t input, const Tuple& tuple,
                                 int64_t now) {
  const PurgeKernel::Verdict verdict = Check(input, tuple, now);
  if (verdict == PurgeKernel::Verdict::kRemovable) {
    states_[input]->CountDroppedArrival();
    return;
  }
  const size_t slot = states_[input]->Insert(tuple);
  unswept_insert_max_ts_ = std::max(unswept_insert_max_ts_, now);
  if (verdict == PurgeKernel::Verdict::kAborted) AddCarry(input, slot);
}

PurgeKernel::Verdict MJoinOperator::Check(size_t input, const Tuple& tuple,
                                          int64_t now) {
  if (!kernel_.purgeable(input)) return PurgeKernel::Verdict::kKept;
  ++metrics_.removability_checks;
  const PurgeKernel::Verdict verdict = kernel_.Removable(input, tuple, now);
  if (verdict == PurgeKernel::Verdict::kAborted) {
    ++metrics_.removability_aborts;
  }
  return verdict;
}

void MJoinOperator::ProduceResults(size_t input, const Tuple& tuple,
                                   int64_t ts) {
  const std::vector<size_t>& order = expand_orders_[input];

  BatchFrontier* cur = kernel_.frontier(0);
  BatchFrontier* nxt = kernel_.frontier(1);
  cur->Reset(num_inputs());
  cur->SeedSingle(&tuple, input);

  for (size_t idx = 1; idx < order.size() && !cur->empty(); ++idx) {
    kernel_.Expand(order[idx], *cur, nxt);
    std::swap(cur, nxt);
  }
  EmitFrontier(input, *cur, nullptr, ts);
}

void MJoinOperator::EmitFrontier(size_t input, const BatchFrontier& frontier,
                                 const TupleBatch* src, int64_t single_ts) {
  const size_t n = frontier.size();
  if (n == 0) return;
  const size_t width = output_width_;
  const size_t chunks = (n + rows_per_block_ - 1) / rows_per_block_;
  if (out_blocks_.size() < chunks) out_blocks_.resize(chunks);
  out_batch_.Clear();
  for (size_t c = 0; c < chunks; ++c) {
    const size_t first = c * rows_per_block_;
    const size_t rows = std::min(rows_per_block_, n - first);
    ValueBlock* block =
        PrepareStagingBlock(input, &out_blocks_[c], rows * width);
    // Segment-major staging: one frontier column is walked sequentially
    // per copy segment (its base pointer and the segment bounds stay in
    // registers across the row loop), instead of re-resolving every
    // input's cell for every row. The copy plan covers each output
    // position exactly once, so every slot of the rows is constructed.
    Value* const base = block->slots();
    for (const CopySegment& seg : copy_plan_) {
      const Tuple* const* col = frontier.column(seg.input) + first;
      Value* out = base + seg.to;
      for (size_t r = 0; r < rows; ++r, out += width) {
        const Tuple* part = col[r];
        for (size_t i = 0; i < seg.len; ++i) {
          new (out + i) Value(part->at(seg.from + i));
        }
      }
    }
    block->SetCount(rows * width);
    // One reference per row, added in bulk; Clear drops them again, so
    // what is left after EmitBatch is what consumers kept.
    block->Ref(static_cast<uint32_t>(rows));
    for (size_t r = 0; r < rows; ++r) {
      out_batch_.Append(
          Tuple(Tuple::AdoptRef{}, block, base + r * width, width),
          src != nullptr ? src->timestamp(frontier.src_row(first + r))
                         : single_ts);
    }
  }
  EmitBatch(out_batch_);
  out_batch_.Clear();
}

ValueBlock* MJoinOperator::PrepareStagingBlock(size_t input, StagingBlock* s,
                                               size_t needed) {
  const bool sole = s->block != nullptr && s->block->refs() == 1;
  if (sole && s->capacity >= needed) {
    s->block->DestroyValues();
    return s->block;
  }
  // Exactly sized when the old block is still held (it may sit in a
  // consumer's results for a while), doubling up to the block limit
  // when it merely outgrew its working set.
  const size_t capacity =
      sole ? std::min(std::max(needed, 2 * s->capacity),
                      rows_per_block_ * output_width_)
           : needed;
  if (s->block != nullptr) s->block->Unref();
  s->block = ValueBlock::Allocate(capacity);
  s->capacity = capacity;
  states_[input]->CountResultBlock();
  return s->block;
}

size_t MJoinOperator::ExpandScratchCapacity() const {
  return kernel_.ScratchCapacity() + out_batch_.TupleCapacity() +
         out_blocks_.capacity();
}

void MJoinOperator::PushPunctuation(size_t input,
                                    const Punctuation& punctuation,
                                    int64_t ts) {
  PUNCTSAFE_CHECK(input < num_inputs());
  PUNCTSAFE_CHECK(punctuation.arity() == kernel_.width(input))
      << "punctuation arity " << punctuation.arity() << " != input width "
      << kernel_.width(input);
  ++metrics_.punctuations_received;
  if (obs::kCompiled && obs_ != nullptr) obs_->RecordPunctuation(input, ts);

  if (config_.punctuation_lifespan.has_value()) {
    for (auto& store : punct_stores_) {
      metrics_.punctuations_expired += store->ExpireBefore(ts);
    }
  }

  if (punct_stores_[input]->Add(punctuation, ts)) {
    ++metrics_.punctuations_stored;
  }
  metrics_.OnPunctuationsLive(TotalLivePunctuations());

  // Queue propagation if this instantiates a propagatable scheme.
  if (config_.propagate_punctuations) {
    for (const auto& signature : propagatable_signatures_[input]) {
      if (!HasSignature(punctuation, signature)) continue;
      AddPending(input, punctuation);
      break;
    }
  }

  // A sweep that does not run now still owes this punctuation's
  // candidates to the next one (bounded: past lazy_batch of them the
  // next sweep just scans).
  if (config_.purge_policy != PurgePolicy::kEager && !full_sweep_due_) {
    if (unswept_puncts_.size() >= std::max<size_t>(config_.lazy_batch, 1)) {
      full_sweep_due_ = true;
      unswept_puncts_.clear();
    } else {
      unswept_puncts_.emplace_back(input, punctuation);
    }
  }
  switch (config_.purge_policy) {
    case PurgePolicy::kEager:
      RunSweep(ts, input, &punctuation);
      break;
    case PurgePolicy::kLazy:
      if (++punctuations_since_sweep_ >= config_.lazy_batch) {
        RunSweep(ts, input, &punctuation);
      }
      break;
    case PurgePolicy::kNone:
      break;
  }
  // The arrival's own propagation check: only this punctuation's entry
  // can have changed state since its input's last check.
  if (config_.propagate_punctuations) {
    prop_hits_.clear();
    const long pos = FindPending(input, punctuation);
    if (pos >= 0) prop_hits_.push_back(static_cast<uint32_t>(pos));
    PropagateDelta(ts, Bit(input));
  }
}

void MJoinOperator::OnObserverSet() {
  for (auto& state : states_) state->SetObserver(obs_);
}

void MJoinOperator::Sweep(int64_t now) { RunSweep(now, 0, nullptr); }

template <typename Fn>
void MJoinOperator::Quietly(Fn&& fn) {
  const OperatorMetricsSnapshot op = metrics_.Snapshot();
  std::vector<StateMetricsSnapshot> saved;
  saved.reserve(num_inputs());
  for (const auto& s : states_) saved.push_back(s->metrics().Snapshot());
  fn();
  for (size_t k = 0; k < num_inputs(); ++k) {
    states_[k]->RestoreMetrics(saved[k]);
  }
  metrics_.removability_checks = op.removability_checks;
  metrics_.removability_aborts = op.removability_aborts;
  metrics_.propagation_checks = op.propagation_checks;
  metrics_.retirement_checks = op.retirement_checks;
}

void MJoinOperator::NoteAuditMismatch(const std::string& what) {
  if (audit_mismatches_++ == 0) audit_report_ = what;
}

void MJoinOperator::RunSweep(int64_t now, size_t trigger_input,
                             const Punctuation* trigger) {
  ++metrics_.purge_sweeps;
  punctuations_since_sweep_ = 0;
  const bool observing = obs::kCompiled && obs_ != nullptr;
  const int64_t sweep_start = observing ? obs::NowNs() : 0;
  const size_t m = num_inputs();

  // Slots carried by the previous sweep (marked sweep_stamp_ + 1)
  // become this sweep's candidates.
  if (sweep_stamp_ >= UINT32_MAX - 2) {
    for (auto& marks : marks_) std::fill(marks.begin(), marks.end(), 0);
    sweep_stamp_ = 1;
  }
  ++sweep_stamp_;
  for (size_t k = 0; k < m; ++k) {
    candidates_[k].swap(carried_[k]);
    carried_[k].clear();
  }
  scan_all_ = carry_scan_all_;
  carry_scan_all_ = 0;
  prop_hits_.clear();
  retire_cands_.clear();
  retire_full_ = false;
  const bool full = !CollectCandidates(now, trigger_input, trigger);
  if (full) {
    scan_all_ = purgeable_mask_;
    retire_full_ = true;
  }

  uint64_t purged_total = 0;
  uint64_t changed = 0;
  for (size_t k = 0; k < m; ++k) {
    if (!kernel_.purgeable(k)) continue;
    const size_t scratch_before = ExpandScratchCapacity();
    TupleStore& state = *states_[k];
    purged_.clear();
    aborted_.clear();
    if ((scan_all_ & Bit(k)) != 0) {
      ScanInput(k, now, &purged_, &aborted_);
    } else {
      for (size_t slot : candidates_[k]) {
        if (state.IsLive(slot)) {
          CheckSlot(k, slot, state.At(slot), now, &purged_, &aborted_);
        }
      }
      // Purge in live order, exactly as the scan would: the dense
      // live list's swap-remove order then matches too.
      std::sort(purged_.begin(), purged_.end(), [&](size_t a, size_t b) {
        return state.live_position(a) < state.live_position(b);
      });
    }
    if (audit_) {
      std::vector<size_t> full_purged;
      std::vector<size_t> full_aborted;
      Quietly([&] { ScanInput(k, now, &full_purged, &full_aborted); });
      std::vector<size_t> delta_purged = purged_;
      std::sort(delta_purged.begin(), delta_purged.end());
      std::sort(full_purged.begin(), full_purged.end());
      if (delta_purged != full_purged) {
        NoteAuditMismatch(StrCat("sweep ", metrics_.purge_sweeps.load(),
                                 " input ", k, ": delta purged ",
                                 delta_purged.size(), " slots, full scan ",
                                 full_purged.size()));
      }
    }
    // Aborted checks are retried every sweep.
    for (size_t slot : aborted_) AddCarry(k, slot);
    if (!purged_.empty()) {
      changed |= Bit(k);
      purged_total += purged_.size();
      state.PurgeSlots(purged_);
      // Purged payloads stay addressable until AdvanceEpoch. Their
      // join-connected tuples of later inputs are checked in this
      // sweep; those of earlier inputs, whose pass is over, in the
      // next one (the scan would also free them only one sweep later).
      BeginWalk();
      for (size_t slot : purged_) {
        const Tuple& gone = state.At(slot);
        QueueNeighbors(k, gone);
        NotePurgedForPropagation(k, gone);
        NotePurgedForRetirement(k, gone, now);
      }
      const uint64_t later = purgeable_mask_ & ~((Bit(k) << 1) - 1);
      const uint64_t earlier = purgeable_mask_ & (Bit(k) - 1);
      WalkJoinGraph(
          [&](size_t i, size_t slot) {
            if (i > k) {
              AddCandidate(i, slot);
            } else if (i < k) {
              AddCarry(i, slot);
            }
          },
          [&] {
            return (scan_all_ & later) == later &&
                   (carry_scan_all_ & earlier) == earlier;
          });
    }
    if (ExpandScratchCapacity() > scratch_before) {
      state.CountExpandAllocs(1);
    }
  }

  // Pending propagations: entries matched by a purged tuple, plus the
  // triggering punctuation's own entry when its input changed.
  if (config_.propagate_punctuations) {
    if (trigger != nullptr && (changed & Bit(trigger_input)) != 0) {
      const long pos = FindPending(trigger_input, *trigger);
      if (pos >= 0) prop_hits_.push_back(static_cast<uint32_t>(pos));
    }
    PropagateDelta(now, changed);
  }
  if (config_.purge_punctuations) Retire(now, retire_full_);
  // Epoch boundary: no probe results from this sweep are in flight
  // anymore, so purged payloads can be released and all-dead arena
  // blocks reclaimed wholesale.
  for (auto& state : states_) state->AdvanceEpoch();
  unswept_puncts_.clear();
  full_sweep_due_ = false;
  unswept_insert_max_ts_ = INT64_MIN;
  last_sweep_now_ = now;
  if (observing) obs_->RecordSweep(obs::NowNs() - sweep_start, purged_total);
}

bool MJoinOperator::CollectCandidates(int64_t now, size_t trigger_input,
                                      const Punctuation* trigger) {
  const size_t m = num_inputs();
  // Stored tuples not checked against the current stores: every
  // arrival under lazy and none, and (with lifespans) eager arrivals
  // checked at a later time than this sweep's, when more punctuations
  // were still unexpired.
  const bool lifespan = config_.punctuation_lifespan.has_value();
  const bool unchecked =
      config_.purge_policy != PurgePolicy::kEager ||
      (lifespan && unswept_insert_max_ts_ > now);
  for (size_t k = 0; k < m; ++k) {
    const size_t from = swept_slot_end_[k];
    const size_t end = states_[k]->slot_end();
    swept_slot_end_[k] = end;
    if (!unchecked || !kernel_.purgeable(k)) continue;
    if (end - from + candidates_[k].size() >= states_[k]->live_count()) {
      scan_all_ |= Bit(k);
      continue;
    }
    for (size_t slot = from; slot < end; ++slot) {
      if (states_[k]->IsLive(slot)) AddCandidate(k, slot);
    }
  }
  // The rule that makes a restored operator, or one whose sweeps go
  // back in time under lifespans (coverage can then grow without a new
  // punctuation), sweep in full.
  if (full_sweep_due_ || (lifespan && now < last_sweep_now_)) return false;

  const bool eager = config_.purge_policy == PurgePolicy::kEager;
  BeginWalk();
  if (eager && trigger != nullptr && !QueueSeeds(trigger_input, *trigger)) {
    return false;
  }
  for (const auto& [input, p] : unswept_puncts_) {
    if (!QueueSeeds(input, p)) return false;
  }
  WalkJoinGraph([&](size_t i, size_t slot) { AddCandidate(i, slot); },
                [&] {
                  return (scan_all_ & purgeable_mask_) == purgeable_mask_;
                });

  if (config_.purge_punctuations) {
    bool located = true;
    if (eager && trigger != nullptr) {
      located = NoteRetirementTrigger(trigger_input, *trigger);
    }
    for (const auto& [input, p] : unswept_puncts_) {
      located = located && NoteRetirementTrigger(input, p);
    }
    if (!located) retire_full_ = true;
  }
  return true;
}

bool MJoinOperator::QueueSeeds(size_t j, const Punctuation& p) {
  size_t first = p.arity();
  for (size_t a = 0; a < p.arity(); ++a) {
    if (!p.pattern(a).is_wildcard()) {
      first = a;
      break;
    }
  }
  if (first == p.arity()) return false;  // all-wildcard: closes everything
  // p can newly close input j for a tuple only through an edge into j
  // whose target signature contains every constrained attribute of p,
  // and only for joinable rows carrying p's constants — rows holding a
  // source tuple whose binding value equals p's constant.
  for (const PurgeKernel::Edge& edge : kernel_.edges()) {
    if (edge.target_input != j) continue;
    const std::vector<size_t>& targets = edge.target_offsets;
    size_t first_pos = targets.size();
    bool covers = true;
    for (size_t a = 0; a < p.arity() && covers; ++a) {
      if (p.pattern(a).is_wildcard()) continue;
      auto it = std::find(targets.begin(), targets.end(), a);
      covers = it != targets.end();
      if (covers && a == first) {
        first_pos = static_cast<size_t>(it - targets.begin());
      }
    }
    if (!covers) continue;
    const PurgeKernel::Edge::Source& src = edge.sources[first_pos];
    QueueKey(src.input, src.offset, &p.pattern(first).constant());
  }
  return true;
}

void MJoinOperator::CheckSlot(size_t k, size_t slot, const Tuple& t,
                              int64_t now, std::vector<size_t>* removable,
                              std::vector<size_t>* aborted) {
  switch (Check(k, t, now)) {
    case PurgeKernel::Verdict::kRemovable:
      removable->push_back(slot);
      break;
    case PurgeKernel::Verdict::kAborted:
      aborted->push_back(slot);
      break;
    case PurgeKernel::Verdict::kKept:
      break;
  }
}

void MJoinOperator::ScanInput(size_t k, int64_t now,
                              std::vector<size_t>* removable,
                              std::vector<size_t>* aborted) {
  states_[k]->ForEachLive([&](size_t slot, const Tuple& t) {
    CheckSlot(k, slot, t, now, removable, aborted);
  });
}

void MJoinOperator::BeginWalk() {
  walk_queue_.clear();
  key_count_ = 0;
  if (++key_stamp_ == 0) {  // wrapped: forget every old stamp
    std::fill(key_slots_.begin(), key_slots_.end(), KeySlot{});
    key_stamp_ = 1;
  }
  if (key_slots_.empty()) key_slots_.resize(64);
}

void MJoinOperator::GrowKeySlots() {
  // Fresh slots carry stamp 0, never a live stamp (those start at 1).
  std::vector<KeySlot> old(key_slots_.size() * 2);
  old.swap(key_slots_);
  const size_t mask = key_slots_.size() - 1;
  for (const KeySlot& slot : old) {
    if (slot.stamp != key_stamp_) continue;
    size_t i = KeySlotHash(slot.input, slot.offset, *slot.value) & mask;
    while (key_slots_[i].stamp == key_stamp_) i = (i + 1) & mask;
    key_slots_[i] = slot;
  }
}

void MJoinOperator::QueueKey(size_t input, size_t offset, const Value* value) {
  if ((key_count_ + 1) * 2 > key_slots_.size()) GrowKeySlots();
  const size_t mask = key_slots_.size() - 1;
  size_t i = KeySlotHash(input, offset, *value) & mask;
  while (key_slots_[i].stamp == key_stamp_) {
    const KeySlot& slot = key_slots_[i];
    if (slot.input == input && slot.offset == offset &&
        *slot.value == *value) {
      return;  // this bucket is already queued
    }
    i = (i + 1) & mask;
  }
  key_slots_[i] = {value, static_cast<uint32_t>(input),
                   static_cast<uint32_t>(offset), key_stamp_};
  ++key_count_;
  walk_queue_.push_back({static_cast<uint32_t>(input),
                         static_cast<uint32_t>(offset), value});
}

void MJoinOperator::QueueNeighbors(size_t input, const Tuple& tuple) {
  for (size_t pi : kernel_.predicates_of_input(input)) {
    const PurgeKernel::Predicate& p = kernel_.predicates()[pi];
    QueueKey(p.Other(input), p.OffsetOnOther(input),
             &tuple.at(p.OffsetOn(input)));
  }
}

template <typename Visit, typename Stop>
void MJoinOperator::WalkJoinGraph(Visit&& visit, Stop&& stop) {
  // The queue grows while it is walked; keys are copied out first. The
  // walk reads buckets directly: it is purge bookkeeping, not a join
  // probe, so StateMetrics::probes does not count it.
  for (size_t head = 0; head < walk_queue_.size() && !stop(); ++head) {
    const WalkKey key = walk_queue_[head];
    const TupleStore& store = *states_[key.input];
    const TupleStore::Bucket* bucket = store.FindBucket(key.offset, *key.value);
    if (bucket == nullptr) continue;
    for (size_t slot : *bucket) {
      if (!store.IsLive(slot)) continue;
      visit(key.input, slot);
      QueueNeighbors(key.input, store.At(slot));
    }
  }
}

uint32_t& MJoinOperator::Mark(size_t input, size_t slot) {
  std::vector<uint32_t>& marks = marks_[input];
  if (slot >= marks.size()) marks.resize(states_[input]->slot_end(), 0);
  return marks[slot];
}

void MJoinOperator::AddCandidate(size_t input, size_t slot) {
  if ((purgeable_mask_ & ~scan_all_ & Bit(input)) == 0) return;
  uint32_t& mark = Mark(input, slot);
  if (mark == sweep_stamp_) return;
  mark = sweep_stamp_;
  candidates_[input].push_back(slot);
  if (candidates_[input].size() >= states_[input]->live_count()) {
    scan_all_ |= Bit(input);  // as many checks as a scan: scan instead
  }
}

void MJoinOperator::AddCarry(size_t input, size_t slot) {
  if ((purgeable_mask_ & ~carry_scan_all_ & Bit(input)) == 0) return;
  uint32_t& mark = Mark(input, slot);
  if (mark == sweep_stamp_ + 1) return;
  mark = sweep_stamp_ + 1;
  carried_[input].push_back(slot);
  if (carried_[input].size() >= states_[input]->live_count()) {
    carry_scan_all_ |= Bit(input);
  }
}

size_t MJoinOperator::PendingKeyHash(size_t input,
                                     const Punctuation& p) const {
  size_t seed = TupleHashStep(kTupleHashSeed, input);
  for (size_t a = 0; a < p.arity(); ++a) {
    if (p.pattern(a).is_wildcard()) continue;
    seed = TupleHashStep(TupleHashStep(seed, a),
                         p.pattern(a).constant().Hash());
  }
  return seed;
}

long MJoinOperator::FindPending(size_t input, const Punctuation& p) const {
  auto [it, end] = pending_index_.equal_range(PendingKeyHash(input, p));
  for (; it != end; ++it) {
    const PendingPropagation& entry = pending_[it->second];
    if (entry.live && entry.input == input && entry.punctuation == p) {
      return static_cast<long>(it->second);
    }
  }
  return -1;
}

void MJoinOperator::AddPending(size_t input, const Punctuation& p) {
  if (FindPending(input, p) >= 0) return;
  pending_index_.emplace(PendingKeyHash(input, p),
                         static_cast<uint32_t>(pending_.size()));
  pending_.push_back({input, p, true});
  ++pending_live_;
}

void MJoinOperator::NotePurgedForPropagation(size_t input,
                                             const Tuple& tuple) {
  if (!config_.propagate_punctuations) return;
  // An unverified input's next change re-checks all its entries anyway.
  if ((pending_unverified_ & Bit(input)) != 0) return;
  // A pending entry is blocked only by live tuples it matches, so a
  // purge can unblock exactly the entries whose constants the purged
  // tuple carries: one lookup per propagatable signature.
  for (const std::vector<size_t>& signature : propagatable_signatures_[input]) {
    size_t seed = TupleHashStep(kTupleHashSeed, input);
    for (size_t a : signature) {
      seed = TupleHashStep(TupleHashStep(seed, a), tuple.HashAt(a));
    }
    auto [it, end] = pending_index_.equal_range(seed);
    for (; it != end; ++it) {
      const PendingPropagation& entry = pending_[it->second];
      if (entry.live && entry.input == input &&
          entry.punctuation.Matches(tuple)) {
        prop_hits_.push_back(it->second);
      }
    }
  }
}

bool MJoinOperator::PropagationBlocked(const PendingPropagation& entry) {
  ++metrics_.propagation_checks;
  // A pending punctuation is blocked while a stored tuple still
  // matches it; probe the state via an index where possible.
  const Punctuation& p = entry.punctuation;
  const TupleStore& store = *states_[entry.input];
  for (size_t a = 0; a < p.arity(); ++a) {
    if (p.pattern(a).is_wildcard() || !store.HasIndexOn(a)) continue;
    return store.AnyMatch(a, p.pattern(a).constant(),
                          [&](const Tuple& t) { return p.Matches(t); });
  }
  return store.AnyLive([&](const Tuple& t) { return p.Matches(t); });
}

void MJoinOperator::FullPropagationList(uint64_t changed,
                                        std::vector<uint32_t>* out) {
  for (size_t pos = 0; pos < pending_.size(); ++pos) {
    const PendingPropagation& entry = pending_[pos];
    if (entry.live && (changed & Bit(entry.input)) != 0 &&
        !PropagationBlocked(entry)) {
      out->push_back(static_cast<uint32_t>(pos));
    }
  }
}

void MJoinOperator::PropagateDelta(int64_t now, uint64_t changed) {
  // Inputs unverified since a restore get the full rule once.
  const uint64_t unverified = pending_unverified_ & changed;
  if (unverified != 0) {
    for (size_t pos = 0; pos < pending_.size(); ++pos) {
      if (pending_[pos].live && (unverified & Bit(pending_[pos].input)) != 0) {
        prop_hits_.push_back(static_cast<uint32_t>(pos));
      }
    }
    pending_unverified_ &= ~unverified;
  }
  // Arrival order is position order.
  std::sort(prop_hits_.begin(), prop_hits_.end());
  prop_hits_.erase(std::unique(prop_hits_.begin(), prop_hits_.end()),
                   prop_hits_.end());
  size_t unblocked = 0;
  for (uint32_t pos : prop_hits_) {
    if (!PropagationBlocked(pending_[pos])) prop_hits_[unblocked++] = pos;
  }
  prop_hits_.resize(unblocked);
  if (audit_) {
    std::vector<uint32_t> full;
    Quietly([&] { FullPropagationList(changed, &full); });
    if (full != prop_hits_) {
      NoteAuditMismatch(StrCat("propagation at ", now, ": delta emits ",
                               prop_hits_.size(), " punctuations, full rule ",
                               full.size()));
    }
  }
  EmitPropagations(now, prop_hits_);
  prop_hits_.clear();
  CompactPending();
}

void MJoinOperator::EmitPropagations(int64_t now,
                                     const std::vector<uint32_t>& positions) {
  for (uint32_t pos : positions) {
    PendingPropagation& entry = pending_[pos];
    Emit(StreamElement::OfPunctuation(
        RebaseToOutput(entry.input, entry.punctuation), now));
    ++metrics_.punctuations_propagated;
    if (obs::kCompiled && obs_ != nullptr) {
      obs_->Note(obs::TraceKind::kPunctOut, entry.input);
    }
    auto [it, end] = pending_index_.equal_range(
        PendingKeyHash(entry.input, entry.punctuation));
    for (; it != end; ++it) {
      if (it->second == pos) {
        pending_index_.erase(it);
        break;
      }
    }
    entry.live = false;
    entry.punctuation = Punctuation();
    --pending_live_;
  }
}

void MJoinOperator::CompactPending() {
  // Emitted entries leave holes; squeeze them out once they dominate.
  if (pending_.size() < 64 || pending_.size() <= 2 * pending_live_) return;
  size_t kept = 0;
  for (size_t pos = 0; pos < pending_.size(); ++pos) {
    if (!pending_[pos].live) continue;
    if (kept != pos) pending_[kept] = std::move(pending_[pos]);
    ++kept;
  }
  pending_.resize(kept);
  pending_index_.clear();
  for (size_t pos = 0; pos < pending_.size(); ++pos) {
    pending_index_.emplace(
        PendingKeyHash(pending_[pos].input, pending_[pos].punctuation),
        static_cast<uint32_t>(pos));
  }
}

bool MJoinOperator::Retirable(size_t v, const Punctuation& p, int64_t now) {
  // A punctuation p on input v exists to close join values that
  // partner inputs wait on. Once every predicate (u.x = v.y) with y
  // constrained by p has (a) u's own punctuation store excluding
  // {x = p[y]} — no future u tuple will wait on it — and (b) no live
  // u tuple with x = p[y] — nothing stored waits on it — p carries no
  // information the system still needs (paper Section 5.1; the binary
  // case is the paper's (*, b1)-retires-(b1, *) example). Punctuations
  // whose constrained attributes include a non-join attribute are
  // kept: they still deduplicate late arrivals on their own input.
  ++metrics_.retirement_checks;
  bool touches_join = false;
  for (size_t y = 0; y < p.arity(); ++y) {
    if (p.pattern(y).is_wildcard()) continue;
    for (size_t pi : kernel_.predicates_of_input(v)) {
      const PurgeKernel::Predicate& pred = kernel_.predicates()[pi];
      if (pred.OffsetOn(v) != y) continue;
      touches_join = true;
      const size_t u = pred.Other(v);
      retire_attr_.assign(1, pred.OffsetOnOther(v));
      const Value& value = p.pattern(y).constant();
      if (!punct_stores_[u]->CoversSubspace(
              retire_attr_, std::span<const Value>(&value, 1), now)) {
        return false;  // future u tuples may still need p
      }
      if (states_[u]->AnyMatch(retire_attr_[0], value,
                               [](const Tuple&) { return true; })) {
        return false;  // a stored u tuple still waits on p
      }
    }
    // A constrained non-join attribute neither helps nor blocks: the
    // join-attribute conditions decide.
  }
  return touches_join;
}

bool MJoinOperator::NoteRetirementTrigger(size_t input,
                                          const Punctuation& p) {
  size_t constrained = 0;
  size_t attr = 0;
  for (size_t a = 0; a < p.arity(); ++a) {
    if (p.pattern(a).is_wildcard()) continue;
    ++constrained;
    attr = a;
  }
  // An all-wildcard punctuation closes every value of its input, so
  // any partner punctuation may have become obsolete.
  if (constrained == 0) return false;
  if (const Punctuation* stored = punct_stores_[input]->Find(p)) {
    retire_cands_.push_back({input, stored});
  }
  // Only a single-attribute punctuation can satisfy a partner's
  // condition (a): CoversSubspace over the one attribute {x}.
  if (constrained != 1) return true;
  for (size_t pi : kernel_.predicates_of_input(input)) {
    const PurgeKernel::Predicate& pred = kernel_.predicates()[pi];
    if (pred.OffsetOn(input) != attr) continue;
    const size_t v = pred.Other(input);
    punct_stores_[v]->ForEachWithConstant(
        pred.OffsetOnOther(input), p.pattern(attr).constant(),
        [&](const Punctuation& q) { retire_cands_.push_back({v, &q}); });
  }
  return true;
}

void MJoinOperator::NotePurgedForRetirement(size_t input, const Tuple& tuple,
                                            int64_t now) {
  if (!config_.purge_punctuations) return;
  // The purge may have removed the last stored tuple condition (b)
  // waited on, for partner punctuations carrying its join values.
  for (size_t pi : kernel_.predicates_of_input(input)) {
    const PurgeKernel::Predicate& pred = kernel_.predicates()[pi];
    const size_t v = pred.Other(input);
    const Value& value = tuple.at(pred.OffsetOn(input));
    // Those partners also need condition (a) through this predicate:
    // this input's own store excluding {x = value}. Without it none of
    // them can retire (coverage cannot grow before Retire runs), so
    // skip the lookup — and the scan of multi-attribute groups, whose
    // pair punctuations (the sensor query's) may never retire at all.
    retire_attr_.assign(1, pred.OffsetOn(input));
    if (!punct_stores_[input]->CoversSubspace(
            retire_attr_, std::span<const Value>(&value, 1), now)) {
      continue;
    }
    punct_stores_[v]->ForEachWithConstant(
        pred.OffsetOnOther(input), value,
        [&](const Punctuation& q) { retire_cands_.push_back({v, &q}); });
  }
}

void MJoinOperator::FullRetirementList(
    int64_t now, std::vector<std::pair<size_t, const Punctuation*>>* out) {
  for (size_t v = 0; v < num_inputs(); ++v) {
    punct_stores_[v]->ForEach([&](const Punctuation& p) {
      if (Retirable(v, p, now)) out->push_back({v, &p});
    });
  }
}

void MJoinOperator::Retire(int64_t now, bool full) {
  // Conditions are evaluated against a snapshot and the removals
  // applied afterwards: two punctuations that justify each other's
  // retirement both go — exclusion is a property of the stream
  // contract, not of the store that recorded it.
  std::vector<std::pair<size_t, const Punctuation*>>& cands = retire_cands_;
  auto by_pointer = [](const auto& a, const auto& b) {
    return a.second < b.second;
  };
  if (full) {
    cands.clear();
    FullRetirementList(now, &cands);
  } else {
    std::sort(cands.begin(), cands.end(), by_pointer);
    cands.erase(std::unique(cands.begin(), cands.end()), cands.end());
    size_t kept = 0;
    for (const auto& cand : cands) {
      if (Retirable(cand.first, *cand.second, now)) cands[kept++] = cand;
    }
    cands.resize(kept);
  }
  if (audit_) {
    std::vector<std::pair<size_t, const Punctuation*>> expected;
    Quietly([&] { FullRetirementList(now, &expected); });
    std::sort(expected.begin(), expected.end(), by_pointer);
    std::vector<std::pair<size_t, const Punctuation*>> got = cands;
    std::sort(got.begin(), got.end(), by_pointer);
    if (got != expected) {
      NoteAuditMismatch(StrCat("retirement at ", now, ": delta retires ",
                               got.size(), " punctuations, full rule ",
                               expected.size()));
    }
  }
  for (const auto& [v, p] : cands) {
    punctuations_purged_ += punct_stores_[v]->Remove(*p) ? 1 : 0;
  }
  cands.clear();
  metrics_.OnPunctuationsLive(TotalLivePunctuations());
}

Punctuation MJoinOperator::RebaseToOutput(size_t input,
                                          const Punctuation& p) const {
  std::vector<Pattern> patterns(output_width_);
  for (const CopySegment& seg : copy_plan_) {
    if (seg.input != input) continue;
    for (size_t i = 0; i < seg.len; ++i) {
      patterns[seg.to + i] = p.pattern(seg.from + i);
    }
  }
  return Punctuation(std::move(patterns));
}

OperatorStateSnapshot MJoinOperator::CaptureState() const {
  OperatorStateSnapshot snap;
  snap.inputs.resize(num_inputs());
  for (size_t k = 0; k < num_inputs(); ++k) {
    InputStateSnapshot& in = snap.inputs[k];
    in.tuples.reserve(states_[k]->live_count());
    // Copying out of ForEachLive materializes owning tuples, so the
    // snapshot stays valid past any arena epoch.
    states_[k]->ForEachLive(
        [&](size_t, const Tuple& t) { in.tuples.push_back(t); });
    punct_stores_[k]->ForEachEntry(
        [&](const Punctuation& p, int64_t arrival) {
          in.punctuations.push_back({p, arrival});
        });
    in.state_metrics = states_[k]->metrics().Snapshot();
  }
  snap.pending.reserve(pending_live_);
  for (const PendingPropagation& p : pending_) {
    if (!p.live) continue;
    snap.pending.push_back({static_cast<uint32_t>(p.input), p.punctuation});
  }
  snap.op_metrics = metrics_.Snapshot();
  snap.punctuations_purged = punctuations_purged_;
  snap.punctuations_since_sweep = punctuations_since_sweep_;
  return snap;
}

Status MJoinOperator::RestoreState(const OperatorStateSnapshot& snapshot) {
  if (snapshot.inputs.size() != num_inputs()) {
    return Status::InvalidArgument(
        "snapshot has " + std::to_string(snapshot.inputs.size()) +
        " inputs but the operator has " + std::to_string(num_inputs()));
  }
  if (TotalLiveTuples() != 0 || TotalLivePunctuations() != 0 ||
      pending_live_ != 0) {
    return Status::FailedPrecondition(
        "RestoreState requires a freshly created operator");
  }
  for (size_t k = 0; k < num_inputs(); ++k) {
    const InputStateSnapshot& in = snapshot.inputs[k];
    for (const PunctuationEntry& e : in.punctuations) {
      if (e.punctuation.arity() != kernel_.width(k)) {
        return Status::InvalidArgument(
            "snapshot punctuation arity does not match input " +
            std::to_string(k));
      }
      punct_stores_[k]->Add(e.punctuation, e.arrival);
    }
    for (const Tuple& t : in.tuples) {
      if (t.size() != kernel_.width(k)) {
        return Status::InvalidArgument(
            "snapshot tuple width does not match input " +
            std::to_string(k));
      }
      states_[k]->Insert(t);
    }
    states_[k]->RestoreMetrics(in.state_metrics);
  }
  for (const PendingPropagationSnapshot& p : snapshot.pending) {
    if (p.input >= num_inputs()) {
      return Status::InvalidArgument(
          "snapshot pending propagation names input " +
          std::to_string(p.input));
    }
    // Appended as captured (no dedup): restore reproduces the entries.
    pending_index_.emplace(PendingKeyHash(p.input, p.punctuation),
                           static_cast<uint32_t>(pending_.size()));
    pending_.push_back({p.input, p.punctuation, true});
    ++pending_live_;
  }
  metrics_.RestoreFrom(snapshot.op_metrics);
  punctuations_purged_ = snapshot.punctuations_purged;
  punctuations_since_sweep_ =
      static_cast<size_t>(snapshot.punctuations_since_sweep);
  // The delta bookkeeping (carried slots, unswept punctuations) is not
  // part of the snapshot: the next sweep scans in full, and every
  // restored pending entry is re-checked at its input's next change.
  full_sweep_due_ = true;
  pending_unverified_ = ~uint64_t{0};
  return Status::OK();
}

void MJoinOperator::RecheckPropagations(int64_t now) {
  // The recheck reconstructs transient coordination state (a sharded
  // restore re-emits punctuations whose aligner votes the crash
  // discarded); the restored counters already account for the original
  // probes and emissions, so the pass must not double-count them —
  // capture -> restore -> capture stays byte-identical.
  std::vector<StateMetricsSnapshot> saved;
  saved.reserve(num_inputs());
  for (const auto& s : states_) saved.push_back(s->metrics().Snapshot());
  const uint64_t propagated =
      metrics_.punctuations_propagated.load(std::memory_order_relaxed);

  if (config_.propagate_punctuations) {
    std::vector<uint32_t> unblocked;
    FullPropagationList(~uint64_t{0}, &unblocked);
    EmitPropagations(now, unblocked);
    pending_unverified_ = 0;
    CompactPending();
  }

  for (size_t k = 0; k < num_inputs(); ++k) {
    states_[k]->RestoreMetrics(saved[k]);
  }
  metrics_.punctuations_propagated.store(propagated,
                                         std::memory_order_relaxed);
}

StateMetricsSnapshot MJoinOperator::AggregateStateSnapshot() const {
  StateMetricsSnapshot total;
  for (const auto& s : states_) total += s->metrics().Snapshot();
  return total;
}

size_t MJoinOperator::TotalLiveTuples() const {
  size_t total = 0;
  for (const auto& s : states_) total += s->live_count();
  return total;
}

size_t MJoinOperator::TotalLivePunctuations() const {
  size_t total = 0;
  for (const auto& s : punct_stores_) total += s->size();
  return total;
}

}  // namespace punctsafe
