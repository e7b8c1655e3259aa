#include "exec/purge_engine.h"

#include "core/plan_safety.h"
#include "util/logging.h"

namespace punctsafe {

Result<std::unique_ptr<PurgeEngine>> PurgeEngine::Create(
    const ContinuousJoinQuery& query, const SchemeSet& schemes,
    PurgeEngineConfig config) {
  // Query-level graph: one "input" per raw stream.
  std::vector<LocalInput> inputs;
  for (size_t s = 0; s < query.num_streams(); ++s) {
    inputs.push_back({{s}, RawAvailableSchemes(query, schemes, s)});
  }
  Result<PurgeKernel> kernel =
      PurgeKernel::Create(query, inputs, config.max_joinable_set);
  if (!kernel.ok()) return kernel.status();
  auto engine = std::unique_ptr<PurgeEngine>(new PurgeEngine());
  engine->config_ = config;
  engine->kernel_ = std::move(kernel).ValueOrDie();
  std::vector<const TupleStore*> states;
  std::vector<const PunctuationStore*> puncts;
  for (size_t s = 0; s < query.num_streams(); ++s) {
    engine->states_.push_back(std::make_unique<TupleStore>(
        engine->kernel_.IndexedOffsets(s),
        TupleStoreOptions{.arena = config.arena}));
    engine->punct_stores_.push_back(
        std::make_unique<PunctuationStore>(config.punctuation_lifespan));
    states.push_back(engine->states_.back().get());
    puncts.push_back(engine->punct_stores_.back().get());
  }
  engine->kernel_.Attach(std::move(states), std::move(puncts));
  return engine;
}

size_t PurgeEngine::AddTuple(size_t stream, const Tuple& tuple,
                             int64_t ts) {
  PUNCTSAFE_CHECK(stream < states_.size());
  if (obs::kCompiled && obs_ != nullptr) {
    obs_->NoteTupleTs(ts);
    obs_->Note(obs::TraceKind::kTupleIn, stream, 0);
  }
  return states_[stream]->Insert(tuple);
}

void PurgeEngine::AddTupleBatch(size_t stream, TupleBatch& batch) {
  PUNCTSAFE_CHECK(stream < states_.size());
  if (batch.empty()) return;
  if (obs::kCompiled && obs_ != nullptr) {
    // Per-batch sampling: one watermark fold and one ring event for
    // the whole batch instead of two notes per row.
    obs_->NoteTupleTs(batch.max_timestamp());
    obs_->Note(obs::TraceKind::kTupleIn, stream, 0);
  }
  batch.SelectAll();
  states_[stream]->InsertBatch(batch);
}

void PurgeEngine::AddPunctuation(size_t stream,
                                 const Punctuation& punctuation,
                                 int64_t ts) {
  PUNCTSAFE_CHECK(stream < punct_stores_.size());
  if (obs::kCompiled && obs_ != nullptr) obs_->RecordPunctuation(stream, ts);
  if (config_.punctuation_lifespan.has_value()) {
    for (auto& store : punct_stores_) store->ExpireBefore(ts);
  }
  punct_stores_[stream]->Add(punctuation, ts);
}

bool PurgeEngine::Removable(size_t stream, const Tuple& tuple,
                            int64_t now) const {
  const PurgeKernel::Verdict verdict = kernel_.Removable(stream, tuple, now);
  if (verdict == PurgeKernel::Verdict::kAborted) ++removability_aborts_;
  return verdict == PurgeKernel::Verdict::kRemovable;
}

void PurgeEngine::SetObserver(obs::OperatorObs* observer) {
  obs_ = observer;
  for (auto& state : states_) state->SetObserver(observer);
}

std::vector<std::pair<size_t, size_t>> PurgeEngine::Sweep(int64_t now) {
  const bool observing = obs::kCompiled && obs_ != nullptr;
  const int64_t sweep_start = observing ? obs::NowNs() : 0;
  std::vector<std::pair<size_t, size_t>> released;
  for (size_t s = 0; s < states_.size(); ++s) {
    if (!kernel_.purgeable(s)) continue;
    sweep_scratch_.clear();
    states_[s]->ForEachLive([&](size_t slot, const Tuple& t) {
      if (Removable(s, t, now)) sweep_scratch_.push_back(slot);
    });
    for (size_t slot : sweep_scratch_) released.emplace_back(s, slot);
    states_[s]->PurgeSlots(sweep_scratch_);
  }
  // Epoch boundary: release purged payloads and reclaim all-dead
  // arena blocks.
  for (auto& state : states_) state->AdvanceEpoch();
  if (observing) {
    obs_->RecordSweep(obs::NowNs() - sweep_start, released.size());
  }
  return released;
}

size_t PurgeEngine::TotalLiveTuples() const {
  size_t total = 0;
  for (const auto& s : states_) total += s->live_count();
  return total;
}

}  // namespace punctsafe
