// The paper's second purge model (Section 2.4): instead of extending
// each join operator with purge logic (the operator-local model that
// MJoinOperator implements), a *separate purge engine* tracks the raw
// streams' states and punctuations and decides purgeability at the
// level of the whole query — so purgeability depends only on the
// query, never on the execution plan's shape.
//
// The practical consequence the paper points at: a plan that is
// unsafe under operator-local purging (Figure 7's binary tree, whose
// lower join cannot purge S1) can still run in bounded *source* state
// when the engine, knowing the whole query, releases tuples that no
// operator could release locally. The engine answers exactly the
// Theorem 1/3 question per stored tuple, via the same generalized
// chained purge machinery the MJoin uses — applied to the query-level
// graph instead of an operator-local one.

#ifndef PUNCTSAFE_EXEC_PURGE_ENGINE_H_
#define PUNCTSAFE_EXEC_PURGE_ENGINE_H_

#include <memory>
#include <optional>
#include <vector>

#include "exec/punctuation_store.h"
#include "exec/purge_kernel.h"
#include "exec/tuple_store.h"
#include "obs/observability.h"
#include "query/cjq.h"
#include "stream/scheme.h"
#include "util/status.h"

namespace punctsafe {

struct PurgeEngineConfig {
  std::optional<int64_t> punctuation_lifespan;
  /// Joinable-set cap during removability checks (conservative abort).
  size_t max_joinable_set = 4096;
  /// Arena-backed tuple storage with epoch reclamation (see
  /// TupleStoreOptions::arena).
  bool arena = true;
};

class PurgeEngine {
 public:
  /// \brief Builds the engine for a query under a scheme set. Streams
  /// whose query-level state is unpurgeable (Theorem 3) are tracked
  /// but never released; StreamPurgeable reports which.
  static Result<std::unique_ptr<PurgeEngine>> Create(
      const ContinuousJoinQuery& query, const SchemeSet& schemes,
      PurgeEngineConfig config = {});

  /// \brief Records an arriving raw tuple; returns its slot id.
  size_t AddTuple(size_t stream, const Tuple& tuple, int64_t ts);

  /// \brief Records a whole batch of raw tuples on `stream`: one
  /// observation note per batch (watermark folded over the rows) and
  /// a bulk store insert. Equivalent to per-row AddTuple.
  void AddTupleBatch(size_t stream, TupleBatch& batch);

  /// \brief Records an arriving raw punctuation.
  void AddPunctuation(size_t stream, const Punctuation& punctuation,
                      int64_t ts);

  /// \brief Theorem 1/3 verdict per stream (static).
  bool StreamPurgeable(size_t stream) const {
    return kernel_.purgeable(stream);
  }

  /// \brief Runs a purge pass: every stored tuple whose generalized
  /// chained purge condition holds is released. Returns the released
  /// (stream, slot) pairs so plan operators can evict mirrored state.
  std::vector<std::pair<size_t, size_t>> Sweep(int64_t now);

  /// \brief Whether a specific stored tuple is releasable right now
  /// (exposed for tests and for operators that pull).
  bool Removable(size_t stream, const Tuple& tuple, int64_t now) const;

  /// \brief Removability checks abandoned because the joinable set
  /// outgrew max_joinable_set (the tuple was conservatively kept).
  uint64_t removability_aborts() const { return removability_aborts_; }

  size_t TotalLiveTuples() const;
  size_t live_count(size_t stream) const {
    return states_[stream]->live_count();
  }

  /// \brief Attaches an observation point (nullable); forwarded to the
  /// per-stream tuple stores so their epoch advances trace too. The
  /// engine is single-threaded, so one OperatorObs covers all streams.
  void SetObserver(obs::OperatorObs* observer);

 private:
  PurgeEngine() = default;

  PurgeEngineConfig config_;
  // Layout, edges, expansion and the removability fixpoint, shared
  // with MJoinOperator (exec/purge_kernel.h).
  PurgeKernel kernel_;
  std::vector<std::unique_ptr<TupleStore>> states_;
  std::vector<std::unique_ptr<PunctuationStore>> punct_stores_;
  obs::OperatorObs* obs_ = nullptr;

  mutable uint64_t removability_aborts_ = 0;
  std::vector<size_t> sweep_scratch_;
};

}  // namespace punctsafe

#endif  // PUNCTSAFE_EXEC_PURGE_ENGINE_H_
