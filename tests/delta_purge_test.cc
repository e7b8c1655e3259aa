// The incremental (delta) purge path of MJoinOperator:
//  * flat cost — the auction shape at 64 and at 6,400 open auctions
//    does the same removability, pending-propagation and retirement
//    work per punctuation, and the sensor query's retirement work per
//    punctuation does not grow with the epochs it has seen;
//  * audit — with the test-only audit on, every sweep of random
//    queries and of the sensor query (generalized graph only) must
//    purge, retire and propagate exactly what the full scan would,
//    across policies, retirement, lifespans, batching, tiny
//    joinable-set caps and checkpoint restores; a hand-built query
//    pins the purge-neighbour rules, which random queries rarely need;
//  * aborts — a check that outgrows max_joinable_set is counted (in
//    the operator, the purge engine and the obs JSONL) and retried
//    until the tuple goes;
//  * allocations — the eager arrival check of a bid dropped on arrival
//    allocates nothing once warm (global operator new is replaced in
//    this binary only, counting inside a window).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/plan_safety.h"
#include "exec/input_manager.h"
#include "exec/mjoin.h"
#include "exec/plan_executor.h"
#include "exec/purge_engine.h"
#include "exec/query_register.h"
#include "obs/exporter.h"
#include "test_util.h"
#include "util/logging.h"
#include "workload/auction.h"
#include "workload/random_query.h"
#include "workload/sensor.h"

namespace {

std::atomic<bool> g_count_allocs{false};
std::atomic<uint64_t> g_allocs{0};

void* CountedAlloc(std::size_t n) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

// Every form that pairs with the plain deletes below is replaced, so
// no allocation reaches free() from another allocator (the sanitizer
// runtimes check new/free pairing).
void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(n);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace punctsafe {
namespace {

using testing_util::PaperCatalog;
using testing_util::SchemeOn;

int64_t MaxTimestamp(const Trace& trace) {
  int64_t max_ts = 0;
  for (const TraceEvent& e : trace) {
    max_ts = std::max(max_ts, e.element.timestamp);
  }
  return max_ts;
}

// --- flat cost -------------------------------------------------------

struct AuctionWork {
  double checks_per_punct = 0;
  double propagation_checks_per_punct = 0;
  double retirement_checks_per_punct = 0;
  uint64_t results = 0;
  size_t final_live = 0;
};

AuctionWork RunAuction(size_t open) {
  QueryRegister reg;
  PUNCTSAFE_CHECK_OK(AuctionWorkload::Setup(&reg));
  ExecutorConfig config;
  config.mjoin.purge_punctuations = true;
  auto rq = reg.Register(AuctionWorkload::QueryStreams(),
                         AuctionWorkload::QueryPredicates(), config);
  PUNCTSAFE_CHECK(rq.ok()) << rq.status().ToString();
  AuctionConfig ac;
  ac.num_items = 3 * open;
  ac.max_open = open;
  ac.bids_per_item = 4;
  ac.seed = 7;
  PUNCTSAFE_CHECK_OK(FeedTrace(rq->executor.get(),
                               AuctionWorkload::Generate(ac)));
  const MJoinOperator& op = *rq->executor->operators()[0];
  OperatorMetricsSnapshot m = op.metrics().Snapshot();
  const double puncts = static_cast<double>(m.punctuations_received);
  AuctionWork work;
  work.checks_per_punct = m.removability_checks / puncts;
  work.propagation_checks_per_punct = m.propagation_checks / puncts;
  work.retirement_checks_per_punct = m.retirement_checks / puncts;
  work.results = rq->executor->num_results();
  work.final_live = rq->executor->TotalLiveTuples();
  return work;
}

TEST(DeltaPurgeTest, WorkPerPunctuationIsFlatFrom64To6400OpenAuctions) {
  const AuctionWork small = RunAuction(64);
  const AuctionWork large = RunAuction(6400);
  // Each auction: one item, four bids, an item and a bid punctuation.
  EXPECT_EQ(small.results, 3u * 64 * 4);
  EXPECT_EQ(large.results, 3u * 6400 * 4);
  EXPECT_EQ(small.final_live, 0u);
  EXPECT_EQ(large.final_live, 0u);
  // Identical work per punctuation at 100x the live state: the sweep
  // checks the closed item, not every open one.
  EXPECT_EQ(small.checks_per_punct, large.checks_per_punct);
  EXPECT_EQ(small.propagation_checks_per_punct,
            large.propagation_checks_per_punct);
  EXPECT_EQ(small.retirement_checks_per_punct,
            large.retirement_checks_per_punct);
  EXPECT_LE(large.checks_per_punct, 4.0);
  EXPECT_LE(large.propagation_checks_per_punct, 4.0);
  EXPECT_LE(large.retirement_checks_per_punct, 4.0);
  EXPECT_GT(large.propagation_checks_per_punct, 0.0);
  EXPECT_GT(large.retirement_checks_per_punct, 0.0);
}

// The sensor query's (sensor_id, epoch) pair punctuations never
// retire: no store holds a single-attribute punctuation on a partner's
// join attribute until the decommissions at the very end. A purged
// reading must therefore not look up (and scan) the pairs stored on
// its partners, which accumulate one per epoch.
double SensorRetirementChecksPerPunct(size_t epochs) {
  QueryRegister reg;
  PUNCTSAFE_CHECK_OK(SensorWorkload::Setup(&reg));
  ExecutorConfig config;
  config.mjoin.purge_punctuations = true;
  auto rq = reg.Register(SensorWorkload::QueryStreams(),
                         SensorWorkload::QueryPredicates(), config);
  PUNCTSAFE_CHECK(rq.ok()) << rq.status().ToString();
  SensorConfig sc;
  sc.num_sensors = 8;
  sc.num_epochs = epochs;
  PUNCTSAFE_CHECK_OK(
      FeedTrace(rq->executor.get(), SensorWorkload::Generate(sc)));
  PUNCTSAFE_CHECK(rq->executor->TotalLiveTuples() == 0);
  const OperatorMetricsSnapshot m =
      rq->executor->operators()[0]->metrics().Snapshot();
  return static_cast<double>(m.retirement_checks) / m.punctuations_received;
}

TEST(DeltaPurgeTest, SensorRetirementWorkDoesNotGrowWithEpochs) {
  const double small = SensorRetirementChecksPerPunct(10);
  const double large = SensorRetirementChecksPerPunct(100);
  // Each pair punctuation checks itself once; each final decommission
  // checks the pairs of its sensor on the two partner stores.
  EXPECT_LE(small, 2.0);
  EXPECT_LE(large, 2.0);
  EXPECT_LE(large, small + 0.1);
}

// --- audit -----------------------------------------------------------

struct AuditTotals {
  uint64_t mismatches = 0;
  uint64_t sweeps = 0;
  uint64_t purged = 0;
  uint64_t aborts = 0;
  std::string report;
};

void EnableAudit(PlanExecutor* exec) {
  for (const auto& op : exec->operators()) op->EnablePurgeAuditForTesting();
}

void Collect(const PlanExecutor& exec, AuditTotals* totals) {
  for (const auto& op : exec.operators()) {
    if (op->purge_audit_mismatches() > 0 && totals->report.empty()) {
      totals->report = op->purge_audit_report();
    }
    totals->mismatches += op->purge_audit_mismatches();
    const OperatorMetricsSnapshot m = op->metrics().Snapshot();
    totals->sweeps += m.purge_sweeps;
    totals->aborts += m.removability_aborts;
    totals->purged += op->AggregateStateSnapshot().purged;
  }
}

// Runs the trace with the audit on; with `restore`, the second half
// runs on a fresh executor restored from a checkpoint of the first.
void RunAudited(const ContinuousJoinQuery& query, const SchemeSet& schemes,
                const PlanShape& shape, const Trace& trace,
                const ExecutorConfig& config, bool restore,
                AuditTotals* totals) {
  auto exec = PlanExecutor::Create(query, schemes, shape, config);
  PUNCTSAFE_CHECK(exec.ok()) << exec.status().ToString();
  EnableAudit(exec->get());
  const size_t cut = restore ? trace.size() / 2 : trace.size();
  for (size_t i = 0; i < cut; ++i) PUNCTSAFE_CHECK_OK((*exec)->Push(trace[i]));
  PlanExecutor* live = exec->get();
  std::unique_ptr<PlanExecutor> resumed;
  if (restore) {
    Collect(**exec, totals);
    (*exec)->FlushIngest();
    StateSnapshot snap = (*exec)->Checkpoint();
    auto fresh = PlanExecutor::Create(query, schemes, shape, config);
    PUNCTSAFE_CHECK(fresh.ok());
    resumed = std::move(*fresh);
    PUNCTSAFE_CHECK_OK(resumed->RestoreState(snap));
    EnableAudit(resumed.get());
    live = resumed.get();
    for (size_t i = cut; i < trace.size(); ++i) {
      PUNCTSAFE_CHECK_OK(live->Push(trace[i]));
    }
  }
  const int64_t end = MaxTimestamp(trace) + 1;
  live->SweepAll(end);
  live->SweepAll(end);
  Collect(*live, totals);
}

ExecutorConfig AuditConfig(size_t combo, int64_t max_ts) {
  ExecutorConfig config;
  config.keep_results = false;
  const PurgePolicy policies[] = {PurgePolicy::kEager, PurgePolicy::kLazy,
                                  PurgePolicy::kNone};
  config.mjoin.purge_policy = policies[combo % 3];
  config.mjoin.lazy_batch = 3;
  config.mjoin.purge_punctuations = (combo / 3) % 2 == 1;
  if ((combo / 6) % 2 == 1) {
    config.mjoin.punctuation_lifespan = std::max<int64_t>(max_ts / 4, 2);
  }
  config.batch_size = (combo / 12) % 2 == 1 ? 64 : 1;
  // Every other pass runs with a tiny joinable-set cap, so aborted
  // checks (and their retries) are part of the audit.
  config.mjoin.max_joinable_set = (combo / 24) % 2 == 1 ? 3 : 4096;
  return config;
}

TEST(DeltaPurgeTest, AuditMatchesFullScanOnRandomQueries) {
  const uint64_t base_seed = testing_util::TestBaseSeed(0);
  AuditTotals totals;
  for (uint64_t trial = 0; trial < 96; ++trial) {
    const uint64_t seed = base_seed + trial;
    RandomQueryConfig qconfig;
    qconfig.num_streams = 2 + seed % 4;
    qconfig.attrs_per_stream = 2;
    qconfig.extra_predicates = seed % 2;
    qconfig.multi_attr_prob = 0.3;
    qconfig.schemeless_prob = 0.15;
    qconfig.second_scheme_prob = 0.3;
    qconfig.seed = seed * 53 + 11;
    auto inst = MakeRandomQuery(qconfig);
    ASSERT_TRUE(inst.ok()) << inst.status().ToString();
    CoveringTraceConfig tconfig;
    tconfig.num_generations = 5;
    tconfig.values_per_generation = 3;
    tconfig.tuples_per_generation = 14;
    tconfig.seed = seed;
    Trace trace = MakeCoveringTrace(inst->query, inst->schemes, tconfig);

    const size_t n = inst->query.num_streams();
    PlanShape shape = PlanShape::SingleMJoin(n);
    if (seed % 2 == 1 && n >= 3) {
      std::vector<size_t> order(n);
      for (size_t i = 0; i < n; ++i) order[i] = i;
      shape = PlanShape::LeftDeepBinary(order);
    }
    const ExecutorConfig config = AuditConfig(trial % 48, MaxTimestamp(trace));
    const uint64_t before = totals.mismatches;
    RunAudited(inst->query, inst->schemes, shape, trace, config,
               /*restore=*/trial % 4 == 3, &totals);
    ASSERT_EQ(totals.mismatches, before)
        << "seed " << seed << ": " << totals.report;
  }
  EXPECT_EQ(totals.mismatches, 0u) << totals.report;
  EXPECT_GT(totals.sweeps, 0u);
  EXPECT_GT(totals.purged, 0u);
  EXPECT_GT(totals.aborts, 0u);  // the tiny caps did abort
}

TEST(DeltaPurgeTest, AuditMatchesFullScanOnSensorQuery) {
  AuditTotals totals;
  SensorConfig sc;
  sc.num_sensors = 6;
  sc.num_epochs = 10;
  Trace trace = SensorWorkload::Generate(sc);
  for (size_t combo = 0; combo < 48; ++combo) {
    QueryRegister reg;
    ASSERT_TRUE(SensorWorkload::Setup(&reg).ok());
    auto q = ContinuousJoinQuery::Create(reg.catalog(),
                                         SensorWorkload::QueryStreams(),
                                         SensorWorkload::QueryPredicates());
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    const ExecutorConfig config = AuditConfig(combo, MaxTimestamp(trace));
    const uint64_t before = totals.mismatches;
    RunAudited(*q, reg.schemes(), PlanShape::SingleMJoin(3), trace, config,
               /*restore=*/combo % 2 == 1, &totals);
    ASSERT_EQ(totals.mismatches, before)
        << "combo " << combo << ": " << totals.report;
  }
  EXPECT_EQ(totals.mismatches, 0u) << totals.report;
  EXPECT_GT(totals.purged, 0u);
}

// Bids arrive after their item's punctuation was swept: under the
// lazy and none policies only the unchecked-arrival rule finds them.
TEST(DeltaPurgeTest, AuditMatchesFullScanOnAuctions) {
  AuditTotals totals;
  AuctionConfig ac;
  ac.num_items = 60;
  ac.max_open = 6;
  ac.bids_per_item = 3;
  Trace trace = AuctionWorkload::Generate(ac);
  for (size_t combo = 0; combo < 48; ++combo) {
    QueryRegister reg;
    ASSERT_TRUE(AuctionWorkload::Setup(&reg).ok());
    auto q = ContinuousJoinQuery::Create(reg.catalog(),
                                         AuctionWorkload::QueryStreams(),
                                         AuctionWorkload::QueryPredicates());
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    const ExecutorConfig config = AuditConfig(combo, MaxTimestamp(trace));
    const uint64_t before = totals.mismatches;
    RunAudited(*q, reg.schemes(), PlanShape::SingleMJoin(2), trace, config,
               /*restore=*/combo % 2 == 1, &totals);
    ASSERT_EQ(totals.mismatches, before)
        << "combo " << combo << ": " << totals.report;
  }
  EXPECT_EQ(totals.mismatches, 0u) << totals.report;
  EXPECT_GT(totals.purged, 0u);
}

// --- purge neighbours ------------------------------------------------

// A purge can make a join-connected tuple removable that no new
// punctuation touches: the purged tuple shrinks the other's joinable
// set T_t[Υ]. That takes two blockers whose rows are each excluded by
// a different edge into the same target, so only their removal lets
// one edge close it. Inputs, in operator order:
//   U(y, x, q, e, r)  D(e, s, p)  T(y, z)  A(x, z, q)  B(r, s, p)
// with T.y = U.y, U.x = A.x, T.z = A.z, U.q = A.q, U.e = D.e,
// U.r = B.r, D.s = B.s, D.p = B.p, and the schemes
// T{y} U{y} U{e} A{x,z} A{q} D{e} B{r,s} B{p}:
//   * u in U is blocked by d, d2 in D: {U,D}->B excludes (u, d2) but
//     not (u, d); D->B excludes d but not d2;
//   * t in T is blocked by u, u2 in U: U->A excludes u but not u2;
//     {U,T}->A excludes (u2, t) but not (u, t).
// B{p = d.p} purges d. The scan checked u before (U precedes D), so
// it frees u only one sweep later; the delta sweep must carry u. That
// later sweep (an unrelated punctuation) purges u, after which t,
// later than U and touched by nothing else, goes in the same sweep.
struct TwoLevelBlockers {
  StreamCatalog catalog;
  ContinuousJoinQuery query;
  SchemeSet schemes;

  TwoLevelBlockers() {
    PUNCTSAFE_CHECK_OK(
        catalog.Register("U", Schema::OfInts({"y", "x", "q", "e", "r"})));
    PUNCTSAFE_CHECK_OK(catalog.Register("D", Schema::OfInts({"e", "s", "p"})));
    PUNCTSAFE_CHECK_OK(catalog.Register("T", Schema::OfInts({"y", "z"})));
    PUNCTSAFE_CHECK_OK(catalog.Register("A", Schema::OfInts({"x", "z", "q"})));
    PUNCTSAFE_CHECK_OK(catalog.Register("B", Schema::OfInts({"r", "s", "p"})));
    auto q = ContinuousJoinQuery::Create(
        catalog, {"U", "D", "T", "A", "B"},
        {Eq({"T", "y"}, {"U", "y"}), Eq({"U", "x"}, {"A", "x"}),
         Eq({"T", "z"}, {"A", "z"}), Eq({"U", "q"}, {"A", "q"}),
         Eq({"U", "e"}, {"D", "e"}), Eq({"U", "r"}, {"B", "r"}),
         Eq({"D", "s"}, {"B", "s"}), Eq({"D", "p"}, {"B", "p"})});
    PUNCTSAFE_CHECK(q.ok()) << q.status().ToString();
    query = std::move(q).ValueOrDie();
    auto declare = [&](const char* stream, std::vector<std::string> attrs) {
      PUNCTSAFE_CHECK_OK(schemes.Add(SchemeOn(catalog, stream, attrs)));
    };
    declare("T", {"y"});
    declare("U", {"y"});
    declare("U", {"e"});
    declare("A", {"x", "z"});
    declare("A", {"q"});
    declare("D", {"e"});
    declare("B", {"r", "s"});
    declare("B", {"p"});
  }

  std::vector<LocalInput> Inputs() const {
    std::vector<LocalInput> inputs;
    for (size_t s = 0; s < query.num_streams(); ++s) {
      inputs.push_back({{s}, RawAvailableSchemes(query, schemes, s)});
    }
    return inputs;
  }
};

TEST(DeltaPurgeTest, PurgeNeighboursAreCheckedNowOrCarried) {
  enum : size_t { kU, kD, kT, kA, kB };
  TwoLevelBlockers q;
  auto made = MJoinOperator::Create(q.query, q.Inputs(), MJoinConfig{});
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  MJoinOperator& op = **made;
  op.EnablePurgeAuditForTesting();
  auto ints = [](std::initializer_list<int64_t> values) {
    std::vector<Value> out;
    for (int64_t v : values) out.emplace_back(v);
    return Tuple(std::move(out));
  };
  // (attribute, constant) pairs on an input of `width` attributes.
  auto punct = [](size_t width,
                  std::initializer_list<std::pair<size_t, int64_t>> pairs) {
    std::vector<std::pair<size_t, Value>> constants;
    for (const auto& [attr, v] : pairs) constants.push_back({attr, Value(v)});
    return Punctuation::OfConstants(width, constants);
  };

  int64_t ts = 0;
  op.PushTuple(kU, ints({1, 11, 21, 31, 41}), ++ts);  // u
  op.PushTuple(kU, ints({1, 12, 22, 32, 42}), ++ts);  // u2
  op.PushTuple(kD, ints({31, 51, 61}), ++ts);         // d
  op.PushTuple(kD, ints({31, 52, 62}), ++ts);         // d2
  op.PushTuple(kT, ints({1, 2}), ++ts);               // t
  op.PushTuple(kT, ints({1, 3}), ++ts);               // t2
  op.PushTuple(kA, ints({11, 2, 21}), ++ts);          // a
  op.PushPunctuation(kT, punct(2, {{0, 1}}), ++ts);            // T{y}
  op.PushPunctuation(kU, punct(5, {{0, 1}}), ++ts);            // U{y}
  op.PushPunctuation(kA, punct(3, {{2, 21}}), ++ts);           // A{q}
  op.PushPunctuation(kA, punct(3, {{0, 12}, {1, 2}}), ++ts);   // A{x,z}
  op.PushPunctuation(kD, punct(3, {{0, 31}}), ++ts);           // D{e}
  op.PushPunctuation(kB, punct(3, {{0, 41}, {1, 52}}), ++ts);  // B{r,s}
  EXPECT_EQ(op.state_metrics(kU).live, 2u);
  EXPECT_EQ(op.state_metrics(kD).live, 2u);
  EXPECT_EQ(op.state_metrics(kT).live, 2u);

  op.PushPunctuation(kB, punct(3, {{2, 61}}), ++ts);  // B{p}: d goes
  EXPECT_EQ(op.state_metrics(kD).live, 1u);
  EXPECT_EQ(op.state_metrics(kU).live, 2u);  // u waits a sweep
  EXPECT_EQ(op.state_metrics(kT).live, 2u);

  // Seeds no tuple: u comes back carried, t as u's later neighbour.
  op.PushPunctuation(kU, punct(5, {{0, 99}}), ++ts);
  EXPECT_EQ(op.state_metrics(kU).live, 1u);  // u2 stays
  EXPECT_EQ(op.state_metrics(kD).live, 1u);  // d2 stays
  EXPECT_EQ(op.state_metrics(kT).live, 1u);  // t2 stays
  EXPECT_EQ(op.purge_audit_mismatches(), 0u) << op.purge_audit_report();
}

// --- aborts ----------------------------------------------------------

// S1(A, B) JOIN S2(B, C) on B, both punctuated on B.
struct BinaryJoin {
  StreamCatalog catalog = PaperCatalog();
  ContinuousJoinQuery query;
  SchemeSet schemes;

  BinaryJoin() {
    auto q = ContinuousJoinQuery::Create(catalog, {"S1", "S2"},
                                         {Eq({"S1", "B"}, {"S2", "B"})});
    PUNCTSAFE_CHECK(q.ok()) << q.status().ToString();
    query = std::move(q).ValueOrDie();
    PUNCTSAFE_CHECK_OK(schemes.Add(SchemeOn(catalog, "S1", {"B"})));
    PUNCTSAFE_CHECK_OK(schemes.Add(SchemeOn(catalog, "S2", {"B"})));
  }

  std::vector<LocalInput> Inputs() const {
    std::vector<LocalInput> inputs;
    for (size_t s = 0; s < query.num_streams(); ++s) {
      inputs.push_back({{s}, RawAvailableSchemes(query, schemes, s)});
    }
    return inputs;
  }
};

// B is attribute 1 of S1(A, B) and attribute 0 of S2(B, C).
Punctuation OnB(size_t input, int64_t b) {
  return Punctuation::OfConstants(2, {{input == 0 ? 1 : 0, Value(b)}});
}

TEST(DeltaPurgeTest, AbortedCheckIsCountedAndRetriedUntilPurged) {
  BinaryJoin j;
  MJoinConfig config;
  config.max_joinable_set = 3;
  auto made = MJoinOperator::Create(j.query, j.Inputs(), config);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  MJoinOperator& op = **made;
  op.EnablePurgeAuditForTesting();

  int64_t ts = 0;
  op.PushTuple(0, Tuple({Value(7), Value(1)}), ++ts);  // t: S1 with B = 1
  for (int64_t c = 0; c < 5; ++c) {
    op.PushTuple(1, Tuple({Value(1), Value(c)}), ++ts);  // five partners
  }
  // Closing S2 on B = 1 makes t's chain complete, but its joinable set
  // (five S2 tuples) outgrows the cap of 3: the check aborts, t stays.
  op.PushPunctuation(1, OnB(1, 1), ++ts);
  EXPECT_EQ(op.metrics().removability_aborts, 1u);
  EXPECT_EQ(op.state_metrics(0).live, 1u);

  // Closing S1 on B = 1 purges the five partners (each joins only t).
  // t's retry in the same sweep runs before S2's pass, so it aborts
  // again; the purges carry it into the next sweep.
  op.PushPunctuation(0, OnB(0, 1), ++ts);
  EXPECT_EQ(op.state_metrics(1).live, 0u);
  EXPECT_EQ(op.state_metrics(0).live, 1u);
  EXPECT_EQ(op.metrics().removability_aborts, 2u);

  // A restored copy has no retry set (it is not checkpointed), so its
  // first sweep scans in full and finds t too.
  auto copy = MJoinOperator::Create(j.query, j.Inputs(), config);
  ASSERT_TRUE(copy.ok());
  ASSERT_TRUE((*copy)->RestoreState(op.CaptureState()).ok());
  (*copy)->EnablePurgeAuditForTesting();

  // An unrelated punctuation seeds nothing near t; only the retry set
  // brings t back, and with its joinable set empty it goes.
  op.PushPunctuation(1, OnB(1, 99), ++ts);
  EXPECT_EQ(op.state_metrics(0).live, 0u);
  EXPECT_EQ(op.metrics().removability_aborts, 2u);
  EXPECT_EQ(op.purge_audit_mismatches(), 0u) << op.purge_audit_report();
  (*copy)->PushPunctuation(1, OnB(1, 99), ts);
  EXPECT_EQ((*copy)->state_metrics(0).live, 0u);
  EXPECT_EQ((*copy)->purge_audit_mismatches(), 0u)
      << (*copy)->purge_audit_report();
}

// Under lifespans a sweep at an earlier time than the last one sees
// punctuations the later sweep treated as expired (they are dropped
// from the store only when a punctuation arrives): such a sweep scans.
TEST(DeltaPurgeTest, SweepBackInTimeUnderLifespanScansInFull) {
  BinaryJoin j;
  MJoinConfig config;
  config.punctuation_lifespan = 10;
  auto made = MJoinOperator::Create(j.query, j.Inputs(), config);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  MJoinOperator& op = **made;
  op.EnablePurgeAuditForTesting();
  op.PushPunctuation(1, OnB(1, 1), 2);  // S2 closed on B = 1 until 12
  // Checked on arrival at 20, when the punctuation has expired: kept.
  op.PushTuple(0, Tuple({Value(7), Value(1)}), 20);
  EXPECT_EQ(op.state_metrics(0).live, 1u);
  op.Sweep(50);
  EXPECT_EQ(op.state_metrics(0).live, 1u);
  op.Sweep(5);  // at 5 the punctuation still holds
  EXPECT_EQ(op.state_metrics(0).live, 0u);
  EXPECT_EQ(op.purge_audit_mismatches(), 0u) << op.purge_audit_report();
}

TEST(DeltaPurgeTest, PurgeEngineCountsAborts) {
  BinaryJoin j;
  PurgeEngineConfig config;
  config.max_joinable_set = 3;
  auto engine = PurgeEngine::Create(j.query, j.schemes, config);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  (*engine)->AddTuple(0, Tuple({Value(7), Value(1)}), 1);
  for (int64_t c = 0; c < 5; ++c) {
    (*engine)->AddTuple(1, Tuple({Value(1), Value(c)}), 2 + c);
  }
  (*engine)->AddPunctuation(1, OnB(1, 1), 10);
  (*engine)->Sweep(10);
  EXPECT_EQ((*engine)->removability_aborts(), 1u);
  EXPECT_EQ((*engine)->live_count(0), 1u);
}

TEST(DeltaPurgeTest, AbortsAreExportedThroughTheObsJsonl) {
  BinaryJoin j;
  ExecutorConfig config;
  config.observe.enabled = true;
  config.mjoin.max_joinable_set = 3;
  auto exec = PlanExecutor::Create(j.query, j.schemes,
                                   PlanShape::SingleMJoin(2), config);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  (*exec)->PushTuple(0, Tuple({Value(7), Value(1)}), 1);
  for (int64_t c = 0; c < 5; ++c) {
    (*exec)->PushTuple(1, Tuple({Value(1), Value(c)}), 2 + c);
  }
  (*exec)->PushPunctuation(1, OnB(1, 1), 10);
  const std::string line = RenderJsonLine((*exec)->ObservabilitySnapshot());
  EXPECT_NE(line.find("\"removability_aborts\":1"), std::string::npos)
      << line;
}

// --- allocations -----------------------------------------------------

TEST(DeltaPurgeTest, EagerArrivalCheckOfDroppedBidsAllocatesNothing) {
  QueryRegister reg;
  ASSERT_TRUE(AuctionWorkload::Setup(&reg).ok());
  auto q = ContinuousJoinQuery::Create(reg.catalog(),
                                       AuctionWorkload::QueryStreams(),
                                       AuctionWorkload::QueryPredicates());
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  std::vector<LocalInput> inputs;
  for (size_t s = 0; s < q->num_streams(); ++s) {
    inputs.push_back({{s}, RawAvailableSchemes(*q, reg.schemes(), s)});
  }
  auto made = MJoinOperator::Create(*q, inputs, MJoinConfig{});
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  MJoinOperator& op = **made;
  uint64_t results = 0;
  op.SetBatchEmitter([&](TupleBatch& batch) { results += batch.size(); });

  // item(sellerid, itemid, name, category); bid(bidderid, itemid, price).
  const size_t item_input = *q->StreamIndex(AuctionWorkload::kItemStream);
  const size_t bid_input = 1 - item_input;
  int64_t ts = 0;
  for (int64_t id = 1; id <= 4; ++id) {
    op.PushTuple(item_input,
                 Tuple({Value(1), Value(id), Value("item"), Value(2)}), ++ts);
    op.PushPunctuation(item_input,
                       Punctuation::OfConstants(4, {{1, Value(id)}}), ++ts);
  }
  const Tuple bid({Value(5), Value(int64_t{3}), Value(10)});
  for (int i = 0; i < 16; ++i) op.PushTuple(bid_input, bid, ++ts);  // warm

  const uint64_t checks = op.metrics().removability_checks;
  g_allocs = 0;
  g_count_allocs = true;
  for (int i = 0; i < 256; ++i) op.PushTuple(bid_input, bid, ++ts);
  g_count_allocs = false;
  EXPECT_EQ(g_allocs.load(), 0u);
  EXPECT_EQ(op.metrics().removability_checks, checks + 256);
  EXPECT_EQ(op.state_metrics(bid_input).live, 0u);  // all dropped
  EXPECT_EQ(results, 16u + 256u);
}

}  // namespace
}  // namespace punctsafe
