// Shared result blocks (stream/tuple.h ValueBlock): ownership and
// lifetime of rows that leave an MJoin by sharing the block they were
// staged in, and the result_blocks work counter.
//
// The lifetime cases are meant for the sanitizer legs: under ASan a
// row that outlived its block, or a copied arena view that still
// pointed into a reclaimed arena block, reads freed memory; under TSan
// the 2-shard case races the caller's reads and destruction of taken
// rows against the workers' re-staging of their result blocks.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "exec/mjoin.h"
#include "exec/parallel_executor.h"
#include "exec/plan_executor.h"
#include "exec/tuple_store.h"
#include "obs/exporter.h"
#include "query/cjq.h"
#include "test_util.h"

namespace punctsafe {
namespace {

using testing_util::SchemeOn;

// Longer than Value's inline buffer, so result values own heap bytes
// and stored values live in the arena as external strings.
std::string Payload(int64_t i) {
  return "payload-" + std::to_string(i) + "-padding-beyond-inline";
}

// The 3-way shared-key chain T0.k = T1.k = T2.k (the punctbench
// chain_expand query) with one punctuation scheme on k per stream and a
// string payload per tuple.
struct SharedKeyChain {
  StreamCatalog catalog;
  ContinuousJoinQuery query;
  SchemeSet schemes;

  static SharedKeyChain Make() {
    SharedKeyChain c;
    for (int i = 0; i < 3; ++i) {
      PUNCTSAFE_CHECK_OK(c.catalog.Register(
          "T" + std::to_string(i), Schema({{"k", ValueType::kInt64},
                                           {"v", ValueType::kString}})));
    }
    auto q = ContinuousJoinQuery::Create(
        c.catalog, {"T0", "T1", "T2"},
        {Eq({"T0", "k"}, {"T1", "k"}), Eq({"T1", "k"}, {"T2", "k"})});
    PUNCTSAFE_CHECK(q.ok()) << q.status().ToString();
    c.query = std::move(q).ValueOrDie();
    for (int i = 0; i < 3; ++i) {
      PUNCTSAFE_CHECK_OK(
          c.schemes.Add(SchemeOn(c.catalog, "T" + std::to_string(i), {"k"})));
    }
    return c;
  }
};

// One generation: `per_key` tuples per (stream, key) for `keys` fresh
// keys, stream-major so batches are same-stream runs, then every key
// closed on every stream (which purges the generation and, at the
// sweep's epoch boundary, reclaims its arena blocks). Results per
// generation: keys * per_key^3.
void AppendGeneration(int64_t gen, int64_t keys, int64_t per_key,
                      Trace* trace, int64_t* ts) {
  for (int s = 0; s < 3; ++s) {
    const std::string name = "T" + std::to_string(s);
    for (int64_t k = 0; k < keys; ++k) {
      for (int64_t j = 0; j < per_key; ++j) {
        const int64_t key = gen * 1000 + k;
        trace->push_back(
            {name, StreamElement::OfTuple(
                       Tuple({Value(key), Value(Payload(key * 100 + j))}),
                       (*ts)++)});
      }
    }
  }
  for (int s = 0; s < 3; ++s) {
    for (int64_t k = 0; k < keys; ++k) {
      trace->push_back(
          {"T" + std::to_string(s),
           StreamElement::OfPunctuation(
               Punctuation({Pattern(Value(gen * 1000 + k)), Pattern()}),
               (*ts)++)});
    }
  }
}

// What a result row says, read value by value (touches every byte the
// row owns).
std::string Render(const Tuple& t) { return t.ToString(); }

TEST(ResultBlockTest, CopiesShareTheBlockAndViewCopiesReown) {
  Tuple owned({Value(1), Value(Payload(1))});
  ASSERT_NE(owned.block(), nullptr);
  EXPECT_FALSE(owned.is_external());
  EXPECT_EQ(owned.block()->refs(), 1u);
  {
    Tuple copy = owned;
    EXPECT_EQ(copy.block(), owned.block());
    EXPECT_EQ(copy.begin(), owned.begin()) << "a copy must not copy values";
    EXPECT_EQ(owned.block()->refs(), 2u);
    StreamElement element = StreamElement::OfTuple(copy, 7);
    EXPECT_EQ(element.tuple.block(), owned.block());
    EXPECT_EQ(owned.block()->refs(), 3u);
  }
  EXPECT_EQ(owned.block()->refs(), 1u);

  Tuple view(Tuple::ExternalRef{}, owned.begin(), owned.size());
  EXPECT_TRUE(view.is_external());
  Tuple reowned = view;
  EXPECT_FALSE(reowned.is_external());
  EXPECT_NE(reowned.block(), owned.block());
  EXPECT_NE(reowned.begin(), owned.begin());
  EXPECT_EQ(reowned, owned);

  // DeepCopy holds exactly its own row, never a share.
  Tuple deep = owned.DeepCopy();
  EXPECT_NE(deep.block(), owned.block());
  EXPECT_EQ(deep.block()->count(), owned.size());
  EXPECT_EQ(deep, owned);
}

TEST(ResultBlockTest, CopyOfArenaViewOwnsAfterItsBlockIsReclaimed) {
  TupleStore store({0});
  ASSERT_TRUE(store.arena_enabled());
  const size_t slot = store.Insert(Tuple({Value(3), Value(Payload(3))}));
  ASSERT_TRUE(store.At(slot).is_external());
  ASSERT_TRUE(store.At(slot).at(1).is_external());
  const Tuple copy = store.At(slot);
  EXPECT_FALSE(copy.is_external());
  EXPECT_FALSE(copy.at(1).is_external());

  store.Remove(slot);
  store.AdvanceEpoch();
  EXPECT_GT(store.metrics().Snapshot().arena_blocks_reclaimed, 0u);
  EXPECT_EQ(store.At(slot).size(), 0u);
  // Reads freed arena memory under ASan if the copy were still a view.
  EXPECT_EQ(copy.at(0).AsInt64(), 3);
  EXPECT_EQ(copy.at(1).AsString(), Payload(3));
}

TEST(ResultBlockTest, TakenResultsOutlivePushesPurgesAndTheExecutor) {
  SharedKeyChain chain = SharedKeyChain::Make();
  for (size_t batch_size : {1u, 128u}) {
    SCOPED_TRACE(::testing::Message() << "batch_size=" << batch_size);
    ExecutorConfig config;
    config.keep_results = true;
    config.batch_size = batch_size;
    auto exec = PlanExecutor::Create(chain.query, chain.schemes,
                                     PlanShape::SingleMJoin(3), config);
    ASSERT_TRUE(exec.ok()) << exec.status().ToString();

    std::vector<Tuple> held;
    std::vector<std::string> expected;
    int64_t ts = 0;
    for (int64_t gen = 0; gen < 6; ++gen) {
      Trace trace;
      AppendGeneration(gen, 2, 3, &trace, &ts);
      for (const TraceEvent& e : trace) ASSERT_TRUE((*exec)->Push(e).ok());
      std::vector<Tuple> taken = (*exec)->TakeResults();
      EXPECT_EQ(taken.size(), 2u * 27u);
      // A non-empty take leaves the sink room for as many again.
      EXPECT_GE((*exec)->kept_results().capacity(), taken.size());
      for (const Tuple& t : taken) {
        EXPECT_FALSE(t.is_external());
        expected.push_back(Render(t));
      }
      held.insert(held.end(), taken.begin(), taken.end());
    }
    // Every generation was purged and its arena blocks reclaimed while
    // earlier rows were held.
    EXPECT_EQ((*exec)->TotalLiveTuples(), 0u);
    uint64_t reclaimed = 0;
    for (const auto& op : (*exec)->operators()) {
      reclaimed += op->AggregateStateSnapshot().arena_blocks_reclaimed;
    }
    EXPECT_GT(reclaimed, 0u);

    exec->reset();  // the executor and its staging block go away
    ASSERT_EQ(held.size(), expected.size());
    for (size_t i = 0; i < held.size(); ++i) {
      EXPECT_EQ(Render(held[i]), expected[i]);
    }
  }
}

TEST(ResultBlockTest, ShardedResultsReadAndDroppedWhileWorkersEmit) {
  SharedKeyChain chain = SharedKeyChain::Make();
  Trace trace;
  int64_t ts = 0;
  for (int64_t gen = 0; gen < 24; ++gen) {
    AppendGeneration(gen, 4, 3, &trace, &ts);
  }
  const uint64_t want = 24u * 4u * 27u;

  for (size_t batch_size : {1u, 64u}) {
    SCOPED_TRACE(::testing::Message() << "batch_size=" << batch_size);
    ExecutorConfig config;
    config.mode = ExecutionMode::kParallel;
    config.shards = 2;
    config.keep_results = true;
    config.batch_size = batch_size;
    auto exec = ParallelExecutor::Create(chain.query, chain.schemes,
                                         PlanShape::SingleMJoin(3), config);
    ASSERT_TRUE(exec.ok()) << exec.status().ToString();

    // Take, read every value and drop the rows on this thread while the
    // shard workers keep staging (and re-staging) result blocks.
    uint64_t seen = 0;
    auto consume = [&] {
      std::vector<Tuple> taken = (*exec)->TakeResults();
      for (const Tuple& t : taken) {
        ASSERT_EQ(t.size(), 6u);
        const int64_t key = t.at(0).AsInt64();
        for (size_t i = 0; i < 6; i += 2) EXPECT_EQ(t.at(i).AsInt64(), key);
        for (size_t i = 1; i < 6; i += 2) {
          EXPECT_EQ(t.at(i).AsString().substr(0, 8), "payload-");
        }
      }
      seen += taken.size();
    };
    for (size_t i = 0; i < trace.size(); ++i) {
      ASSERT_TRUE((*exec)->Push(trace[i]).ok());
      if (i % 16 == 0) consume();
    }
    ASSERT_TRUE((*exec)->Drain(ts + 1).ok());
    consume();
    EXPECT_EQ(seen, want);
    EXPECT_EQ((*exec)->num_results(), want);
  }
}

// Sum of StateMetrics::result_blocks over the executor's operators.
uint64_t ResultBlocks(const PlanExecutor& exec) {
  uint64_t blocks = 0;
  for (const auto& op : exec.operators()) {
    blocks += op->AggregateStateSnapshot().result_blocks;
  }
  return blocks;
}

// Blocks one emit of `rows` result rows stages into.
uint64_t BlocksPerEmit(const PlanExecutor& exec, uint64_t rows) {
  const uint64_t per_block = exec.operators().front()->result_rows_per_block();
  return (rows + per_block - 1) / per_block;
}

// Pushes one generation of the chain (4 keys, 5 tuples per key and
// stream) as one batch per stream; only the last stream's batch
// emits: 500 results.
void PushGenerationInBatches(PlanExecutor* exec, int64_t gen, int64_t* ts) {
  Trace trace;
  AppendGeneration(gen, 4, 5, &trace, ts);
  std::string stream;
  for (const TraceEvent& e : trace) {
    if (e.element.is_tuple() && e.stream != stream) {
      exec->FlushIngest();
      stream = e.stream;
    }
    PUNCTSAFE_CHECK_OK(exec->Push(e));
  }
  exec->FlushIngest();
}

TEST(ResultBlockTest, OneBlockPerEmittedBatchAndBlockOfRowsWithResultsKept) {
  SharedKeyChain chain = SharedKeyChain::Make();
  ExecutorConfig config;
  config.keep_results = true;
  config.batch_size = 128;
  auto exec = PlanExecutor::Create(chain.query, chain.schemes,
                                   PlanShape::SingleMJoin(3), config);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();

  int64_t ts = 0;
  std::vector<std::vector<Tuple>> held;
  for (int64_t gen = 0; gen < 8; ++gen) {
    PushGenerationInBatches(exec->get(), gen, &ts);
    held.push_back((*exec)->TakeResults());
    EXPECT_EQ(held.back().size(), 4u * 125u);
  }
  const uint64_t results = (*exec)->num_results();
  const uint64_t blocks = ResultBlocks(**exec);
  EXPECT_EQ(results, 8u * 4u * 125u);
  // Kept rows pin their blocks, so every emit stages into fresh ones:
  // one emit per generation (the T2 batch), one block per
  // kResultBlockBytes of its 500 rows, where a per-result copy would
  // be 500 allocations.
  const uint64_t per_emit = BlocksPerEmit(**exec, 500);
  EXPECT_LE(per_emit, 3u);
  EXPECT_EQ(blocks, 8u * per_emit);

  // A batch small enough for one block costs exactly one block.
  auto small = PlanExecutor::Create(chain.query, chain.schemes,
                                    PlanShape::SingleMJoin(3), config);
  ASSERT_TRUE(small.ok()) << small.status().ToString();
  ts = 0;
  for (int64_t gen = 0; gen < 8; ++gen) {
    Trace trace;
    AppendGeneration(gen, 1, 4, &trace, &ts);  // 64 results, one emit
    for (const TraceEvent& e : trace) ASSERT_TRUE((*small)->Push(e).ok());
    held.push_back((*small)->TakeResults());
    EXPECT_EQ(held.back().size(), 64u);
  }
  ASSERT_EQ(BlocksPerEmit(**small, 64), 1u);
  EXPECT_EQ(ResultBlocks(**small), 8u);
}

TEST(ResultBlockTest, NoBlocksInSteadyStateWithResultsDropped) {
  SharedKeyChain chain = SharedKeyChain::Make();
  ExecutorConfig config;
  config.keep_results = false;
  config.batch_size = 128;
  auto exec = PlanExecutor::Create(chain.query, chain.schemes,
                                   PlanShape::SingleMJoin(3), config);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();

  int64_t ts = 0;
  PushGenerationInBatches(exec->get(), 0, &ts);  // warm-up
  const uint64_t warmed = ResultBlocks(**exec);
  EXPECT_GT(warmed, 0u);
  const uint64_t results_warmed = (*exec)->num_results();
  for (int64_t gen = 1; gen < 8; ++gen) {
    PushGenerationInBatches(exec->get(), gen, &ts);
  }
  EXPECT_EQ((*exec)->num_results() - results_warmed, 7u * 4u * 125u);
  EXPECT_EQ(ResultBlocks(**exec), warmed)
      << "nobody kept a row, yet the operator started a new block";
}

TEST(ResultBlockTest, ResultBlocksAreExportedThroughTheObsJsonl) {
  SharedKeyChain chain = SharedKeyChain::Make();
  ExecutorConfig config;
  config.keep_results = true;
  config.batch_size = 128;
  config.observe.enabled = true;
  auto exec = PlanExecutor::Create(chain.query, chain.schemes,
                                   PlanShape::SingleMJoin(3), config);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  int64_t ts = 0;
  for (int64_t gen = 0; gen < 3; ++gen) {
    PushGenerationInBatches(exec->get(), gen, &ts);
  }
  const uint64_t blocks = ResultBlocks(**exec);
  EXPECT_EQ(blocks, 3u * BlocksPerEmit(**exec, 500));
  const std::string line = RenderJsonLine((*exec)->ObservabilitySnapshot());
  EXPECT_NE(line.find("\"result_blocks\":" + std::to_string(blocks)),
            std::string::npos)
      << line;
}

}  // namespace
}  // namespace punctsafe
