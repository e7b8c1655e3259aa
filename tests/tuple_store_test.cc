#include "exec/tuple_store.h"

#include <gtest/gtest.h>

#include <new>

#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace punctsafe {
namespace {

TEST(TupleStoreTest, InsertAndProbe) {
  TupleStore store({0});
  size_t s1 = store.Insert(Tuple({Value(1), Value(10)}));
  size_t s2 = store.Insert(Tuple({Value(1), Value(20)}));
  size_t s3 = store.Insert(Tuple({Value(2), Value(30)}));
  EXPECT_EQ(store.live_count(), 3u);
  EXPECT_TRUE(store.IsLive(s1));

  auto hits = store.Probe(0, Value(1));
  EXPECT_EQ(std::set<size_t>(hits.begin(), hits.end()),
            (std::set<size_t>{s1, s2}));
  EXPECT_EQ(store.Probe(0, Value(2)), (std::vector<size_t>{s3}));
  EXPECT_TRUE(store.Probe(0, Value(9)).empty());
}

TEST(TupleStoreTest, RemoveIsIdempotentAndHidesFromProbe) {
  TupleStore store({0});
  size_t s1 = store.Insert(Tuple({Value(1)}));
  store.Remove(s1);
  store.Remove(s1);
  EXPECT_EQ(store.live_count(), 0u);
  EXPECT_FALSE(store.IsLive(s1));
  EXPECT_TRUE(store.Probe(0, Value(1)).empty());
  // The tuple data stays addressable (slot ids stable).
  EXPECT_EQ(store.At(s1), Tuple({Value(1)}));
}

TEST(TupleStoreTest, MultipleIndexes) {
  TupleStore store({0, 2});
  size_t s = store.Insert(Tuple({Value(1), Value(2), Value(3)}));
  EXPECT_EQ(store.Probe(0, Value(1)), (std::vector<size_t>{s}));
  EXPECT_EQ(store.Probe(2, Value(3)), (std::vector<size_t>{s}));
}

TEST(TupleStoreTest, ForEachLiveSkipsRemoved) {
  TupleStore store({0});
  size_t s1 = store.Insert(Tuple({Value(1)}));
  store.Insert(Tuple({Value(2)}));
  store.Remove(s1);
  size_t visits = 0;
  store.ForEachLive([&](size_t slot, const Tuple& t) {
    ++visits;
    EXPECT_NE(slot, s1);
    EXPECT_EQ(t, Tuple({Value(2)}));
  });
  EXPECT_EQ(visits, 1u);
}

TEST(TupleStoreTest, PurgeSlotsCountsOnlyLive) {
  TupleStore store({0});
  size_t s1 = store.Insert(Tuple({Value(1)}));
  size_t s2 = store.Insert(Tuple({Value(2)}));
  store.Remove(s1);
  store.PurgeSlots({s1, s2});
  EXPECT_EQ(store.metrics().purged, 1u);
  EXPECT_EQ(store.live_count(), 0u);
}

TEST(TupleStoreTest, MetricsTrackHighWater) {
  TupleStore store({0});
  size_t a = store.Insert(Tuple({Value(1)}));
  store.Insert(Tuple({Value(2)}));
  store.PurgeSlots({a});
  store.Insert(Tuple({Value(3)}));
  const StateMetrics& m = store.metrics();
  EXPECT_EQ(m.inserted, 3u);
  EXPECT_EQ(m.purged, 1u);
  EXPECT_EQ(m.live, 2u);
  EXPECT_EQ(m.high_water, 2u);
  store.CountDroppedArrival();
  EXPECT_EQ(store.metrics().dropped_on_arrival, 1u);
}

TEST(TupleStoreTest, IndexCompactionKeepsProbesCorrect) {
  TupleStore store({0});
  // Insert and purge enough to trigger compaction several times.
  std::vector<size_t> slots;
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 100; ++i) {
      slots.push_back(store.Insert(Tuple({Value(i % 7), Value(i)})));
    }
    store.PurgeSlots(slots);
    slots.clear();
  }
  EXPECT_EQ(store.live_count(), 0u);
  // One survivor among the debris.
  size_t keep = store.Insert(Tuple({Value(3), Value(999)}));
  EXPECT_EQ(store.Probe(0, Value(3)), (std::vector<size_t>{keep}));
}

TEST(TupleStoreTest, ProbeEachAndProbeIntoAgreeWithProbe) {
  TupleStore store({0});
  // Interleave inserts and removes so buckets carry tombstones.
  std::vector<size_t> slots;
  for (int i = 0; i < 200; ++i) {
    slots.push_back(store.Insert(Tuple({Value(i % 13), Value(i)})));
  }
  for (size_t i = 0; i < slots.size(); i += 3) store.Remove(slots[i]);

  std::vector<size_t> scratch;
  for (int k = 0; k < 13; ++k) {
    Value key(k);
    std::vector<size_t> legacy = store.Probe(0, key);
    std::vector<size_t> each;
    store.ProbeEach(0, key,
                    [&](size_t slot, const Tuple& t) {
                      EXPECT_EQ(t.at(0), key);
                      each.push_back(slot);
                    });
    store.ProbeInto(0, key, &scratch);
    EXPECT_EQ(each, legacy) << "ProbeEach vs Probe on key " << k;
    EXPECT_EQ(scratch, legacy) << "ProbeInto vs Probe on key " << k;
  }
}

TEST(TupleStoreTest, ProbeFilteringTriggersCompaction) {
  TupleStore store({0});
  // Plenty of live tuples on other keys keeps the *remove-path*
  // trigger quiet (dead never outnumbers live by kCompactDeadFactor)...
  for (int i = 0; i < 1000; ++i) {
    store.Insert(Tuple({Value(1000 + i), Value(i)}));
  }
  // ...while one hot key accumulates enough tombstones that a single
  // probe filters >= kCompactMinDead dead slots and no live ones: the
  // probe-path trigger must schedule a rebuild.
  std::vector<size_t> hot;
  for (size_t i = 0; i < TupleStore::kCompactMinDead + 10; ++i) {
    hot.push_back(store.Insert(Tuple({Value(7), Value(static_cast<int64_t>(i))})));
  }
  for (size_t slot : hot) store.Remove(slot);
  EXPECT_EQ(store.metrics().index_compactions, 0u);

  // First probe walks the tombstones and schedules; the next executes.
  store.ProbeEach(0, Value(7), [](size_t, const Tuple&) { FAIL(); });
  store.ProbeEach(0, Value(7), [](size_t, const Tuple&) { FAIL(); });
  EXPECT_GE(store.metrics().index_compactions, 1u);

  // Compaction must not disturb live data.
  EXPECT_EQ(store.live_count(), 1000u);
  EXPECT_EQ(store.Probe(0, Value(1003)).size(), 1u);
  size_t back = store.Insert(Tuple({Value(7), Value(-1)}));
  EXPECT_EQ(store.Probe(0, Value(7)), (std::vector<size_t>{back}));
}

TEST(TupleStoreTest, CompactionInvariantsUnderInterleavedInsertPurge) {
  TupleStore store({0, 1});
  std::vector<size_t> slots;
  for (int round = 0; round < 6; ++round) {
    slots.clear();
    for (int i = 0; i < 150; ++i) {
      slots.push_back(store.Insert(
          Tuple({Value(i % 5), Value("s" + std::to_string(i % 3))})));
    }
    // Purge every other slot, probe in between so probe- and
    // remove-path triggers interleave.
    std::vector<size_t> purge;
    for (size_t i = 0; i < slots.size(); i += 2) purge.push_back(slots[i]);
    store.PurgeSlots(purge);
    size_t live_hits = 0;
    store.ProbeEach(0, Value(2),
                    [&](size_t slot, const Tuple&) {
                      EXPECT_TRUE(store.IsLive(slot));
                      ++live_hits;
                    });
    EXPECT_EQ(live_hits, store.Probe(0, Value(2)).size());
    EXPECT_EQ(store.Probe(1, Value("s1")).size(),
              store.Probe(1, Value(std::string("s1"))).size());
  }
  // Dense live bookkeeping stayed consistent with the indexes.
  size_t via_iter = 0;
  store.ForEachLive([&](size_t, const Tuple&) { ++via_iter; });
  EXPECT_EQ(via_iter, store.live_count());
}

TEST(TupleStoreTest, CachedHashIsTypeStrict) {
  TupleStore store({0});
  size_t as_int = store.Insert(Tuple({Value(static_cast<int64_t>(5))}));
  size_t as_str = store.Insert(Tuple({Value("5")}));
  store.Insert(Tuple({Value(5.0)}));

  // int64, double, and string keys with the "same" spelling are three
  // distinct values: probes must not cross types even if hashes were
  // ever to collide (probes re-check equality, and Value equality is
  // type-strict).
  EXPECT_EQ(store.Probe(0, Value(static_cast<int64_t>(5))),
            (std::vector<size_t>{as_int}));
  EXPECT_EQ(store.Probe(0, Value("5")), (std::vector<size_t>{as_str}));
  EXPECT_EQ(store.Probe(0, Value(5.0)).size(), 1u);
  bool any = store.AnyMatch(0, Value(static_cast<int64_t>(5)),
                            [](const Tuple& t) {
                              return t.at(0) == Value(static_cast<int64_t>(5));
                            });
  EXPECT_TRUE(any);
  // Equal values hash equally regardless of how they were built.
  EXPECT_EQ(Value("abc").Hash(), Value(std::string("abc")).Hash());
  EXPECT_NE(Value(static_cast<int64_t>(5)).Hash(), Value(5.0).Hash());
}

TEST(TupleStoreTest, SteadyStateProbesNeverAllocate) {
  TupleStore store({0});
  for (int i = 0; i < 500; ++i) {
    store.Insert(Tuple({Value(i % 11), Value(i)}));
  }
  std::vector<size_t> scratch;
  uint64_t sink = 0;
  for (int i = 0; i < 2000; ++i) {
    store.ProbeEach(0, Value(i % 11), [&](size_t, const Tuple&) { ++sink; });
    store.ProbeInto(0, Value(i % 11), &scratch);
    sink += scratch.size();
    sink += store.AnyMatch(0, Value(i % 11),
                           [](const Tuple&) { return true; });
  }
  EXPECT_GT(sink, 0u);
  // The pinned property: the cursor paths count probes but never a
  // probe allocation; only the legacy Probe() does.
  EXPECT_GT(store.metrics().probes, 0u);
  EXPECT_EQ(store.metrics().probe_allocs, 0u);
  store.Probe(0, Value(3));
  EXPECT_EQ(store.metrics().probe_allocs, 1u);
}

TEST(TupleStoreTest, NoIndexes) {
  TupleStore store({});
  store.Insert(Tuple({Value(1)}));
  store.Insert(Tuple({Value(2)}));
  size_t count = 0;
  store.ForEachLive([&](size_t, const Tuple&) { ++count; });
  EXPECT_EQ(count, 2u);
}

// A string longer than Value::kInlineStringCap, so arena mode stores
// its bytes as external payload in the arena block.
std::string LongKey(int i) {
  return "long-string-payload-well-past-inline-" + std::to_string(i);
}

TEST(TupleStoreTest, StringValuesSurviveCompactionAndEpochReclaim) {
  // The lifetime contract under ASan: string views obtained from
  // probes stay valid across index compaction and across the removal
  // of *other* tuples, until the next AdvanceEpoch. Survivors keep
  // their bytes across epoch advances too.
  TupleStore store({0});
  ASSERT_TRUE(store.arena_enabled());

  // One survivor, then enough doomed same-key tuples to trip the
  // probe-path compaction trigger once they die.
  size_t keeper = store.Insert(Tuple({Value(LongKey(-1)), Value(1)}));
  std::vector<size_t> doomed;
  for (size_t i = 0; i < TupleStore::kCompactMinDead + 10; ++i) {
    doomed.push_back(
        store.Insert(Tuple({Value(LongKey(static_cast<int>(i))), Value(2)})));
  }

  // Capture a view of the survivor's string before anything dies.
  std::string_view held;
  store.ProbeEach(0, Value(LongKey(-1)),
                  [&](size_t, const Tuple& t) { held = t.at(0).AsString(); });
  ASSERT_EQ(held, LongKey(-1));

  for (size_t slot : doomed) store.Remove(slot);
  // Probing a doomed key filters >= kCompactMinDead tombstones and
  // compacts the index; the held view must still read cleanly
  // (compaction touches index buckets, never tuple payloads).
  store.ProbeEach(0, Value(LongKey(0)), [](size_t, const Tuple&) { FAIL(); });
  store.ProbeEach(0, Value(LongKey(0)), [](size_t, const Tuple&) { FAIL(); });
  EXPECT_EQ(held, LongKey(-1));

  // Epoch boundary: doomed payloads are reclaimed wholesale, the
  // survivor's bytes must be untouched (its block still has live
  // units).
  store.AdvanceEpoch();
  EXPECT_EQ(store.At(keeper).at(0).AsString(), LongKey(-1));
  size_t hits = 0;
  store.ProbeEach(0, Value(LongKey(-1)), [&](size_t, const Tuple& t) {
    EXPECT_EQ(t.at(0).AsString(), LongKey(-1));
    ++hits;
  });
  EXPECT_EQ(hits, 1u);
  // Dead slots read as empty after the epoch advance, not as garbage.
  EXPECT_EQ(store.At(doomed[0]).size(), 0u);
}

TEST(TupleStoreTest, RemovedStringsStayReadableUntilEpochAdvance) {
  // Within a processing step, even a *removed* tuple's payload is
  // addressable (deferred release) — MJoin may still hold a reference
  // from the probe that matched it earlier in the step.
  TupleStore store({0});
  ASSERT_TRUE(store.arena_enabled());
  size_t slot = store.Insert(Tuple({Value(LongKey(42)), Value(7)}));
  const Tuple& ref = store.At(slot);
  std::string_view view = ref.at(0).AsString();
  store.Remove(slot);
  EXPECT_EQ(view, LongKey(42));  // ASan would flag a premature free
  EXPECT_EQ(ref.at(1).AsInt64(), 7);
  store.AdvanceEpoch();
  EXPECT_EQ(store.At(slot).size(), 0u);
}

TEST(TupleStoreTest, SteadyStateInsertAllocsReachZeroWithArena) {
  // The headline arena property: once the block working set exists,
  // insert/purge cycles recycle blocks through the free list and
  // inserts stop allocating entirely.
  TupleStore store({0});
  ASSERT_TRUE(store.arena_enabled());
  auto run_round = [&store](int round) {
    std::vector<size_t> slots;
    for (int i = 0; i < 500; ++i) {
      slots.push_back(store.Insert(
          Tuple({Value(i % 17), Value(LongKey(i)), Value(round)})));
    }
    for (size_t slot : slots) store.Remove(slot);
    store.AdvanceEpoch();
  };
  run_round(0);  // warmup builds the block working set
  uint64_t allocs_after_warmup = store.metrics().Snapshot().insert_allocs;
  for (int round = 1; round < 4; ++round) run_round(round);
  StateMetricsSnapshot snap = store.metrics().Snapshot();
  EXPECT_EQ(snap.insert_allocs, allocs_after_warmup)
      << "steady-state inserts must not allocate";
  EXPECT_GT(snap.arena_blocks_reclaimed, 0u);
  EXPECT_EQ(snap.arena_bytes_live, 0u);
  EXPECT_GT(snap.arena_bytes_reserved, 0u);
}

TEST(TupleStoreTest, HeapModeCountsPerInsertAllocs) {
  TupleStore store({0}, TupleStoreOptions{.arena = false});
  EXPECT_FALSE(store.arena_enabled());
  store.Insert(Tuple({Value(1), Value(2)}));
  StateMetricsSnapshot snap = store.metrics().Snapshot();
  EXPECT_EQ(snap.insert_allocs, 1u);  // the value block
  store.Insert(Tuple({Value(LongKey(0)), Value(LongKey(1))}));
  snap = store.metrics().Snapshot();
  EXPECT_EQ(snap.insert_allocs, 4u);  // block + two long strings
  EXPECT_EQ(snap.arena_bytes_reserved, 0u);
  EXPECT_EQ(snap.arena_blocks_reclaimed, 0u);
}

TEST(TupleStoreTest, HeapModeRowsDoNotPinTheirSourceBlock) {
  // A result row shares a staging block with the rest of its batch; a
  // heap-mode store keeps its own copy so the batch's block can go.
  // Two rows staged into one block, the way MJoinOperator stages a
  // result batch.
  ValueBlock* block = ValueBlock::Allocate(4);
  for (int i = 0; i < 4; ++i) new (block->slots() + i) Value(i + 1);
  block->SetCount(4);
  block->Ref();
  Tuple first(Tuple::AdoptRef{}, block, block->values(), 2);
  Tuple second(Tuple::AdoptRef{}, block, block->values() + 2, 2);

  TupleStore store({0}, TupleStoreOptions{.arena = false});
  const size_t slot = store.Insert(second);
  EXPECT_EQ(block->refs(), 2u);  // first and second only
  EXPECT_NE(store.At(slot).block(), block);
  EXPECT_EQ(store.At(slot).block()->count(), 2u);
  EXPECT_EQ(store.At(slot), Tuple({Value(3), Value(4)}));
}

TEST(TupleStoreTest, SlotBookkeepingBytesPerSlot) {
  // Slots never recycle: after 1,000 insert-then-purge rounds the store
  // holds no tuple but still 1,000 slots of bookkeeping. Pinned per
  // slot: 24-byte handle + 8-byte live position + 4-byte arena block
  // id (none in heap mode) + 1 live bit.
  TupleStore store({0});
  ASSERT_TRUE(store.arena_enabled());
  constexpr size_t kSlots = 1000;
  for (size_t i = 0; i < kSlots; ++i) {
    store.Remove(store.Insert(Tuple({Value(static_cast<int64_t>(i))})));
    store.AdvanceEpoch();
  }
  EXPECT_EQ(store.live_count(), 0u);
  EXPECT_EQ(store.slot_end(), kSlots);
  EXPECT_EQ(sizeof(Tuple), 24u);
  EXPECT_EQ(store.SlotBookkeepingBytes(), kSlots * 36 + kSlots / 8);

  TupleStore heap({0}, TupleStoreOptions{.arena = false});
  for (size_t i = 0; i < kSlots; ++i) {
    heap.Remove(heap.Insert(Tuple({Value(static_cast<int64_t>(i))})));
    heap.AdvanceEpoch();
  }
  EXPECT_EQ(heap.SlotBookkeepingBytes(), kSlots * 32 + kSlots / 8);
}

TEST(TupleStoreTest, ArenaOffOnParity) {
  // Identical operation sequences must observe identical contents in
  // both storage modes.
  TupleStore with_arena({0});
  TupleStore without({0}, TupleStoreOptions{.arena = false});
  for (TupleStore* store : {&with_arena, &without}) {
    std::vector<size_t> slots;
    for (int i = 0; i < 200; ++i) {
      slots.push_back(store->Insert(
          Tuple({Value(i % 7), Value(LongKey(i % 13)), Value(i)})));
    }
    for (size_t i = 0; i < slots.size(); i += 3) store->Remove(slots[i]);
    store->AdvanceEpoch();
  }
  ASSERT_EQ(with_arena.live_count(), without.live_count());
  for (int key = 0; key < 7; ++key) {
    std::multiset<std::string> a, b;
    with_arena.ProbeEach(0, Value(key), [&](size_t, const Tuple& t) {
      a.insert(t.ToString());
    });
    without.ProbeEach(0, Value(key), [&](size_t, const Tuple& t) {
      b.insert(t.ToString());
    });
    EXPECT_EQ(a, b) << "key " << key;
  }
}

}  // namespace
}  // namespace punctsafe
