// Trace generators of the three workloads, and the renderings of a
// workload into the program's inputs (spec text, protocol lines,
// tuples, punctuations). Every trace depends only on the seed and the
// size setting; its shape (how many tuples, results and punctuations,
// how many auctions are open) does not depend on the seed, so figures
// from different seeds measure the same amount of work.

#include "common.h"

namespace punctbench {

using punctsafe::Pattern;
using punctsafe::Punctuation;
using punctsafe::Tuple;
using punctsafe::Value;

// ---------------------------------------------------------- rendering

std::string StreamSpecLines(const Workload& w) {
  std::string out;
  for (const StreamDef& s : w.streams) {
    out += "stream " + s.name;
    for (const AttrDef& a : s.attrs) {
      out += " " + a.name + (a.is_string ? ":string" : ":int");
    }
    out += "; ";
  }
  return out;
}

std::string QuerySpecBody(const Workload& w, const QueryDef& q) {
  auto attr = [&](size_t s, size_t a) {
    return w.streams[s].name + "." + w.streams[s].attrs[a].name;
  };
  std::string out;
  for (const QueryDef::Scheme& sc : q.schemes) {
    out += "scheme " + w.streams[sc.stream].name;
    for (size_t a : sc.attrs) out += " " + w.streams[sc.stream].attrs[a].name;
    out += "; ";
  }
  out += "query";
  for (size_t s : q.streams) out += " " + w.streams[s].name;
  for (const QueryDef::Join& j : q.joins) {
    out += "; join " + attr(j.s1, j.a1) + " = " + attr(j.s2, j.a2);
  }
  return out;
}

std::string CreateStreamLine(const Workload& w, size_t s) {
  const StreamDef& def = w.streams[s];
  std::string out = "CREATE STREAM " + def.name;
  for (const AttrDef& a : def.attrs) {
    out += " " + a.name + (a.is_string ? ":string" : ":int");
  }
  return out;
}

std::string EventLine(const Workload& w, const Event& e) {
  const StreamDef& def = w.streams[e.stream];
  std::string out = (e.punct ? "PUNCT " : "PUSH ") + def.name;
  for (size_t a = 0; a < e.vals.size(); ++a) {
    out += ' ';
    if (e.vals[a] == kWild) {
      out += '*';
    } else if (def.attrs[a].is_string) {
      out += '"' + StringValue(e.vals[a]) + '"';
    } else {
      out += std::to_string(e.vals[a]);
    }
  }
  return out;
}

Tuple EventTuple(const Workload& w, const Event& e) {
  const StreamDef& def = w.streams[e.stream];
  std::vector<Value> values;
  values.reserve(e.vals.size());
  for (size_t a = 0; a < e.vals.size(); ++a) {
    if (def.attrs[a].is_string) {
      values.emplace_back(StringValue(e.vals[a]));
    } else {
      values.emplace_back(e.vals[a]);
    }
  }
  return Tuple(std::move(values));
}

Punctuation EventPunctuation(const Event& e) {
  std::vector<Pattern> patterns;
  patterns.reserve(e.vals.size());
  for (int64_t v : e.vals) {
    patterns.push_back(v == kWild ? Pattern::Wildcard() : Pattern(Value(v)));
  }
  return Punctuation(std::move(patterns));
}

// --------------------------------------------------------- generators

namespace {

/// Distinct 40-bit key values: an odd multiplier is a bijection
/// modulo 2^40, and the seed picks the offset.
struct KeySpace {
  explicit KeySpace(Rng* rng) : offset(rng->Next()) {}
  int64_t operator()(uint64_t i) const {
    return static_cast<int64_t>(((i + 1) * 0x9E3779B97F4A7C15ULL + offset) &
                                ((uint64_t{1} << 40) - 1));
  }
  uint64_t offset;
};

/// Writes every tuple's trace position into its id attribute.
void StampIds(Workload* w) {
  for (size_t i = 0; i < w->trace.size(); ++i) {
    Event& e = w->trace[i];
    if (!e.punct) e.vals[w->streams[e.stream].id_attr] = static_cast<int64_t>(i);
  }
}

// The paper's Example 1 streams and query (item ⋈ bid on itemid).
size_t AddAuctionStreams(Workload* w) {
  size_t item = w->streams.size();
  w->streams.push_back({"item",
                        {{"sellerid"}, {"itemid"}, {"name", true},
                         {"initialprice"}},
                        0});
  w->streams.push_back({"bid", {{"bidderid"}, {"itemid"}, {"increase"}}, 0});
  return item;
}

QueryDef AuctionQuery(size_t item, const std::string& id, size_t copies) {
  QueryDef q;
  q.id = id;
  q.copies = copies;
  q.streams = {item, item + 1};
  q.joins = {{item, 1, item + 1, 1}};
  q.schemes = {{item, {1}}, {item + 1, {1}}};
  return q;
}

struct AuctionParams {
  size_t items;
  size_t open;  ///< concurrently open auctions
  size_t bids;  ///< bids per auction, exactly
};

/// Rolling market: `open` auctions are open at any time; each bid
/// goes to a uniformly chosen open auction, and an auction closes (bid
/// punctuation) after its last bid, making room for the next item.
/// Every item is followed by its item punctuation (itemid is a key).
std::vector<Event> AuctionEvents(Rng* rng, size_t item_stream,
                                 const AuctionParams& p) {
  KeySpace keys(rng);
  const uint32_t item = static_cast<uint32_t>(item_stream);
  const uint32_t bid = item + 1;
  std::vector<Event> out;
  std::vector<int64_t> slot_item(p.open);
  std::vector<size_t> bids_left(p.open);
  std::vector<size_t> live;  // open slots
  size_t next_item = 0;
  auto open_item = [&](size_t slot) {
    int64_t itemid = keys(next_item++);
    slot_item[slot] = itemid;
    bids_left[slot] = p.bids;
    out.push_back({item, false,
                   {0, itemid, itemid,
                    10 + static_cast<int64_t>(rng->Below(990))}});
    out.push_back({item, true, {kWild, itemid, kWild, kWild}});
  };
  for (size_t s = 0; s < p.open && next_item < p.items; ++s) {
    open_item(s);
    live.push_back(s);
  }
  while (!live.empty()) {
    size_t pick = rng->Below(live.size());
    size_t slot = live[pick];
    out.push_back({bid, false,
                   {0, slot_item[slot], 1 + static_cast<int64_t>(rng->Below(100))}});
    if (--bids_left[slot] > 0) continue;
    out.push_back({bid, true, {kWild, slot_item[slot], kWild}});
    if (next_item < p.items) {
      open_item(slot);
    } else {
      live[pick] = live.back();
      live.pop_back();
    }
  }
  return out;
}

size_t AddChainStreams(Workload* w) {
  size_t first = w->streams.size();
  for (int i = 0; i < 3; ++i) {
    w->streams.push_back({"T" + std::to_string(i), {{"k"}, {"v"}}, 1});
  }
  return first;
}

/// The 3-way chain T0.k = T1.k = T2.k with one scheme on k per stream.
QueryDef ChainQuery(size_t first) {
  QueryDef q;
  q.id = "chain";
  q.streams = {first, first + 1, first + 2};
  q.joins = {{first, 0, first + 1, 0}, {first + 1, 0, first + 2, 0}};
  q.schemes = {{first, {0}}, {first + 1, {0}}, {first + 2, {0}}};
  return q;
}

/// Covering chain trace: each generation draws `keys` fresh key
/// values, gives each exactly `per_key` tuples on every stream
/// (shuffled), then closes every key on every stream. Returns the
/// closed-form result count: generations x keys x per_key^3.
///
/// `rng` picks the key values; `pattern_seed` shuffles the arrival
/// pattern (which stream and which key slot comes next). How many
/// results one call emits depends on that pattern alone, so a fixed
/// pattern seed keeps the extremes it drives — the largest result
/// batch, the memory it holds, the latency tail — the same for every
/// seed.
uint64_t ChainEvents(Rng* rng, uint64_t pattern_seed, size_t first,
                     size_t generations, size_t keys, size_t per_key,
                     std::vector<Event>* out) {
  KeySpace key_space(rng);
  Rng pattern(pattern_seed);
  uint64_t next_key = 0;
  for (size_t g = 0; g < generations; ++g) {
    std::vector<Event> tuples;
    std::vector<Event> puncts;
    for (size_t k = 0; k < keys; ++k) {
      const int64_t key = key_space(next_key++);
      for (uint32_t s = 0; s < 3; ++s) {
        uint32_t stream = static_cast<uint32_t>(first) + s;
        for (size_t n = 0; n < per_key; ++n) {
          tuples.push_back({stream, false, {key, 0}});
        }
        puncts.push_back({stream, true, {key, kWild}});
      }
    }
    pattern.Shuffle(&tuples);
    pattern.Shuffle(&puncts);
    out->insert(out->end(), tuples.begin(), tuples.end());
    out->insert(out->end(), puncts.begin(), puncts.end());
  }
  return static_cast<uint64_t>(generations) * keys * per_key * per_key *
         per_key;
}

size_t AddSensorStreams(Workload* w) {
  size_t first = w->streams.size();
  w->streams.push_back({"sensors", {{"sensor_id"}, {"epoch"}, {"region"}}, 2});
  w->streams.push_back({"readings", {{"sensor_id"}, {"epoch"}, {"value"}}, 2});
  w->streams.push_back(
      {"calibrations", {{"sensor_id"}, {"epoch"}, {"offset"}}, 2});
  return first;
}

/// readings ⋈ sensors ⋈ calibrations on (sensor_id, epoch). The pair
/// schemes alone give the simple punctuation graph no edges; only the
/// generalized graph (paper Def 8) proves the query safe.
QueryDef SensorQuery(size_t first) {
  size_t sensors = first, readings = first + 1, calibrations = first + 2;
  QueryDef q;
  q.id = "sensor";
  q.streams = {sensors, readings, calibrations};
  q.joins = {{readings, 0, sensors, 0},
             {readings, 1, sensors, 1},
             {readings, 0, calibrations, 0},
             {readings, 1, calibrations, 1}};
  q.schemes = {{sensors, {0, 1}},
               {readings, {0}},
               {readings, {0, 1}},
               {calibrations, {0, 1}}};
  return q;
}

/// Sensor epochs: per epoch every sensor renews its lease, posts
/// `readings` readings and one calibration (shuffled), then every
/// (sensor_id, epoch) pair is closed on all three streams; finally
/// each sensor is decommissioned on readings. Returns one event block
/// per epoch (the last block also carries the decommissions).
std::vector<std::vector<Event>> SensorEpochs(Rng* rng, size_t first,
                                             size_t sensors, size_t epochs,
                                             size_t readings) {
  KeySpace keys(rng);
  const uint32_t s_stream = static_cast<uint32_t>(first);
  std::vector<int64_t> ids(sensors);
  for (size_t s = 0; s < sensors; ++s) ids[s] = keys(s);
  int64_t epoch0 = static_cast<int64_t>(rng->Below(1000000));
  std::vector<std::vector<Event>> blocks(epochs);
  for (size_t e = 0; e < epochs; ++e) {
    int64_t epoch = epoch0 + static_cast<int64_t>(e);
    std::vector<Event>& out = blocks[e];
    for (int64_t id : ids) out.push_back({s_stream, false, {id, epoch, 0}});
    std::vector<Event> data;
    for (int64_t id : ids) {
      for (size_t r = 0; r < readings; ++r) {
        data.push_back({s_stream + 1, false, {id, epoch, 0}});
      }
      data.push_back({s_stream + 2, false, {id, epoch, 0}});
    }
    rng->Shuffle(&data);
    out.insert(out.end(), data.begin(), data.end());
    for (int64_t id : ids) {
      for (uint32_t s = 0; s < 3; ++s) {
        out.push_back({s_stream + s, true, {id, epoch, kWild}});
      }
    }
  }
  for (int64_t id : ids) {
    blocks.back().push_back({s_stream + 1, true, {id, kWild, kWild}});
  }
  return blocks;
}

Workload AuctionWide(uint64_t seed, bool smoke) {
  Rng rng(seed);
  Workload w;
  w.name = "auction_wide";
  w.runner = Runner::kEmbedded;
  AuctionParams p{smoke ? 512u : 3072u, smoke ? 128u : 1024u, 4};
  size_t item = AddAuctionStreams(&w);
  w.queries.push_back(AuctionQuery(item, "auction", 1));
  w.trace = AuctionEvents(&rng, item, p);
  StampIds(&w);
  w.config.mjoin.purge_policy = punctsafe::PurgePolicy::kEager;
  w.config.mjoin.purge_punctuations = true;
  w.config.batch_size = 1;
  w.live_bound = p.open * (1 + p.bids);
  w.closed_form_results = {p.items * p.bids};
  w.setup_reps = 25;
  w.shape = "items=" + std::to_string(p.items) + " open=" +
            std::to_string(p.open) + " bids/item=" + std::to_string(p.bids) +
            " eager batch=1 purge_punctuations=on";
  return w;
}

Workload ChainExpand(uint64_t seed, bool smoke) {
  Rng rng(seed);
  Workload w;
  w.name = "chain_expand";
  w.runner = Runner::kEmbedded;
  size_t first = AddChainStreams(&w);
  w.queries.push_back(ChainQuery(first));
  // 48 generations: 1,152 punctuations a round, enough for a p99.
  const size_t generations = smoke ? 2 : 48, keys = 8, per_key = 25;
  // The timed size keeps one arrival pattern for every seed (see
  // ChainEvents); the smoke size, which the output checks are tried
  // on, draws it from the seed so that a second seed tries another
  // arrival order.
  const uint64_t pattern_seed = smoke ? Mix64(seed ^ 0x5EEDC4A1) : 0x5EEDC4A1;
  w.closed_form_results = {ChainEvents(&rng, pattern_seed, first, generations,
                                       keys, per_key, &w.trace)};
  StampIds(&w);
  w.config.mjoin.purge_policy = punctsafe::PurgePolicy::kLazy;
  w.config.batch_size = 128;
  // A lazy sweep runs every lazy_batch punctuations, which span at
  // most ceil(lazy_batch / punctuations per generation) generations;
  // the generation a sweep lands in is left partly closed, and the
  // next one is open. No more generations can be live at once.
  const size_t lazy = w.config.mjoin.lazy_batch, puncts_per_gen = 3 * keys;
  w.live_bound = ((lazy + puncts_per_gen - 1) / puncts_per_gen + 2) * 3 *
                 keys * per_key;
  w.setup_reps = 25;
  w.shape = "generations=" + std::to_string(generations) +
            " keys/gen=" + std::to_string(keys) + " tuples/(stream,key)=" +
            std::to_string(per_key) + " lazy batch=128";
  return w;
}

Workload ServerFanout(uint64_t seed, bool smoke) {
  Rng rng(seed);
  Workload w;
  w.name = "server_fanout";
  w.runner = Runner::kServer;
  const size_t copies = 8;
  AuctionParams p{smoke ? 120u : 1600u, 64, 4};
  const size_t sensors = 8, epochs = smoke ? 4 : 40, readings = 3;
  size_t item = AddAuctionStreams(&w);
  size_t first_sensor = AddSensorStreams(&w);
  w.queries.push_back(AuctionQuery(item, "auction", copies));
  w.queries.push_back(SensorQuery(first_sensor));
  std::vector<Event> auction = AuctionEvents(&rng, item, p);
  std::vector<std::vector<Event>> blocks =
      SensorEpochs(&rng, first_sensor, sensors, epochs, readings);
  // One sensor epoch after every `stride` auction events.
  size_t stride = auction.size() / epochs + 1;
  size_t next_block = 0;
  for (size_t i = 0; i < auction.size(); ++i) {
    w.trace.push_back(auction[i]);
    if ((i + 1) % stride == 0 && next_block < blocks.size()) {
      const std::vector<Event>& b = blocks[next_block++];
      w.trace.insert(w.trace.end(), b.begin(), b.end());
    }
  }
  for (; next_block < blocks.size(); ++next_block) {
    w.trace.insert(w.trace.end(), blocks[next_block].begin(),
                   blocks[next_block].end());
  }
  StampIds(&w);
  w.window = 16;
  w.live_bound = copies * p.open * (1 + p.bids) + sensors * (2 + readings);
  w.closed_form_results = {p.items * p.bids, sensors * epochs * readings};
  w.setup_reps = 3;
  w.shape = "queries=" + std::to_string(copies) + " auction + 1 sensor, items=" +
            std::to_string(p.items) + " open=" + std::to_string(p.open) +
            " sensors=" + std::to_string(sensors) + " epochs=" +
            std::to_string(epochs) + " window=" + std::to_string(w.window) +
            " registry defaults";
  return w;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "auction_wide", "chain_expand", "server_fanout"};
  return names;
}

bool MakeWorkload(const std::string& name, uint64_t seed, bool smoke,
                  Workload* out) {
  if (name == "auction_wide") {
    *out = AuctionWide(seed, smoke);
  } else if (name == "chain_expand") {
    *out = ChainExpand(seed, smoke);
  } else if (name == "server_fanout") {
    *out = ServerFanout(seed, smoke);
  } else {
    return false;
  }
  return true;
}

}  // namespace punctbench
