// The benchmark's own reference join. Every benchmark query joins its
// streams on one composite key: each equi-join predicate links
// attributes into equivalence classes, and every stream owns exactly
// one attribute of every class. The full join is then, per key value,
// the cross product of the streams' tuples with that key. Because the
// generated traces never send a tuple after a punctuation that
// excludes it, a correct purging executor must emit exactly this full
// join: punctuations may only remove state that can join nothing more.

#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <unordered_map>

#include "common.h"

namespace punctbench {

namespace {

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "reference join: %s\n", message.c_str());
  std::exit(2);
}

struct KeyHash {
  size_t operator()(const std::vector<int64_t>& key) const {
    uint64_t h = 0;
    for (int64_t v : key) h = FoldHash(h, IntHash(v));
    return static_cast<size_t>(h);
  }
};

size_t Find(std::vector<size_t>* parent, size_t x) {
  while ((*parent)[x] != x) x = (*parent)[x] = (*parent)[(*parent)[x]];
  return x;
}

QueryReference ReferenceFor(const Workload& w, const QueryDef& q) {
  const size_t m = q.streams.size();
  // Node (position p in the query, attribute a) -> union-find index.
  std::vector<size_t> base(m + 1, 0);
  for (size_t p = 0; p < m; ++p) {
    base[p + 1] = base[p] + w.streams[q.streams[p]].attrs.size();
  }
  auto position = [&](size_t stream) {
    for (size_t p = 0; p < m; ++p) {
      if (q.streams[p] == stream) return p;
    }
    Die("join names a stream outside query " + q.id);
  };
  std::vector<size_t> parent(base[m]);
  std::iota(parent.begin(), parent.end(), 0);
  for (const QueryDef::Join& j : q.joins) {
    size_t a = Find(&parent, base[position(j.s1)] + j.a1);
    size_t b = Find(&parent, base[position(j.s2)] + j.a2);
    parent[a] = b;
  }
  // Classes touched by a join, in a fixed order; each stream must own
  // exactly one attribute of each.
  std::vector<size_t> classes;
  for (const QueryDef::Join& j : q.joins) {
    size_t c = Find(&parent, base[position(j.s1)] + j.a1);
    if (std::find(classes.begin(), classes.end(), c) == classes.end()) {
      classes.push_back(c);
    }
  }
  std::vector<std::vector<size_t>> key_attrs(m);
  for (size_t p = 0; p < m; ++p) {
    for (size_t c : classes) {
      size_t found = 0, attr = 0;
      for (size_t a = 0; a < base[p + 1] - base[p]; ++a) {
        if (Find(&parent, base[p] + a) == c) {
          ++found;
          attr = a;
        }
      }
      if (found != 1) {
        Die("query " + q.id + " is not a join on one composite key");
      }
      key_attrs[p].push_back(attr);
    }
  }

  std::vector<int> pos_of_stream(w.streams.size(), -1);
  for (size_t p = 0; p < m; ++p) pos_of_stream[q.streams[p]] = static_cast<int>(p);
  std::unordered_map<std::vector<int64_t>, std::vector<std::vector<size_t>>,
                     KeyHash>
      buckets;
  for (size_t i = 0; i < w.trace.size(); ++i) {
    const Event& e = w.trace[i];
    if (e.punct || pos_of_stream[e.stream] < 0) continue;
    size_t p = static_cast<size_t>(pos_of_stream[e.stream]);
    std::vector<int64_t> key;
    for (size_t a : key_attrs[p]) key.push_back(e.vals[a]);
    auto& lists = buckets[key];
    lists.resize(m);
    lists[p].push_back(i);
  }

  // Hash of one stream's values continuing a row prefix.
  auto extend = [&](uint64_t acc, const Event& e) {
    const StreamDef& def = w.streams[e.stream];
    for (size_t a = 0; a < e.vals.size(); ++a) {
      acc = FoldHash(acc, def.attrs[a].is_string
                              ? StringHash(StringValue(e.vals[a]))
                              : IntHash(e.vals[a]));
    }
    return acc;
  };
  QueryReference ref;
  for (const auto& [key, lists] : buckets) {
    bool empty = false;
    for (const auto& l : lists) empty = empty || l.empty();
    if (empty) continue;
    // Odometer over the cross product, with per-position hash prefixes.
    std::vector<size_t> idx(m, 0);
    std::vector<uint64_t> prefix(m + 1, 0);
    for (size_t p = 0; p < m; ++p) {
      prefix[p + 1] = extend(prefix[p], w.trace[lists[p][0]]);
    }
    for (;;) {
      ref.digest.Add(prefix[m]);
      size_t p = m;
      while (p > 0 && ++idx[p - 1] == lists[p - 1].size()) idx[--p] = 0;
      if (p == 0) break;
      for (size_t r = p - 1; r < m; ++r) {
        prefix[r + 1] = extend(prefix[r], w.trace[lists[r][idx[r]]]);
      }
    }
  }
  size_t offset = 0;
  for (size_t p = 0; p < m; ++p) {
    const StreamDef& def = w.streams[q.streams[p]];
    ref.id_offsets.push_back(offset + def.id_attr);
    offset += def.attrs.size();
  }
  return ref;
}

}  // namespace

std::vector<QueryReference> ComputeReference(const Workload& w) {
  std::vector<QueryReference> out;
  for (size_t qi = 0; qi < w.queries.size(); ++qi) {
    out.push_back(ReferenceFor(w, w.queries[qi]));
    if (qi < w.closed_form_results.size() &&
        out.back().digest.count != w.closed_form_results[qi]) {
      Die("query " + w.queries[qi].id + ": reference join has " +
          std::to_string(out.back().digest.count) +
          " results, the generator's closed form " +
          std::to_string(w.closed_form_results[qi]));
    }
  }
  return out;
}

}  // namespace punctbench
