// Shared pieces of the end-to-end benchmark: the workload description
// the generators produce and every runner consumes, the seeded RNG,
// the order-independent result digest the output checks compare, and
// small timing / memory / statistics helpers.
//
// A workload is self-contained: its stream and query definitions are
// plain data rendered into spec text and protocol lines, its trace is
// a list of integer-valued events, and its reference results are
// computed from those by the benchmark itself (reference.cc), never by
// the program under test.

#ifndef PUNCTBENCH_COMMON_H_
#define PUNCTBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "exec/plan_executor.h"
#include "stream/punctuation.h"
#include "stream/tuple.h"

namespace punctbench {

using punctsafe::ExecutorConfig;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// splitmix64: the benchmark's only source of randomness, so a seed
/// fixes every trace bit for bit on any platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) std::swap((*v)[i - 1], (*v)[Below(i)]);
  }

 private:
  uint64_t state_;
};

inline uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// ------------------------------------------------------------ workload

/// Wildcard slot of a punctuation event.
inline constexpr int64_t kWild = std::numeric_limits<int64_t>::min();

struct AttrDef {
  std::string name;
  bool is_string = false;  ///< rendered as StringValue(v)
};

struct StreamDef {
  std::string name;
  std::vector<AttrDef> attrs;
  /// Attribute carrying the event's trace position, so a result names
  /// the tuple that completed it (the latest-arriving constituent).
  size_t id_attr = 0;
};

struct QueryDef {
  std::string id;
  /// Identical registrations of this query (server fan-out).
  size_t copies = 1;
  std::vector<size_t> streams;  ///< workload stream indexes, query order
  struct Join {
    size_t s1, a1, s2, a2;
  };
  std::vector<Join> joins;
  struct Scheme {
    size_t stream;
    std::vector<size_t> attrs;
  };
  std::vector<Scheme> schemes;
};

struct Event {
  uint32_t stream = 0;
  bool punct = false;
  /// Tuple values, or punctuation constants with kWild for `*`.
  std::vector<int64_t> vals;
};

/// How a workload's rounds reach the program: the embedded serial
/// PlanExecutor, or the ingestion server over loopback sockets.
enum class Runner { kEmbedded, kServer };

struct Workload {
  std::string name;
  Runner runner = Runner::kEmbedded;
  std::vector<StreamDef> streams;
  std::vector<QueryDef> queries;
  std::vector<Event> trace;
  /// Executor configuration of the embedded runner (the server
  /// workload uses the registry's own defaults instead).
  ExecutorConfig config;
  /// Unacknowledged protocol lines the server producer keeps in
  /// flight.
  size_t window = 16;
  /// Upper bound on live join state the generator's parameters imply.
  size_t live_bound = 0;
  /// Expected result count per query copy from the generator's closed
  /// form (0 = none); checked against the reference join.
  std::vector<uint64_t> closed_form_results;
  /// Repeated admissions per round for the setup_s median.
  size_t setup_reps = 1;
  /// One-line description of the input, for the run header.
  std::string shape;
};

/// Names of the workloads, in the order `--workload all` runs them.
const std::vector<std::string>& WorkloadNames();
/// Generates workload `name` from `seed` (false: unknown name).
/// `smoke` selects the small size the benchmark's own tests use.
bool MakeWorkload(const std::string& name, uint64_t seed, bool smoke,
                  Workload* out);

/// The one string rendering of a string-typed attribute value.
inline std::string StringValue(int64_t v) { return "n" + std::to_string(v); }

/// spec_parser text of the stream declarations ("stream ...;" lines).
std::string StreamSpecLines(const Workload& w);
/// spec_parser text of one query without stream lines.
std::string QuerySpecBody(const Workload& w, const QueryDef& q);
/// Protocol CREATE STREAM line of stream `s`.
std::string CreateStreamLine(const Workload& w, size_t s);
/// Protocol PUSH/PUNCT line of one event.
std::string EventLine(const Workload& w, const Event& e);
/// Program-side tuple / punctuation of one event.
punctsafe::Tuple EventTuple(const Workload& w, const Event& e);
punctsafe::Punctuation EventPunctuation(const Event& e);

// ------------------------------------------------------------- digests

/// Hash of one attribute value, shared by the reference join and the
/// checks of the program's outputs.
inline uint64_t IntHash(int64_t v) {
  return Mix64(static_cast<uint64_t>(v) ^ 0x1234567ULL);
}
inline uint64_t StringHash(std::string_view s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : s) h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  return Mix64(h ^ 0x5757ULL);
}
inline uint64_t FoldHash(uint64_t acc, uint64_t value_hash) {
  return Mix64(acc * 0x100000001b3ULL + value_hash);
}

/// Order-independent multiset fingerprint of result rows.
struct Digest {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t sum_sq = 0;
  void Add(uint64_t row_hash) {
    ++count;
    uint64_t a = Mix64(row_hash);
    sum += a;
    sum_sq += a * Mix64(row_hash ^ 0xA5A5A5A5ULL);
  }
  bool operator==(const Digest& o) const {
    return count == o.count && sum == o.sum && sum_sq == o.sum_sq;
  }
  bool operator!=(const Digest& o) const { return !(*this == o); }
};

/// Row hash of a program result tuple.
uint64_t TupleRowHash(const punctsafe::Tuple& t);

/// Per query: reference result fingerprint and where, inside a result
/// row, each constituent's trace position sits.
struct QueryReference {
  Digest digest;
  std::vector<size_t> id_offsets;  ///< result-row offsets of id attrs
};

/// Reference join of every query over the workload's trace
/// (reference.cc). Aborts on query shapes it does not cover.
std::vector<QueryReference> ComputeReference(const Workload& w);

// --------------------------------------------------------- statistics

/// Linear-interpolated quantile of `v` (reordered in place).
double Quantile(std::vector<int64_t>* v, double q);
double Median(std::vector<double> v);

/// Resident set size of this process in bytes (/proc/self/statm).
size_t RssBytes();
/// Returns freed heap pages to the OS so the resident-size delta of
/// the next phase counts what that phase allocates.
void TrimHeap();

/// Outcome of one round (one full pass over a workload's trace).
struct RoundStats {
  uint64_t events = 0;
  uint64_t failed = 0;
  double busy_s = 0;  ///< time the program held the calling thread
  double setup_s = 0;
  std::vector<int64_t> result_lat_ns;
  std::vector<int64_t> punct_lat_ns;
  size_t peak_live_tuples = 0;
  size_t peak_live_punctuations = 0;
  /// Stored punctuations left when the round ends (all stores).
  size_t final_live_punctuations = 0;
  double state_mb = 0;
  std::string plans;  ///< plans the chooser picked, for the run header
  std::string error;  ///< first failed output check, empty if correct
};

/// Per-layer measurements of a traced run, by metric name.
using LayerMetrics = std::map<std::string, double>;

}  // namespace punctbench

#endif  // PUNCTBENCH_COMMON_H_
