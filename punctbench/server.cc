// Server runners: a real IngestServer on an ephemeral loopback port
// (one pipelining producer connection, one subscriber connection), and
// the in-process replay of the same protocol lines the traced run uses
// to split the server's time into parse, registry fan-out, result
// taking and formatting, and transport.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <thread>
#include <unordered_map>

#include "runners.h"
#include "server/protocol.h"
#include "server/query_registry.h"
#include "server/server.h"

namespace punctbench {

namespace {

namespace srv = punctsafe::server;

/// A blocking newline-framed loopback client.
class LineSocket {
 public:
  LineSocket() = default;
  LineSocket(const LineSocket&) = delete;
  LineSocket& operator=(const LineSocket&) = delete;
  ~LineSocket() {
    if (fd_ >= 0) close(fd_);
  }

  bool Connect(uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    timeval tv{20, 0};  // a lost line fails the round instead of hanging
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    return connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }

  bool SendAll(const std::string& data) {
    size_t off = 0;
    while (off < data.size()) {
      ssize_t n = send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  /// Next line without its newline; false on EOF, error or timeout.
  bool ReadLine(std::string* line) {
    for (;;) {
      size_t nl = buf_.find('\n', pos_);
      if (nl != std::string::npos) {
        line->assign(buf_, pos_, nl - pos_);
        pos_ = nl + 1;
        return true;
      }
      buf_.erase(0, pos_);
      pos_ = 0;
      char chunk[65536];
      ssize_t n = read(fd_, chunk, sizeof(chunk));
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

  /// Sends one command line and checks its one-line answer.
  bool Expect(const std::string& command, std::string* error) {
    std::string answer;
    if (!SendAll(command + "\n") || !ReadLine(&answer)) {
      *error = "no answer to: " + command;
      return false;
    }
    if (answer.rfind("OK", 0) != 0) {
      *error = command + " -> " + answer;
      return false;
    }
    return true;
  }

 private:
  int fd_ = -1;
  std::string buf_;
  size_t pos_ = 0;
};

/// The registered query ids, one per instance (query copy).
struct Instances {
  std::vector<std::string> ids;
  std::vector<size_t> query;  ///< instance -> query index
};

Instances ListInstances(const Workload& w) {
  Instances out;
  for (size_t qi = 0; qi < w.queries.size(); ++qi) {
    for (size_t c = 0; c < w.queries[qi].copies; ++c) {
      out.ids.push_back(w.queries[qi].id + std::to_string(c));
      out.query.push_back(qi);
    }
  }
  return out;
}

/// Setup lines: every stream, then every registration.
std::vector<std::string> SetupLines(const Workload& w, const Instances& in) {
  std::vector<std::string> lines;
  for (size_t s = 0; s < w.streams.size(); ++s) {
    lines.push_back(CreateStreamLine(w, s));
  }
  for (size_t k = 0; k < in.ids.size(); ++k) {
    lines.push_back("REGISTER QUERY " + in.ids[k] + " AS " +
                    QuerySpecBody(w, w.queries[in.query[k]]));
  }
  return lines;
}

/// One CPU each for the server's event loop, the producer and the
/// subscriber, rotated round by round. Left to the scheduler, the three
/// threads move between and stack onto the vCPUs of a shared machine,
/// and a round's latency tail then depends on where they landed. Does
/// nothing with fewer than three CPUs; the destructor restores the
/// calling thread's mask.
class ThreadPins {
 public:
  enum Role { kLoop = 0, kProducer = 1, kSubscriber = 2 };

  ThreadPins() {
    static size_t rotation = 0;
    first_ = rotation++;
    CPU_ZERO(&all_);
    if (sched_getaffinity(0, sizeof(all_), &all_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &all_)) cpus_.push_back(c);
    }
  }
  ThreadPins(const ThreadPins&) = delete;
  ThreadPins& operator=(const ThreadPins&) = delete;
  ~ThreadPins() {
    if (cpus_.size() >= 3) sched_setaffinity(0, sizeof(all_), &all_);
  }

  /// Pins the calling thread (threads it starts inherit the pin).
  void Pin(Role role) const {
    if (cpus_.size() < 3) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[(first_ + role) % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t all_;
  std::vector<int> cpus_;
  size_t first_ = 0;
};

/// One server with its registry and the two client connections.
/// Members are destroyed in reverse order: clients, server, registry.
struct Session {
  srv::QueryRegistry registry;  // the registry's default configuration
  std::unique_ptr<srv::IngestServer> server;
  LineSocket producer;
  LineSocket subscriber;
};

bool SetUp(const Workload& w, const Instances& in, const ThreadPins& pins,
           Session* s, std::string* error) {
  auto server = srv::IngestServer::Listen(&s->registry);
  if (!server.ok()) return *error = server.status().ToString(), false;
  s->server = std::move(server).ValueOrDie();
  pins.Pin(ThreadPins::kLoop);  // the event-loop thread inherits it
  punctsafe::Status started = s->server->Start();
  pins.Pin(ThreadPins::kProducer);
  if (!started.ok()) return *error = started.ToString(), false;
  if (!s->producer.Connect(s->server->port()) ||
      !s->subscriber.Connect(s->server->port())) {
    *error = "cannot connect to the server";
    return false;
  }
  for (const std::string& line : SetupLines(w, in)) {
    if (!s->producer.Expect(line, error)) return false;
  }
  for (const std::string& id : in.ids) {
    if (!s->subscriber.Expect("SUBSCRIBE " + id, error)) return false;
  }
  return true;
}

/// `key=<number>` inside a STAT value.
uint64_t StatField(const std::string& value, const std::string& key) {
  size_t pos = value.find(key + "=");
  if (pos == std::string::npos) return 0;
  return std::strtoull(value.c_str() + pos + key.size() + 1, nullptr, 10);
}

/// Registry counters read from STATS key/value pairs.
struct RegistryStats {
  uint64_t executor_pushes = 0;  ///< tuples_in + punctuations_in
  uint64_t live_tuples = 0;
  uint64_t shared_punctuations = 0;
};

void AddStat(const std::string& key, const std::string& value,
             RegistryStats* out) {
  if (key.rfind("query.", 0) == 0) {
    out->executor_pushes +=
        StatField(value, "tuples_in") + StatField(value, "punctuations_in");
    out->live_tuples += StatField(value, "live_tuples");
  } else if (key.rfind("subjoin.", 0) == 0) {
    out->shared_punctuations += StatField(value, "punctuations");
  }
}

}  // namespace

RoundStats ServerRound(const RunContext& ctx, const RoundStats& mirror,
                       LayerMetrics* layers) {
  const Workload& w = *ctx.w;
  const size_t n = w.trace.size();
  const Instances in = ListInstances(w);
  RoundStats st;
  st.events = n;

  uint64_t expected_results = 0;
  for (size_t k = 0; k < in.ids.size(); ++k) {
    expected_results += ctx.ref[in.query[k]].digest.count;
  }
  std::unique_ptr<std::atomic<int64_t>[]> send_ns(new std::atomic<int64_t>[n]);
  for (size_t i = 0; i < n; ++i) send_ns[i].store(0);
  st.result_lat_ns.assign(expected_results, 0);
  st.punct_lat_ns.assign(ctx.punct_events, 0);
  std::vector<size_t> window(w.window, 0);  // ring of unanswered lines
  std::string batch;
  batch.reserve(4096);

  ThreadPins pins;
  std::unique_ptr<Session> s;
  std::vector<double> setups;
  size_t base_rss = 0;
  for (size_t r = 0; r < std::max<size_t>(1, w.setup_reps); ++r) {
    s.reset();
    if (r + 1 == std::max<size_t>(1, w.setup_reps)) {
      TrimHeap();
      base_rss = RssBytes();
    }
    int64_t t0 = NowNs();
    s = std::make_unique<Session>();
    if (!SetUp(w, in, pins, s.get(), &st.error)) return st;
    setups.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }
  st.setup_s = Median(setups);

  // Subscriber: RESULT lines until every expected result arrived.
  std::unordered_map<std::string, size_t> instance_of;
  for (size_t k = 0; k < in.ids.size(); ++k) instance_of[in.ids[k]] = k;
  std::vector<Digest> digests(in.ids.size());
  std::string sub_error;
  std::atomic<int64_t> last_result_ns{0};
  size_t n_res = 0;
  std::thread subscriber([&] {
    pins.Pin(ThreadPins::kSubscriber);
    std::string line;
    uint64_t received = 0, bad = 0;
    std::vector<std::string_view> tok;
    while (received < expected_results) {
      if (!s->subscriber.ReadLine(&line)) {
        sub_error = "subscriber lost the connection after " +
                    std::to_string(received) + " of " +
                    std::to_string(expected_results) + " results";
        break;
      }
      const int64_t now = NowNs();
      tok.clear();
      for (size_t b = 0; b < line.size();) {
        size_t e = line.find(' ', b);
        if (e == std::string::npos) e = line.size();
        tok.emplace_back(line.data() + b, e - b);
        b = e + 1;
      }
      if (tok.size() < 2 || tok[0] != "RESULT") continue;
      auto it = instance_of.find(std::string(tok[1]));
      if (it == instance_of.end()) {
        ++bad;
        continue;
      }
      ++received;
      uint64_t h = 0;
      for (size_t t = 2; t < tok.size(); ++t) {
        std::string_view v = tok[t];
        h = FoldHash(h, !v.empty() && v[0] == '"'
                            ? StringHash(v.substr(1, v.size() - 2))
                            : IntHash(std::strtoll(std::string(v).c_str(),
                                                   nullptr, 10)));
      }
      digests[it->second].Add(h);
      int64_t last = -1;
      for (size_t off : ctx.ref[in.query[it->second]].id_offsets) {
        if (off + 2 < tok.size()) {
          last = std::max<int64_t>(
              last, std::strtoll(std::string(tok[off + 2]).c_str(), nullptr, 10));
        }
      }
      if (last < 0 || static_cast<size_t>(last) >= n || n_res >= expected_results) {
        ++bad;
        continue;
      }
      st.result_lat_ns[n_res++] = now - send_ns[last].load(std::memory_order_acquire);
      last_result_ns.store(now, std::memory_order_relaxed);
    }
    if (bad > 0 && sub_error.empty()) {
      sub_error = std::to_string(bad) + " RESULT lines name no query or no pushed tuple";
    }
  });

  // Producer: keep up to `window` lines unanswered, closed loop.
  size_t peak_rss = base_rss;
  size_t next = 0, head = 0, outstanding = 0, n_punct = 0, answered = 0;
  std::string answer, first_err;
  const int64_t begin = NowNs();
  while (next < n || outstanding > 0) {
    if (next < n && outstanding < w.window) {
      batch.clear();
      size_t first = next;
      while (next < n && outstanding < w.window) {
        batch += ctx.lines[next];
        batch += '\n';
        window[(head + outstanding) % w.window] = next++;
        ++outstanding;
      }
      const int64_t t = NowNs();
      for (size_t j = first; j < next; ++j) {
        send_ns[j].store(t, std::memory_order_release);
      }
      if (!s->producer.SendAll(batch)) {
        st.error = "producer send failed";
        break;
      }
    }
    if (!s->producer.ReadLine(&answer)) {
      st.error = "producer lost the connection";
      break;
    }
    const int64_t now = NowNs();
    size_t idx = window[head];
    head = (head + 1) % w.window;
    --outstanding;
    if (answer != "OK") {
      ++st.failed;
      if (first_err.empty()) first_err = ctx.lines[idx] + " -> " + answer;
    }
    if (w.trace[idx].punct) {
      st.punct_lat_ns[n_punct++] =
          now - send_ns[idx].load(std::memory_order_relaxed);
    }
    if ((++answered & 15) == 0) peak_rss = std::max(peak_rss, RssBytes());
  }
  const int64_t acked = NowNs();
  if (!st.error.empty()) {
    // Unblock the subscriber: closing the server ends its connection.
    s->server->Stop();
  }
  subscriber.join();
  peak_rss = std::max(peak_rss, RssBytes());
  const int64_t end = std::max(acked, last_result_ns.load());
  st.busy_s = static_cast<double>(end - begin) * 1e-9;
  st.state_mb = static_cast<double>(peak_rss - base_rss) / 1e6;
  st.result_lat_ns.resize(n_res);
  st.punct_lat_ns.resize(n_punct);
  if (st.error.empty()) st.error = sub_error;
  if (st.error.empty() && st.failed > 0) {
    st.error = std::to_string(st.failed) + " lines not answered OK, first: " +
               first_err;
  }
  // The subscriber stopped at the expected count. Every result of the
  // round was queued to it before the producer's last OK, so a RESULT
  // line still ahead of the answer to a PING is one too many.
  if (st.error.empty()) {
    if (!s->subscriber.SendAll("PING\n")) st.error = "subscriber PING send failed";
    std::string line;
    uint64_t extra = 0;
    while (st.error.empty()) {
      if (!s->subscriber.ReadLine(&line)) {
        st.error = "PING answer lost";
        break;
      }
      if (line.rfind("OK", 0) == 0) break;
      if (line.rfind("RESULT ", 0) == 0) ++extra;
    }
    if (st.error.empty() && extra > 0) {
      st.error = std::to_string(extra) + " RESULT lines beyond the " +
                 std::to_string(expected_results) + " of the reference join";
    }
  }

  // After the round: the registry's own view of its state.
  RegistryStats rs;
  if (st.error.empty()) {
    if (!s->producer.SendAll("STATS\n")) st.error = "STATS send failed";
    std::string line;
    while (st.error.empty()) {
      if (!s->producer.ReadLine(&line)) {
        st.error = "STATS answer lost";
        break;
      }
      if (line == "OK") break;
      if (line.rfind("STAT ", 0) != 0) continue;
      size_t sp = line.find(' ', 5);
      if (sp == std::string::npos) continue;
      AddStat(line.substr(5, sp - 5), line.substr(sp + 1), &rs);
    }
  }
  for (size_t k = 0; k < in.ids.size() && st.error.empty(); ++k) {
    const Digest& want = ctx.ref[in.query[k]].digest;
    if (digests[k] != want) {
      st.error = "query " + in.ids[k] +
                 ": RESULT multiset differs from the reference join (" +
                 std::to_string(digests[k].count) + " results, want " +
                 std::to_string(want.count) + ")";
    }
  }
  if (st.error.empty() && rs.live_tuples != 0) {
    st.error = "STATS reports " + std::to_string(rs.live_tuples) +
               " live tuples after the closing punctuations";
  }
  // STATS exposes the shared sub-join stores but not the per-query
  // stores or the live-tuple high water; those come from the mirror,
  // the same queries admitted the registry's way and fed these events.
  st.peak_live_tuples = mirror.peak_live_tuples;
  st.peak_live_punctuations =
      mirror.peak_live_punctuations + rs.shared_punctuations;
  st.final_live_punctuations =
      mirror.final_live_punctuations + rs.shared_punctuations;
  if (layers != nullptr) {
    // ServerReplay subtracts the in-process time per line.
    (*layers)["server.transport_ns_per_line"] =
        static_cast<double>(end - begin) / static_cast<double>(n);
    (*layers)["server.shared_store_punctuations"] =
        static_cast<double>(rs.shared_punctuations);
  }
  return st;
}

void ServerReplay(const RunContext& ctx, LayerMetrics* layers) {
  const Workload& w = *ctx.w;
  const size_t n = w.trace.size();
  const Instances in = ListInstances(w);
  LayerMetrics& L = *layers;

  // 1. The whole command path in-process, as the event loop runs it
  //    per line: ProcessLine, then take and format every subscribed
  //    query's new results.
  {
    srv::QueryRegistry registry;
    srv::Session session;
    for (const std::string& line : SetupLines(w, in)) {
      srv::ProcessLine(&registry, &session, line);
    }
    for (const std::string& id : in.ids) {
      srv::ProcessLine(&registry, &session, "SUBSCRIBE " + id);
    }
    size_t bytes = 0;
    const int64_t t0 = NowNs();
    for (size_t i = 0; i < n; ++i) {
      for (const std::string& r : srv::ProcessLine(&registry, &session, ctx.lines[i])) {
        bytes += r.size();
      }
      for (const std::string& id : in.ids) {
        auto taken = registry.TakeResults(id);
        if (!taken.ok()) continue;
        for (const punctsafe::Tuple& t : *taken) {
          bytes += srv::FormatResultLine(id, t).size();
        }
      }
    }
    const double inproc = static_cast<double>(NowNs() - t0) / static_cast<double>(n);
    L["server.transport_ns_per_line"] -= inproc;
    if (bytes == 0) std::fprintf(stderr, "in-process replay produced nothing\n");
  }

  // 2. The same events layer by layer on a fresh registry.
  srv::QueryRegistry registry;
  srv::Session session;
  for (const std::string& line : SetupLines(w, in)) {
    srv::ProcessLine(&registry, &session, line);
  }
  std::vector<punctsafe::Schema> schemas;
  for (const StreamDef& s : w.streams) {
    schemas.push_back(registry.SchemaFor(s.name).ValueOrDie());
  }
  int64_t parse_ns = 0, push_ns = 0, take_ns = 0, format_ns = 0;
  uint64_t takes = 0, results = 0, result_bytes = 0;
  for (size_t i = 0; i < n; ++i) {
    const Event& e = w.trace[i];
    const std::string& stream = w.streams[e.stream].name;
    const int64_t t0 = NowNs();
    std::vector<std::string> tokens = srv::Tokenize(ctx.lines[i]);
    if (e.punct) {
      auto p = srv::ParsePunctuationTokens(schemas[e.stream], tokens, 2);
      const int64_t t1 = NowNs();
      auto s = registry.PushPunctuation(stream, *p);
      const int64_t t2 = NowNs();
      parse_ns += t1 - t0;
      push_ns += t2 - t1;
      if (!s.ok()) std::fprintf(stderr, "replay: %s\n", s.ToString().c_str());
    } else {
      auto t = srv::ParseTupleTokens(schemas[e.stream], tokens, 2);
      const int64_t t1 = NowNs();
      auto s = registry.PushTuple(stream, *t);
      const int64_t t2 = NowNs();
      parse_ns += t1 - t0;
      push_ns += t2 - t1;
      if (!s.ok()) std::fprintf(stderr, "replay: %s\n", s.ToString().c_str());
    }
    for (const std::string& id : in.ids) {
      const int64_t k0 = NowNs();
      auto taken = registry.TakeResults(id);
      take_ns += NowNs() - k0;
      ++takes;
      if (!taken.ok()) continue;
      for (const punctsafe::Tuple& t : *taken) {
        const int64_t f0 = NowNs();
        std::string line = srv::FormatResultLine(id, t);
        format_ns += NowNs() - f0;
        result_bytes += line.size() + 1;
        ++results;
      }
    }
  }
  RegistryStats rs;
  for (const auto& [key, value] : registry.Stats()) AddStat(key, value, &rs);
  const double events = static_cast<double>(n);
  L["server.parse_ns_per_line"] = static_cast<double>(parse_ns) / events;
  L["server.registry_push_ns_per_event"] = static_cast<double>(push_ns) / events;
  L["server.executor_pushes_per_event"] =
      static_cast<double>(rs.executor_pushes) / events;
  L["server.take_results_ns"] =
      takes == 0 ? 0.0 : static_cast<double>(take_ns) / static_cast<double>(takes);
  L["server.format_ns_per_result"] =
      results == 0 ? 0.0
                   : static_cast<double>(format_ns) / static_cast<double>(results);
  L["server.result_bytes"] = static_cast<double>(result_bytes);
}

}  // namespace punctbench
