// punctsafe_serve: the multi-query ingestion server as a command-line
// tool (docs/SERVER.md documents the wire protocol).
//
//   punctsafe_serve [--port N] [--shards N] [--batch N] [--parallel]
//
// Binds 127.0.0.1 (port 0 = ephemeral; the bound port is printed
// either way, so scripts can parse `listening on 127.0.0.1:<port>`),
// then runs the event loop until SIGINT/SIGTERM. Talk to it with any
// line client, e.g.:
//
//   nc 127.0.0.1 <port>
//   CREATE STREAM item id:int price:double
//   REGISTER QUERY q AS scheme item id; query item item2; join ...
//   SUBSCRIBE q
//   PUSH item 1 9.99

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "server/query_registry.h"
#include "server/server.h"

using namespace punctsafe;

namespace {

server::IngestServer* g_server = nullptr;

void HandleSignal(int /*sig*/) {
  // Async-signal-safe: only flips an atomic and writes the wakeup
  // pipe; the main thread joins/reaps after Run returns.
  if (g_server != nullptr) g_server->RequestStop();
}

int Usage(int code) {
  std::fprintf(stderr,
               "usage: punctsafe_serve [--port N] [--shards N] [--batch N] "
               "[--parallel]\n");
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  server::ServerConfig server_config;
  ExecutorConfig exec_config = server::QueryRegistry::DefaultConfig();
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next_int = [&](long* out) {
      if (i + 1 >= argc) return false;
      *out = std::strtol(argv[++i], nullptr, 10);
      return true;
    };
    long v = 0;
    if (arg == "--port" && next_int(&v)) {
      server_config.port = static_cast<uint16_t>(v);
    } else if (arg == "--shards" && next_int(&v) && v > 0) {
      exec_config.shards = static_cast<size_t>(v);
    } else if (arg == "--batch" && next_int(&v) && v > 0) {
      exec_config.batch_size = static_cast<size_t>(v);
    } else if (arg == "--parallel") {
      exec_config.mode = ExecutionMode::kParallel;
    } else if (arg == "--help" || arg == "-h") {
      return Usage(0);
    } else {
      std::fprintf(stderr, "punctsafe_serve: unknown argument '%s'\n",
                   arg.c_str());
      return Usage(1);
    }
  }

  server::QueryRegistry registry(exec_config);
  auto srv = server::IngestServer::Listen(&registry, server_config);
  if (!srv.ok()) {
    std::fprintf(stderr, "punctsafe_serve: %s\n",
                 srv.status().ToString().c_str());
    return 1;
  }
  std::printf("punctsafe_serve: listening on 127.0.0.1:%u\n",
              (*srv)->port());
  std::fflush(stdout);

  g_server = srv->get();
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  (*srv)->Run();
  (*srv)->Stop();  // reap connections; idempotent
  std::printf("punctsafe_serve: shut down\n");
  return 0;
}
