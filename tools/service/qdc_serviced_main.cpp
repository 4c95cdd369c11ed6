// qdc_serviced — the experiment service daemon.
//
// Thin shell around service::ExperimentServer: parses flags, injects the
// steady-clock tick source (the library itself is clock-free), prints a
// single "listening" readiness line, then blocks until a ShutdownRequest
// arrives on the socket or SIGINT/SIGTERM arrives from the OS. Signals
// are forwarded through a self-pipe so the handler stays
// async-signal-safe.
//
// Usage:
//   qdc_serviced --socket PATH [--workers N] [--queue-capacity N]
//                [--cache-mb N]
// A missing, malformed or out-of-range flag value prints the usage line
// and exits 2: --workers takes N >= 0 (0 = all hardware threads),
// --queue-capacity N >= 1 and --cache-mb N >= 0.
#include <cerrno>
#include <chrono>
#include <climits>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <string>
#include <thread>

#include <unistd.h>

#include "service/server.hpp"

namespace {

int g_signal_pipe[2] = {-1, -1};

extern "C" void forward_signal(int) {
  const char byte = 's';
  // Best effort; a full pipe already has a pending wakeup.
  ssize_t ignored = ::write(g_signal_pipe[1], &byte, 1);
  (void)ignored;
}

std::uint64_t steady_now_us() {
  using Clock = std::chrono::steady_clock;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          Clock::now().time_since_epoch())
          .count());
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --socket PATH [--workers N] [--queue-capacity N] "
               "[--cache-mb N]\n",
               argv0);
  return 2;
}

/// Parses all of `text` as a decimal integer in [lo, hi].
bool parse_int(const char* text, long long lo, long long hi, long long& out) {
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || value < lo ||
      value > hi) {
    return false;
  }
  out = value;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  qdc::service::ServerOptions options;
  options.tick = steady_now_us;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    long long value = 0;
    if (arg == "--socket" && has_value) {
      options.socket_path = argv[++i];
    } else if (arg == "--workers" && has_value &&
               parse_int(argv[++i], 0, INT_MAX, value)) {
      options.workers = static_cast<int>(value);
    } else if (arg == "--queue-capacity" && has_value &&
               parse_int(argv[++i], 1, INT_MAX, value)) {
      options.queue_capacity = static_cast<int>(value);
    } else if (arg == "--cache-mb" && has_value &&
               parse_int(argv[++i], 0, static_cast<long long>(UINT64_MAX >> 20),
                         value)) {
      options.cache_bytes = static_cast<std::uint64_t>(value) << 20;
    } else {
      return usage(argv[0]);
    }
  }
  if (options.socket_path.empty()) return usage(argv[0]);

  if (::pipe(g_signal_pipe) != 0) {
    std::perror("qdc_serviced: pipe");
    return 1;
  }
  std::signal(SIGINT, forward_signal);
  std::signal(SIGTERM, forward_signal);
  std::signal(SIGPIPE, SIG_IGN);

  std::unique_ptr<qdc::service::ExperimentServer> owned;
  try {
    owned = std::make_unique<qdc::service::ExperimentServer>(options);
    owned->start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qdc_serviced: %s\n", e.what());
    return 1;
  }
  qdc::service::ExperimentServer& server = *owned;
  std::printf("qdc_serviced listening on %s (workers=%d queue=%d)\n",
              server.socket_path().c_str(), options.workers,
              options.queue_capacity);
  std::fflush(stdout);

  // A signal must unblock server.wait(); stop() is idempotent, so the
  // watcher and the main path may both call it.
  std::thread signal_watcher([&server] {
    char byte = 0;
    while (::read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
    }
    server.stop();
  });

  server.wait();
  server.stop();

  // Wake the watcher if shutdown came over the socket instead.
  forward_signal(0);
  signal_watcher.join();
  ::unlink(server.socket_path().c_str());
  std::printf("qdc_serviced: clean shutdown\n");
  return 0;
}
