// qdc_client — command-line client for the experiment service.
//
// Speaks the docs/SERVICE.md wire protocol through service::ServiceClient
// and prints machine-greppable key=value lines (tools/service_smoke.py,
// the service.smoke ctest, parses them). `result_hex` is the canonical
// result payload verbatim, so two invocations can be compared for the
// byte-identity guarantee without a separate tool.
//
// Usage:
//   qdc_client --socket PATH submit --topology KIND --algo KIND --nodes N
//              [--arity N] [--edges N] [--gamma N] [--length N]
//              [--bandwidth N] [--max-rounds N] [--topology-seed N]
//              [--shared-seed N] [--no-wait] [--timeout-us N]
//   qdc_client --socket PATH poll --job ID
//   qdc_client --socket PATH cancel --job ID
//   qdc_client --socket PATH admin
//   qdc_client --socket PATH shutdown [--drain]
//
// Numeric values are read with strtoull base 0 (decimal, 0x hex, 0 octal)
// and must be whole, unsigned and fit the field (u32 spec sizes, u64
// seeds, ids and timeouts); anything else prints the usage line and exits
// 2 before connecting.
//
// Exit codes: 0 success, 1 server answered an error, 2 usage/connect.
#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <string>
#include <vector>

#include "service/client.hpp"
#include "service/executor.hpp"
#include "service/job_spec.hpp"

namespace {

using qdc::service::ErrorCode;

int usage() {
  std::fprintf(stderr,
               "usage: qdc_client --socket PATH "
               "(submit|poll|cancel|admin|shutdown) [options]\n"
               "  submit: --topology path|cycle|tree|gnm|lb_network --algo"
               " census|leader|mst --nodes N\n"
               "          [--arity N] [--edges N] [--gamma N] [--length N] "
               "[--bandwidth N]\n"
               "          [--max-rounds N] [--topology-seed N] "
               "[--shared-seed N] [--no-wait] [--timeout-us N]\n"
               "  poll|cancel: --job ID\n"
               "  shutdown: [--drain]\n");
  return 2;
}

/// Parses all of `text` as an unsigned integer that fits `Field`: it must
/// start with a digit (no sign, no blank), end where strtoull stops, and
/// not overflow.
template <typename Field>
bool parse_unsigned(const char* text, Field& out) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 0);
  if (std::isdigit(static_cast<unsigned char>(text[0])) == 0 ||
      *end != '\0' || errno == ERANGE ||
      value > std::numeric_limits<Field>::max()) {
    return false;
  }
  out = static_cast<Field>(value);
  return true;
}

void print_status(const qdc::service::JobStatus& status) {
  std::printf("job_id=%llu\n",
              static_cast<unsigned long long>(status.job_id));
  std::printf("state=%s\n", qdc::service::job_state_name(status.state));
  std::printf("cached=%d\n", status.cached ? 1 : 0);
  std::printf("wall_us=%llu\n",
              static_cast<unsigned long long>(status.wall_us));
  std::printf("compute_us=%llu\n",
              static_cast<unsigned long long>(status.compute_us));
  if (status.state == qdc::service::JobState::Failed) {
    std::printf("error=%s\n", qdc::service::error_code_name(status.error));
    std::printf("error_message=%s\n", status.error_message.c_str());
  }
  if (status.state != qdc::service::JobState::Done) return;

  std::string hex;
  hex.reserve(status.result.size() * 2);
  for (std::uint8_t b : status.result) {
    static const char kDigits[] = "0123456789abcdef";
    hex.push_back(kDigits[b >> 4]);
    hex.push_back(kDigits[b & 0xF]);
  }
  std::printf("result_hex=%s\n", hex.c_str());
  try {
    const qdc::service::ResultSummary s =
        qdc::service::decode_result(status.result);
    std::printf("rounds=%u\nmessages=%llu\nfields=%llu\n", s.rounds,
                static_cast<unsigned long long>(s.messages),
                static_cast<unsigned long long>(s.fields));
    std::printf("value0=%lld\nvalue1=%lld\nvalue2=%lld\n",
                static_cast<long long>(s.value0),
                static_cast<long long>(s.value1),
                static_cast<long long>(s.value2));
    std::printf("detail_fold=%016llx\n",
                static_cast<unsigned long long>(s.detail_fold));
  } catch (const std::exception& e) {
    std::printf("result_decode_error=%s\n", e.what());
  }
}

int print_error(ErrorCode code, const std::string& message) {
  std::printf("error=%s\nerror_message=%s\n",
              qdc::service::error_code_name(code), message.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  std::string command;
  qdc::service::JobSpec spec;
  qdc::service::SubmitOptions submit_options;
  std::uint64_t job_id = 0;
  bool drain = false;
  bool topology_set = false;
  bool algo_set = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    bool parsed = true;
    if (arg == "--socket" && has_value) {
      socket_path = argv[++i];
    } else if (arg == "submit" || arg == "poll" || arg == "cancel" ||
               arg == "admin" || arg == "shutdown") {
      command = arg;
    } else if (arg == "--topology" && has_value) {
      topology_set =
          qdc::service::parse_topology_kind(argv[++i], &spec.topology);
      if (!topology_set) return usage();
    } else if (arg == "--algo" && has_value) {
      algo_set =
          qdc::service::parse_algorithm_kind(argv[++i], &spec.algorithm);
      if (!algo_set) return usage();
    } else if (arg == "--nodes" && has_value) {
      parsed = parse_unsigned(argv[++i], spec.nodes);
    } else if (arg == "--arity" && has_value) {
      parsed = parse_unsigned(argv[++i], spec.arity);
    } else if (arg == "--edges" && has_value) {
      parsed = parse_unsigned(argv[++i], spec.edges);
    } else if (arg == "--gamma" && has_value) {
      parsed = parse_unsigned(argv[++i], spec.gamma);
    } else if (arg == "--length" && has_value) {
      parsed = parse_unsigned(argv[++i], spec.length);
    } else if (arg == "--bandwidth" && has_value) {
      parsed = parse_unsigned(argv[++i], spec.bandwidth);
    } else if (arg == "--max-rounds" && has_value) {
      parsed = parse_unsigned(argv[++i], spec.max_rounds);
    } else if (arg == "--topology-seed" && has_value) {
      parsed = parse_unsigned(argv[++i], spec.topology_seed);
    } else if (arg == "--shared-seed" && has_value) {
      parsed = parse_unsigned(argv[++i], spec.shared_seed);
    } else if (arg == "--no-wait") {
      submit_options.wait = false;
    } else if (arg == "--timeout-us" && has_value) {
      parsed = parse_unsigned(argv[++i], submit_options.timeout_us);
    } else if (arg == "--job" && has_value) {
      parsed = parse_unsigned(argv[++i], job_id);
    } else if (arg == "--drain") {
      drain = true;
    } else {
      return usage();
    }
    if (!parsed) return usage();
  }
  if (socket_path.empty() || command.empty()) return usage();
  if (command == "submit" && (!topology_set || !algo_set)) return usage();

  try {
    qdc::service::ServiceClient client(socket_path);

    if (command == "submit") {
      const qdc::service::SubmitResult r = client.submit(spec, submit_options);
      if (r.error != ErrorCode::None) {
        return print_error(r.error, r.error_message);
      }
      std::printf("cache_key=%016llx\n",
                  static_cast<unsigned long long>(
                      qdc::service::cache_key(spec)));
      print_status(r.status);
      return 0;
    }
    if (command == "poll") {
      const qdc::service::PollResult r = client.poll(job_id);
      if (r.error != ErrorCode::None) {
        return print_error(r.error, r.error_message);
      }
      print_status(r.status);
      return 0;
    }
    if (command == "cancel") {
      const qdc::service::CancelResult r = client.cancel(job_id);
      if (r.error != ErrorCode::None) {
        return print_error(r.error, r.error_message);
      }
      std::printf("cancelled=1\n");
      return 0;
    }
    if (command == "admin") {
      const qdc::service::AdminResult r = client.admin();
      if (r.error != ErrorCode::None) {
        return print_error(r.error, r.error_message);
      }
      for (const qdc::service::AdminCounter& c :
           qdc::service::kAdminCounters) {
        std::printf("%s=%llu\n", c.name,
                    static_cast<unsigned long long>(r.stats.*c.member));
      }
      return 0;
    }
    if (command == "shutdown") {
      const qdc::service::ShutdownResult r = client.shutdown_server(drain);
      if (r.error != ErrorCode::None) {
        return print_error(r.error, r.error_message);
      }
      std::printf("shutdown=1\ndrain=%d\n", r.drain ? 1 : 0);
      return 0;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qdc_client: %s\n", e.what());
    return 2;
  }
  return usage();
}
