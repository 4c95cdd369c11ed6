// FIXTURE: both determinism rules and parallel/shared-write-no-slot fire.
#include <chrono>
#include <cstdint>
#include <unordered_map>

namespace qdc::congest {

struct Ctx {
  void send(int port, std::int64_t value);
};

// Hash iteration order escapes through sends: nondeterministic.
void broadcast_table(Ctx& ctx,
                     const std::unordered_map<int, std::int64_t>& table) {
  for (const auto& [port, value] : table) {
    ctx.send(port, value);
  }
}

// Cross-shard FP accumulation inside the parallel region: a shared write.
template <typename Pool>
double tally(Pool& pool, const double* shard_sums, int shards) {
  double total = 0.0;
  pool.dispatch([&](int shard) { total += shard_sums[shard]; });
  return total;
}

// Wall-clock call: runs stop being a pure function of (input, seed).
std::int64_t stamp() {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}

}  // namespace qdc::congest
