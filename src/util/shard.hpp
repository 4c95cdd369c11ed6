// Deterministic shard geometry for data-parallel kernels and reductions.
//
// Shard boundaries are a pure function of the item count alone — never of
// the thread count, the pool, or which worker claims a shard — so a caller
// that (a) makes each shard write only shard-owned state (typically a slot
// indexed by the shard number) and (b) merges shard results serially in
// shard-index order gets bit-identical output for 1, 2 or N threads, and
// for a null pool. This is the same contract the CONGEST round engine
// applies to its node shards (congest/network.cpp); ShardPlan packages it
// for flat index ranges such as quantum amplitude blocks.
//
// Small inputs resolve to a single shard, which keeps their numerics
// exactly equal to a plain serial loop: floating-point reductions only
// change associativity once an input is large enough to split, and then
// they change it the same way for every thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "util/thread_pool.hpp"

namespace qdc::util {

/// Shard geometry over `items` flat indices. Value type; cheap to build.
struct ShardPlan {
  /// Below 2 * kMinItemsPerShard items everything stays in one shard (and
  /// therefore keeps serial numerics bit-for-bit); above it, one shard per
  /// kMinItemsPerShard items, capped at kMaxShards.
  static constexpr std::size_t kMinItemsPerShard = 4096;
  static constexpr int kMaxShards = 64;

  std::size_t items = 0;
  int shards = 1;

  static ShardPlan over(std::size_t items) {
    ShardPlan plan;
    plan.items = items;
    if (items >= 2 * kMinItemsPerShard) {
      const std::size_t wide = items / kMinItemsPerShard;
      plan.shards = wide < static_cast<std::size_t>(kMaxShards)
                        ? static_cast<int>(wide)
                        : kMaxShards;
    }
    return plan;
  }

  std::size_t begin(int shard) const {
    return items * static_cast<std::size_t>(shard) /
           static_cast<std::size_t>(shards);
  }
  std::size_t end(int shard) const {
    return items * (static_cast<std::size_t>(shard) + 1) /
           static_cast<std::size_t>(shards);
  }
};

/// Contiguous shard boundaries over items with *unequal* per-item work.
///
/// ShardPlan splits by item count, which is the wrong geometry when item
/// cost is skewed (a CONGEST node's round cost scales with its degree: a
/// clique endpoint in the paper's N(Gamma, L) family costs ~1000x a path
/// interior node). WeightedShardPlan places the boundaries on the
/// cumulative-work curve instead, so every shard carries roughly equal
/// work. Boundaries remain a pure function of the work vector — never of
/// the thread count — preserving the shard-order-merge determinism
/// contract above.
struct WeightedShardPlan {
  /// Target work per shard; inputs below 2x this stay in one shard.
  static constexpr std::int64_t kMinWorkPerShard = 256;
  /// Hard cap on shard count (bounds per-round dispatch overhead and the
  /// engine's per-shard scratch on 10^6+-item inputs).
  static constexpr int kMaxShards = 4096;

  /// Returns boundaries b with b.front() == 0, b.back() == work.size();
  /// shard s spans [b[s], b[s+1]) and is never empty. Each item's work is
  /// clamped below at 1.
  static std::vector<std::size_t> boundaries(
      const std::vector<std::int64_t>& work);
};

/// Executes body(shard, begin, end) for every shard of `plan`, over `pool`
/// when one is supplied (and both the pool and the plan are actually
/// parallel), inline on the calling thread otherwise. Each shard runs
/// exactly once either way, so results are identical for every pool.
inline void run_sharded(
    ThreadPool* pool, const ShardPlan& plan,
    const std::function<void(int, std::size_t, std::size_t)>& body) {
  const auto job = [&](int s) { body(s, plan.begin(s), plan.end(s)); };
  if (pool != nullptr && pool->thread_count() > 1 && plan.shards > 1) {
    pool->run(plan.shards, job);
  } else {
    for (int s = 0; s < plan.shards; ++s) job(s);
  }
}

}  // namespace qdc::util
