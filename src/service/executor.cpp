#include "service/executor.hpp"

#include <algorithm>
#include <bit>
#include <memory>
#include <utility>

#include "congest/network.hpp"
#include "congest/topology.hpp"
#include "core/lb_topology.hpp"
#include "dist/leader.hpp"
#include "dist/mst.hpp"
#include "dist/tree.hpp"
#include "service/wire.hpp"
#include "util/expect.hpp"

namespace qdc::service {
namespace {

std::shared_ptr<const congest::TopologyView> build_view(const JobSpec& spec) {
  const int n = static_cast<int>(spec.nodes);
  switch (spec.topology) {
    case TopologyKind::Path:
      return std::make_shared<congest::PathView>(n);
    case TopologyKind::Cycle:
      return std::make_shared<congest::CycleView>(n);
    case TopologyKind::Tree:
      return std::make_shared<congest::BalancedTreeView>(
          n, static_cast<int>(spec.arity));
    case TopologyKind::Gnm:
      return std::make_shared<congest::GnmView>(
          n, static_cast<int>(spec.edges), spec.topology_seed);
    case TopologyKind::LbNetwork:
      return std::make_shared<core::LbTopologyView>(
          static_cast<int>(spec.gamma), static_cast<int>(spec.length));
  }
  QDC_EXPECT(false, "execute_job: unknown topology kind");
  return nullptr;
}

/// FNV-1a over a vector of i64, little-endian byte order — the detail
/// fold clients can compare without shipping the whole vector.
std::uint64_t fold_details(const std::vector<std::int64_t>& details) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (std::int64_t value : details) {
    auto v = static_cast<std::uint64_t>(value);
    for (int shift = 0; shift < 64; shift += 8) {
      hash ^= (v >> shift) & 0xFF;
      hash *= 0x100000001b3ULL;
    }
  }
  return hash;
}

struct Outcome {
  std::uint32_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t fields = 0;
  std::int64_t value0 = 0;
  std::int64_t value1 = 0;
  std::int64_t value2 = 0;
  std::vector<std::int64_t> details;
};

Outcome run_algorithm(const JobSpec& spec, congest::Network& net) {
  Outcome out;
  switch (spec.algorithm) {
    case AlgorithmKind::Census: {
      // run_census reports the aggregate round count only; messages and
      // fields stay 0 by specification (docs/SERVICE.md).
      dist::CensusResult census = dist::run_census(net);
      out.rounds = static_cast<std::uint32_t>(census.rounds);
      out.value0 = census.leader;
      out.value1 = census.node_count;
      out.value2 = census.edge_count;
      return out;
    }
    case AlgorithmKind::Leader: {
      dist::LeaderResult leader = dist::elect_leader(net);
      out.rounds = static_cast<std::uint32_t>(leader.stats.rounds);
      out.messages = static_cast<std::uint64_t>(leader.stats.messages);
      out.fields = static_cast<std::uint64_t>(leader.stats.fields);
      out.value0 = leader.leader;
      return out;
    }
    case AlgorithmKind::Mst: {
      dist::BfsTreeResult tree = dist::build_bfs_tree(net, 0);
      dist::MstOptions options;
      options.max_rounds = static_cast<int>(spec.max_rounds);
      dist::MstRunResult mst = dist::run_mst(net, tree, options);
      out.rounds = static_cast<std::uint32_t>(tree.stats.rounds +
                                              mst.stats.rounds);
      out.messages = static_cast<std::uint64_t>(tree.stats.messages +
                                                mst.stats.messages);
      out.fields =
          static_cast<std::uint64_t>(tree.stats.fields + mst.stats.fields);
      out.value0 = static_cast<std::int64_t>(mst.tree_edges.size());
      std::vector<std::int64_t> labels = mst.component;
      std::sort(labels.begin(), labels.end());
      labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
      out.value1 = static_cast<std::int64_t>(labels.size());
      out.value2 = std::bit_cast<std::int64_t>(mst.weight);
      out.details = std::move(mst.component);
      return out;
    }
  }
  QDC_EXPECT(false, "execute_job: unknown algorithm kind");
  return out;
}

}  // namespace

std::vector<std::uint8_t> execute_job(const JobSpec& spec) {
  QDC_CHECK(spec.validate().empty(),
            "execute_job: invalid spec: " + spec.validate());
  const std::shared_ptr<const congest::TopologyView> view = build_view(spec);
  congest::NetworkConfig config;
  config.bandwidth = static_cast<int>(spec.bandwidth);
  config.shared_seed = spec.shared_seed;
  congest::Network net(view, config);

  const Outcome out = run_algorithm(spec, net);

  WireWriter w;
  w.u8(kResultVersion);
  w.u8(static_cast<std::uint8_t>(spec.algorithm));
  w.u16(0);  // reserved
  w.u32(static_cast<std::uint32_t>(view->node_count()));
  w.u32(static_cast<std::uint32_t>(view->edge_count()));
  w.u32(out.rounds);
  w.u64(out.messages);
  w.u64(out.fields);
  w.i64(out.value0);
  w.i64(out.value1);
  w.i64(out.value2);
  w.u64(fold_details(out.details));
  if (out.details.size() <= kInlineDetailLimit) {
    w.u32(static_cast<std::uint32_t>(out.details.size()));
    for (std::int64_t d : out.details) w.i64(d);
  } else {
    w.u32(0);
  }
  return w.take();
}

ResultSummary decode_result(const std::vector<std::uint8_t>& payload) {
  WireReader r(payload);
  std::uint8_t version = r.u8();
  QDC_CHECK(version == kResultVersion,
            "result payload: unsupported version");
  ResultSummary s;
  std::uint8_t algorithm = r.u8();
  QDC_CHECK(is_algorithm_kind(algorithm), "result payload: unknown algorithm");
  s.algorithm = static_cast<AlgorithmKind>(algorithm);
  r.u16();  // reserved
  s.nodes = r.u32();
  s.edges = r.u32();
  s.rounds = r.u32();
  s.messages = r.u64();
  s.fields = r.u64();
  s.value0 = r.i64();
  s.value1 = r.i64();
  s.value2 = r.i64();
  s.detail_fold = r.u64();
  std::uint32_t count = r.u32();
  s.details.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) s.details.push_back(r.i64());
  QDC_CHECK(r.exhausted(), "result payload: trailing bytes");
  return s;
}

}  // namespace qdc::service
