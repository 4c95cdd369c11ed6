#include "service/job_spec.hpp"

#include <string>

#include "core/lb_topology.hpp"
#include "service/wire.hpp"
#include "util/expect.hpp"
#include "util/rng.hpp"

namespace qdc::service {
namespace {

// Result-count caps: the server executes untrusted specs, so the spec
// validator bounds the instance size before any allocation happens. The
// limits are generous (a 2^21-node census is minutes, not hours) but
// keep a single bad request from exhausting the host.
constexpr std::uint32_t kMaxNodes = 1u << 21;
constexpr std::uint32_t kMaxEdges = 1u << 23;
constexpr std::uint32_t kMaxGamma = 4096;
constexpr std::uint32_t kMaxLength = 65536;
constexpr std::uint32_t kMaxBandwidthFields = 4096;
constexpr std::uint32_t kMaxRoundBudget = 10'000'000;

#define QDC_KIND_NAME(name, value, display) {(value), (display)},
constexpr WireName kTopologyNames[] = {QDC_TOPOLOGY_KINDS(QDC_KIND_NAME)};
constexpr WireName kAlgorithmNames[] = {QDC_ALGORITHM_KINDS(QDC_KIND_NAME)};
#undef QDC_KIND_NAME

/// The enum value `table` lists under display name `name`; false when
/// no row has that name.
template <std::size_t N, typename Kind>
bool parse_kind(const WireName (&table)[N], const std::string& name,
                Kind* out) {
  for (const WireName& row : table) {
    if (name == row.name) {
      *out = static_cast<Kind>(row.value);
      return true;
    }
  }
  return false;
}

std::string hex64(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string out = "0x";
  for (int shift = 60; shift >= 0; shift -= 4) {
    out.push_back(digits[(v >> shift) & 0xF]);
  }
  return out;
}

}  // namespace

std::vector<std::uint8_t> JobSpec::encode_canonical() const {
  WireWriter w;
  w.u8(kJobSpecVersion);
  w.u8(static_cast<std::uint8_t>(topology));
  w.u8(static_cast<std::uint8_t>(algorithm));
  w.u8(0);  // reserved
  w.u32(nodes);
  w.u32(arity);
  w.u32(edges);
  w.u32(gamma);
  w.u32(length);
  w.u32(bandwidth);
  w.u32(max_rounds);
  w.u64(topology_seed);
  w.u64(shared_seed);
  QDC_EXPECT(w.data().size() == kJobSpecEncodedSize,
             "canonical JobSpec encoding drifted from kJobSpecEncodedSize");
  return w.take();
}

JobSpec JobSpec::decode(WireReader& r) {
  std::uint8_t version = r.u8();
  QDC_CHECK(version == kJobSpecVersion,
            "JobSpec: unsupported spec version " + std::to_string(version));
  JobSpec spec;
  std::uint8_t topology = r.u8();
  QDC_CHECK(is_topology_kind(topology), "JobSpec: unknown topology kind");
  spec.topology = static_cast<TopologyKind>(topology);
  std::uint8_t algorithm = r.u8();
  QDC_CHECK(is_algorithm_kind(algorithm), "JobSpec: unknown algorithm");
  spec.algorithm = static_cast<AlgorithmKind>(algorithm);
  std::uint8_t reserved = r.u8();
  QDC_CHECK(reserved == 0, "JobSpec: reserved byte must be 0");
  spec.nodes = r.u32();
  spec.arity = r.u32();
  spec.edges = r.u32();
  spec.gamma = r.u32();
  spec.length = r.u32();
  spec.bandwidth = r.u32();
  spec.max_rounds = r.u32();
  spec.topology_seed = r.u64();
  spec.shared_seed = r.u64();
  return spec;
}

std::string JobSpec::validate() const {
  // Canonicalization rule: a parameter a topology family does not use
  // must be zero. Without this, two byte-distinct encodings could name
  // the same experiment and the content-addressed cache would fracture.
  const bool uses_nodes = topology != TopologyKind::LbNetwork;
  const bool uses_arity = topology == TopologyKind::Tree;
  const bool uses_edges = topology == TopologyKind::Gnm;
  const bool uses_lb = topology == TopologyKind::LbNetwork;
  if (!uses_nodes && nodes != 0) return "nodes must be 0 for lb_network";
  if (!uses_arity && arity != 0) return "arity is only valid for tree";
  if (!uses_edges && edges != 0) return "edges is only valid for gnm";
  if (topology != TopologyKind::Gnm && topology_seed != 0) {
    return "topology_seed is only valid for gnm";
  }
  if (!uses_lb && (gamma != 0 || length != 0)) {
    return "gamma/length are only valid for lb_network";
  }

  switch (topology) {
    case TopologyKind::Path:
      if (nodes < 2) return "path needs nodes >= 2";
      break;
    case TopologyKind::Cycle:
      if (nodes < 3) return "cycle needs nodes >= 3";
      break;
    case TopologyKind::Tree:
      if (nodes < 2) return "tree needs nodes >= 2";
      if (arity < 1) return "tree needs arity >= 1";
      break;
    case TopologyKind::Gnm:
      if (nodes < 2) return "gnm needs nodes >= 2";
      if (edges < nodes - 1) return "gnm needs edges >= nodes - 1";
      if (edges > kMaxEdges) return "gnm edge count exceeds the server cap";
      break;
    case TopologyKind::LbNetwork: {
      if (gamma < 1) return "lb_network needs gamma >= 1";
      if (gamma > kMaxGamma) return "lb_network gamma exceeds the server cap";
      if (length > kMaxLength) {
        return "lb_network length exceeds the server cap";
      }
      // Canonical form: the view rounds L up to 2^k + 1, so any other
      // length would name an already-named network under a second key.
      if (length < 3 || ((length - 1) & (length - 2)) != 0) {
        return "lb_network needs length = 2^k + 1 with k >= 1";
      }
      const core::LbTopologyView view(static_cast<int>(gamma),
                                      static_cast<int>(length));
      if (static_cast<std::uint32_t>(view.node_count()) > kMaxNodes) {
        return "lb_network node count exceeds the server cap";
      }
      if (static_cast<std::uint32_t>(view.edge_count()) > kMaxEdges) {
        return "lb_network edge count exceeds the server cap";
      }
      break;
    }
  }
  if (uses_nodes && nodes > kMaxNodes) {
    return "node count exceeds the server cap";
  }

  if (bandwidth < 1) return "bandwidth must be >= 1";
  if (bandwidth > kMaxBandwidthFields) {
    return "bandwidth exceeds the server cap";
  }
  if (algorithm == AlgorithmKind::Mst && bandwidth < 6) {
    return "mst needs bandwidth >= 6";
  }
  if (max_rounds > kMaxRoundBudget) {
    return "max_rounds exceeds the server cap";
  }
  return "";
}

std::string JobSpec::summary() const {
  std::string out = algorithm_kind_name(algorithm);
  out += " ";
  out += topology_kind_name(topology);
  if (topology == TopologyKind::LbNetwork) {
    out += " gamma=" + std::to_string(gamma) +
           " L=" + std::to_string(length);
  } else {
    out += " n=" + std::to_string(nodes);
  }
  if (topology == TopologyKind::Tree) {
    out += " arity=" + std::to_string(arity);
  }
  if (topology == TopologyKind::Gnm) {
    out += " m=" + std::to_string(edges) + " tseed=" + hex64(topology_seed);
  }
  out += " B=" + std::to_string(bandwidth);
  out += " seed=" + hex64(shared_seed);
  return out;
}

std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t size) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= data[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::uint64_t cache_key(const JobSpec& spec) {
  const std::vector<std::uint8_t> canonical = spec.encode_canonical();
  return splitmix64(fnv1a64(canonical.data(), canonical.size()));
}

bool is_topology_kind(std::uint8_t value) {
  return wire_name(kTopologyNames, value, nullptr) != nullptr;
}

bool is_algorithm_kind(std::uint8_t value) {
  return wire_name(kAlgorithmNames, value, nullptr) != nullptr;
}

const char* topology_kind_name(TopologyKind kind) {
  return wire_name(kTopologyNames, static_cast<unsigned>(kind), "unknown");
}

const char* algorithm_kind_name(AlgorithmKind kind) {
  return wire_name(kAlgorithmNames, static_cast<unsigned>(kind), "unknown");
}

bool parse_topology_kind(const std::string& name, TopologyKind* out) {
  return parse_kind(kTopologyNames, name, out);
}

bool parse_algorithm_kind(const std::string& name, AlgorithmKind* out) {
  return parse_kind(kAlgorithmNames, name, out);
}

}  // namespace qdc::service
