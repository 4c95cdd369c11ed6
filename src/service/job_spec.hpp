// Canonical job specification: what a client asks the service to run.
//
// A JobSpec names a topology family (with its parameters), an algorithm,
// the CONGEST bandwidth, the shared-randomness seed, and a round budget.
// Because the whole engine is deterministic — bit-identical at any thread
// count, frontier mode result-invariant — the spec alone determines the
// result bytes, which is what makes the content-addressed result cache
// sound: two requests with equal canonical encodings MUST produce equal
// results, forever.
//
// The canonical encoding (encode_canonical) is therefore deliberately
// narrow: it contains every result-determining field in a fixed order
// with fixed widths, and nothing else. Execution details that cannot
// change the result (worker threads, wait-vs-poll, timeouts) never enter
// the encoding, so a 1-thread and an 8-thread submission of the same
// experiment share one cache entry. docs/SERVICE.md specifies the layout
// byte by byte and walks a worked cache-key example.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace qdc::service {

class WireReader;

/// Topology families the executor can instantiate, as an X-macro list
/// (see wire.hpp): X(Name, wire value, display name). Stable wire values;
/// append only.
#define QDC_TOPOLOGY_KINDS(X)                                                 \
  X(Path, 1, "path")            /* congest::PathView(nodes) */                \
  X(Cycle, 2, "cycle")          /* congest::CycleView(nodes) */               \
  X(Tree, 3, "tree")            /* congest::BalancedTreeView(nodes, arity) */ \
  X(Gnm, 4, "gnm")              /* congest::GnmView(n, m, topology_seed) */   \
  X(LbNetwork, 5, "lb_network") /* core::LbTopologyView(gamma, length) */

/// Algorithms the executor can run: X(Name, wire value, display name).
/// Stable wire values; append only.
#define QDC_ALGORITHM_KINDS(X)                                               \
  X(Census, 1, "census") /* dist::run_census: election + BFS census */       \
  X(Leader, 2, "leader") /* dist::elect_leader: flood-max election */        \
  X(Mst, 3, "mst")       /* dist::build_bfs_tree + run_mst (unit weights) */

#define QDC_KIND_ENUMERATOR(name, value, display) name = (value),
enum class TopologyKind : std::uint8_t {
  QDC_TOPOLOGY_KINDS(QDC_KIND_ENUMERATOR)
};
enum class AlgorithmKind : std::uint8_t {
  QDC_ALGORITHM_KINDS(QDC_KIND_ENUMERATOR)
};
#undef QDC_KIND_ENUMERATOR

/// Version byte leading every canonical spec encoding. Bump only when a
/// field is added/retired; old encodings must never be reinterpreted.
inline constexpr std::uint8_t kJobSpecVersion = 1;

/// Fixed size in bytes of one canonically encoded spec.
inline constexpr std::size_t kJobSpecEncodedSize = 48;

struct JobSpec {
  TopologyKind topology = TopologyKind::Path;
  AlgorithmKind algorithm = AlgorithmKind::Census;
  std::uint32_t nodes = 0;          ///< Path/Cycle/Tree/Gnm node count
  std::uint32_t arity = 0;          ///< Tree only; 0 elsewhere
  std::uint32_t edges = 0;          ///< Gnm only; 0 elsewhere
  std::uint32_t gamma = 0;          ///< LbNetwork only; 0 elsewhere
  std::uint32_t length = 0;         ///< LbNetwork only; 0 elsewhere
  std::uint32_t bandwidth = 8;      ///< CONGEST(B) fields per edge per round
  std::uint32_t max_rounds = 0;     ///< 0 = the algorithm's own default
  std::uint64_t topology_seed = 0;  ///< Gnm only; 0 elsewhere
  std::uint64_t shared_seed = 0x9e3779b97f4a7c15ULL;

  bool operator==(const JobSpec&) const = default;

  /// The canonical kJobSpecEncodedSize-byte encoding (docs/SERVICE.md).
  std::vector<std::uint8_t> encode_canonical() const;

  /// Decodes a canonical encoding; throws ModelError on a malformed or
  /// wrong-version block.
  static JobSpec decode(WireReader& r);

  /// Empty string when the spec is executable; otherwise the first
  /// violated rule, suitable for a BadJobSpec error message.
  std::string validate() const;

  /// Short display line ("mst path n=1024 B=8 seed=0x...") for logs.
  std::string summary() const;
};

/// FNV-1a 64-bit over a byte range — the first half of the cache key.
/// Offset basis 0xcbf29ce484222325, prime 0x100000001b3.
std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t size);

/// Content-address of a spec: splitmix64(fnv1a64(encode_canonical())).
/// The splitmix64 finalizer decorrelates the low bits FNV leaves weak so
/// the key is usable directly as a hash-table index.
std::uint64_t cache_key(const JobSpec& spec);

/// Whether a wire byte names a listed topology kind / algorithm.
bool is_topology_kind(std::uint8_t value);
bool is_algorithm_kind(std::uint8_t value);

/// Stable display name of a topology kind ("path", "lb_network", ...) or
/// algorithm ("census", "mst", ...); "unknown" for an unlisted value.
const char* topology_kind_name(TopologyKind kind);
const char* algorithm_kind_name(AlgorithmKind kind);

/// Parses a display name back to the enum; returns false on no match.
bool parse_topology_kind(const std::string& name, TopologyKind* out);
bool parse_algorithm_kind(const std::string& name, AlgorithmKind* out);

}  // namespace qdc::service
