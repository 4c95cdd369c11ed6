#include "core/lb_topology.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>

#include "util/expect.hpp"

namespace qdc::core {

namespace {

/// Smallest 2^k + 1 that is >= length, with k >= 1. The caller bounds
/// length by 2^30 + 1, so every shift stays inside an int.
int round_up_length(int length) {
  int k = 1;
  while ((1 << k) + 1 < length) ++k;
  return (1 << k) + 1;
}

/// Level 1..k whose section holds `x`, given each level's first id in
/// `base` (increasing over levels 1..k).
int section_level(const std::vector<int>& base, int k, int x) {
  int lvl = 1;
  while (lvl < k && x >= base[static_cast<std::size_t>(lvl) + 1]) ++lvl;
  return lvl;
}

}  // namespace

LbTopologyView::LbTopologyView(int gamma, int length) : gamma_(gamma) {
  QDC_EXPECT(gamma >= 1, "LbTopologyView: need at least one path");
  QDC_EXPECT(length >= 3 && length <= (1 << 30) + 1,
             "LbTopologyView: length must be in [3, 2^30 + 1]");
  length_ = round_up_length(length);
  highways_ = std::countr_zero(static_cast<unsigned>(length_ - 1));

  const int k = highways_;
  count_.assign(static_cast<std::size_t>(k) + 1, 0);
  node_base_.assign(static_cast<std::size_t>(k) + 1, 0);
  intra_base_.assign(static_cast<std::size_t>(k) + 1, 0);
  col_base_.assign(static_cast<std::size_t>(k) + 2, 0);

  std::int64_t nodes = static_cast<std::int64_t>(gamma_) * length_;
  for (int lvl = 1; lvl <= k; ++lvl) {
    count_[static_cast<std::size_t>(lvl)] = (length_ - 1) / (1 << lvl) + 1;
    node_base_[static_cast<std::size_t>(lvl)] = static_cast<int>(nodes);
    nodes += count_[static_cast<std::size_t>(lvl)];
  }

  std::int64_t edges = static_cast<std::int64_t>(gamma_) * (length_ - 1);
  for (int lvl = 1; lvl <= k; ++lvl) {
    intra_base_[static_cast<std::size_t>(lvl)] = static_cast<int>(edges);
    edges += count_[static_cast<std::size_t>(lvl)] - 1;
  }
  for (int lvl = 1; lvl <= k; ++lvl) {
    col_base_[static_cast<std::size_t>(lvl)] = static_cast<int>(edges);
    edges += lvl == 1 ? static_cast<std::int64_t>(count_[1]) * gamma_
                      : count_[static_cast<std::size_t>(lvl)];
  }
  col_base_[static_cast<std::size_t>(k) + 1] = static_cast<int>(edges);
  const std::int64_t lines = std::int64_t{gamma_} + k;
  const std::int64_t clique_edges = lines * (lines - 1) / 2;
  clique_base_[0] = static_cast<int>(edges);
  clique_base_[1] = static_cast<int>(edges + clique_edges);
  edges += 2 * clique_edges;

  QDC_EXPECT(nodes <= std::numeric_limits<int>::max() &&
                 edges <= std::numeric_limits<int>::max() / 2,
             "LbTopologyView: N(Gamma, L) too large for int node/edge ids");
  nodes_ = static_cast<int>(nodes);
  edges_ = static_cast<int>(edges);
}

graph::NodeId LbTopologyView::path_node(int i, int j) const {
  QDC_EXPECT(i >= 0 && i < gamma_ && j >= 1 && j <= length_,
             "LbTopologyView::path_node: out of range");
  return i * length_ + j - 1;
}

graph::NodeId LbTopologyView::highway_node(int level, int j) const {
  QDC_EXPECT(level >= 1 && level <= highways_ && j >= 1 && j <= length_ &&
                 (j - 1) % (1 << level) == 0,
             "LbTopologyView::highway_node: bad level or position");
  return node_base_[static_cast<std::size_t>(level)] + ((j - 1) >> level);
}

bool LbTopologyView::is_highway(graph::NodeId v) const {
  expect_valid_node(v);
  return v >= gamma_ * length_;
}

int LbTopologyView::position(graph::NodeId v) const {
  if (!is_highway(v)) return v % length_ + 1;
  const int lvl = section_level(node_base_, highways_, v);
  return 1 + ((v - node_base_[static_cast<std::size_t>(lvl)]) << lvl);
}

graph::NodeId LbTopologyView::line_start(int l) const {
  QDC_EXPECT(l >= 0 && l < line_count(), "LbTopologyView: bad line");
  return clique_member(false, l);
}

graph::NodeId LbTopologyView::line_end(int l) const {
  QDC_EXPECT(l >= 0 && l < line_count(), "LbTopologyView: bad line");
  return clique_member(true, l);
}

Owner LbTopologyView::owner(graph::NodeId v, int t) const {
  QDC_EXPECT(t >= 0 && t <= max_simulated_rounds() + 1,
             "LbTopologyView::owner: time outside the simulation schedule");
  const int j = position(v);
  if (j <= t + 1) return Owner::kCarol;
  if (j >= length_ - t) return Owner::kDavid;
  return Owner::kServer;
}

graph::EdgeSubset LbTopologyView::embed_matchings(
    const std::vector<graph::Edge>& carol_matching,
    const std::vector<graph::Edge>& david_matching) const {
  graph::EdgeSubset m(edges_);
  // Horizontal edges (path and intra-highway) are exactly the ids below
  // the first column link; column links and cliques stay out (Figure 10).
  for (graph::EdgeId e = 0; e < col_base_[1]; ++e) m.insert(e);
  // Matching edge (a, b) is the clique edge between the two lines' start
  // (E_C) or end (E_D) nodes.
  const int lines = line_count();
  for (const bool right : {false, true}) {
    std::vector<int> covered(static_cast<std::size_t>(lines), 0);
    for (const graph::Edge& e : right ? david_matching : carol_matching) {
      QDC_CHECK(e.u >= 0 && e.u < lines && e.v >= 0 && e.v < lines &&
                    e.u != e.v,
                "embed_matchings: matching edge out of range");
      ++covered[static_cast<std::size_t>(e.u)];
      ++covered[static_cast<std::size_t>(e.v)];
      m.insert(clique_base_[right ? 1 : 0] +
               clique_rank(std::min(e.u, e.v), std::max(e.u, e.v)));
    }
    QDC_CHECK(std::all_of(covered.begin(), covered.end(),
                          [](int c) { return c == 1; }),
              "embed_matchings: not a perfect matching");
  }
  return m;
}

int LbTopologyView::degree(graph::NodeId u) const {
  expect_valid_node(u);
  const int endpoints = line_count() - 1;  // clique partners per member
  if (u < gamma_ * length_) {
    const int j = u % length_ + 1;
    return (j > 1 ? 1 : 0) + (j < length_ ? 1 : 0) +
           ((j - 1) % 2 == 0 ? 1 : 0) +
           (j == 1 || j == length_ ? endpoints : 0);
  }
  const int lvl = section_level(node_base_, highways_, u);
  const int m = u - node_base_[static_cast<std::size_t>(lvl)];
  const int c = count_[static_cast<std::size_t>(lvl)];
  return (m > 0 ? 1 : 0) + (m < c - 1 ? 1 : 0) + (lvl == 1 ? gamma_ : 1) +
         (lvl < highways_ && m % 2 == 0 ? 1 : 0) +
         (m == 0 || m == c - 1 ? endpoints : 0);
}

graph::NodeId LbTopologyView::clique_member(bool right, int l) const {
  if (l < gamma_) {
    return right ? l * length_ + length_ - 1 : l * length_;
  }
  const int lvl = l - gamma_ + 1;
  return node_base_[static_cast<std::size_t>(lvl)] +
         (right ? count_[static_cast<std::size_t>(lvl)] - 1 : 0);
}

int LbTopologyView::clique_rank(int a, int b) const {
  const int p = line_count();
  return a * (p - 1) - a * (a - 1) / 2 + (b - a - 1);
}

void LbTopologyView::port_entry(graph::NodeId u, int port,
                                graph::EdgeId* edge,
                                graph::NodeId* peer) const {
  expect_valid_port(u, port);
  // Clique ports of member `a`: partners x < a first (pairs (x, a)), then
  // partners b > a — lexicographic pair order, hence increasing edge id.
  const auto clique_port = [&](bool right, int a, int t) {
    if (t < a) {
      *edge = clique_base_[right ? 1 : 0] + clique_rank(t, a);
      *peer = clique_member(right, t);
    } else {
      *edge = clique_base_[right ? 1 : 0] + clique_rank(a, t + 1);
      *peer = clique_member(right, t + 1);
    }
  };
  int p = port;
  if (u < gamma_ * length_) {
    const int i = u / length_;
    const int j = u % length_ + 1;
    if (j > 1) {
      if (p == 0) {
        *edge = i * (length_ - 1) + (j - 2);
        *peer = u - 1;
        return;
      }
      --p;
    }
    if (j < length_) {
      if (p == 0) {
        *edge = i * (length_ - 1) + (j - 1);
        *peer = u + 1;
        return;
      }
      --p;
    }
    if ((j - 1) % 2 == 0) {  // a level-1 highway node sits in this column
      if (p == 0) {
        const int m = (j - 1) / 2;
        *edge = col_base_[1] + m * gamma_ + i;
        *peer = node_base_[1] + m;
        return;
      }
      --p;
    }
    clique_port(j == length_, i, p);
    return;
  }
  const int lvl = section_level(node_base_, highways_, u);
  const int m = u - node_base_[static_cast<std::size_t>(lvl)];
  const int c = count_[static_cast<std::size_t>(lvl)];
  if (m > 0) {
    if (p == 0) {
      *edge = intra_base_[static_cast<std::size_t>(lvl)] + m - 1;
      *peer = u - 1;
      return;
    }
    --p;
  }
  if (m < c - 1) {
    if (p == 0) {
      *edge = intra_base_[static_cast<std::size_t>(lvl)] + m;
      *peer = u + 1;
      return;
    }
    --p;
  }
  if (lvl == 1) {  // down links to every path in this column
    if (p < gamma_) {
      *edge = col_base_[1] + m * gamma_ + p;
      *peer = p * length_ + 2 * m;
      return;
    }
    p -= gamma_;
  } else {  // one down link to level lvl-1 in this column
    if (p == 0) {
      *edge = col_base_[static_cast<std::size_t>(lvl)] + m;
      *peer = node_base_[static_cast<std::size_t>(lvl) - 1] + 2 * m;
      return;
    }
    --p;
  }
  if (lvl < highways_ && m % 2 == 0) {  // up link from level lvl+1
    if (p == 0) {
      *edge = col_base_[static_cast<std::size_t>(lvl) + 1] + m / 2;
      *peer = node_base_[static_cast<std::size_t>(lvl) + 1] + m / 2;
      return;
    }
    --p;
  }
  clique_port(m == c - 1, gamma_ + lvl - 1, p);
}

graph::NodeId LbTopologyView::neighbor(graph::NodeId u, int port) const {
  graph::EdgeId e = 0;
  graph::NodeId peer = 0;
  port_entry(u, port, &e, &peer);
  return peer;
}

graph::EdgeId LbTopologyView::edge_at(graph::NodeId u, int port) const {
  graph::EdgeId e = 0;
  graph::NodeId peer = 0;
  port_entry(u, port, &e, &peer);
  return e;
}

graph::Edge LbTopologyView::edge(graph::EdgeId e) const {
  expect_valid_edge(e);
  if (e < intra_base_[1]) {  // path edges
    const int i = e / (length_ - 1);
    const int r = e % (length_ - 1);
    return graph::Edge{i * length_ + r, i * length_ + r + 1};
  }
  if (e < col_base_[1]) {  // intra-highway edges
    const int lvl = section_level(intra_base_, highways_, e);
    const int m = e - intra_base_[static_cast<std::size_t>(lvl)];
    return graph::Edge{node_base_[static_cast<std::size_t>(lvl)] + m,
                       node_base_[static_cast<std::size_t>(lvl)] + m + 1};
  }
  if (e < clique_base_[0]) {  // column links
    const int lvl = section_level(col_base_, highways_, e);
    const int t = e - col_base_[static_cast<std::size_t>(lvl)];
    if (lvl == 1) {
      return graph::Edge{node_base_[1] + t / gamma_,
                         (t % gamma_) * length_ + 2 * (t / gamma_)};
    }
    return graph::Edge{node_base_[static_cast<std::size_t>(lvl)] + t,
                       node_base_[static_cast<std::size_t>(lvl) - 1] + 2 * t};
  }
  // End-column cliques: invert the lexicographic pair rank by binary
  // search over the row base a * (p-1) - a*(a-1)/2.
  const bool right = e >= clique_base_[1];
  const int r = e - clique_base_[right ? 1 : 0];
  int lo = 0;
  int hi = line_count() - 2;  // rows 0 .. p-2, row a = pairs (a, *)
  while (lo < hi) {
    const int mid = lo + (hi - lo + 1) / 2;
    if (clique_rank(mid, mid + 1) <= r) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  const int a = lo;
  const int b = a + 1 + (r - clique_rank(a, a + 1));
  return graph::Edge{clique_member(right, a), clique_member(right, b)};
}

}  // namespace qdc::core
