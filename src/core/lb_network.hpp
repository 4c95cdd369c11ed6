// A perfbench shim: N(Gamma, L) plus its materialized graph::Graph.
//
// core::LbTopologyView (core/lb_topology.hpp) is the one definition of the
// lower-bound network; this class only adds congest::materialize(*this)
// for the callers that still ask for `topology()` — perfbench's paper_grid
// and bench_engine_scaling. The next benchmark change deletes it
// (ROADMAP item 9); new code builds a Network over the view instead.
#pragma once

#include "congest/topology.hpp"
#include "core/lb_topology.hpp"
#include "graph/graph.hpp"

namespace qdc::core {

class LbNetwork : public LbTopologyView {
 public:
  LbNetwork(int gamma, int length)
      : LbTopologyView(gamma, length), topology_(congest::materialize(*this)) {}

  const graph::Graph& topology() const { return topology_; }

 private:
  graph::Graph topology_;
};

}  // namespace qdc::core
