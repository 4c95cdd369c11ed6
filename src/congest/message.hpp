// Messages exchanged in the CONGEST(B) model.
//
// The paper's B-model allows B bits per edge per direction per round
// (Section 2.1). We measure messages in *fields*, where one field is a
// 64-bit value understood to encode Theta(log n) bits of usable content
// (a node id, an edge weight, a counter). The network's bandwidth
// parameter is expressed in fields per edge per direction per round; the
// conversion to the paper's bit parameter is B_bits ~= fields * ceil(log2 n),
// which the bound calculators in src/core make explicit.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace qdc::congest {

/// One message: a short tuple of fields. The first field is conventionally
/// a protocol-defined tag.
using Payload = std::vector<std::int64_t>;

/// A message delivered to a node, annotated with the local port (index into
/// the node's neighbor list) it arrived on.
///
/// `data` views the fields where the sender staged them, in its shard's
/// staging arena; delivery copies nothing. The view is valid only during
/// the on_round call that receives it (the engine clears that arena buffer
/// afterwards), so a program copies whatever it keeps past that call.
struct Incoming {
  int port = -1;
  std::span<const std::int64_t> data;
};

}  // namespace qdc::congest
