// FIXTURE (clean): `enum class Party : int {` does not define a struct
// named `int`, so a list of shard ids is not an unpadded slot array.
#pragma once

#include <vector>

namespace qdc::congest {

enum class Party : int { kCarol = 0, kDavid = 1 };

struct ShardPlan {
  std::vector<int> shard_ids;
};

}  // namespace qdc::congest
