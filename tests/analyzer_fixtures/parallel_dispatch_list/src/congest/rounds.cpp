// FIXTURE: the round engine's phase closures are pool closures. A closure
// handed to the member dispatch_list(...) that adds into a by-reference
// captured double is a shared write without a shard-indexed slot.
#include <cstddef>
#include <vector>

namespace qdc::congest {

class Engine {
 public:
  double run_rounds(int rounds);

 private:
  template <typename Body>
  void dispatch_list(const std::vector<int>& shard_ids, Body body);

  std::vector<int> computing_;
  std::vector<double> shard_load_;
};

double Engine::run_rounds(int rounds) {
  double racy_total = 0.0;
  for (int r = 0; r < rounds; ++r) {
    dispatch_list(computing_, [&](int s) {
      racy_total += shard_load_[static_cast<std::size_t>(s)];
    });
  }
  return racy_total;
}

}  // namespace qdc::congest
