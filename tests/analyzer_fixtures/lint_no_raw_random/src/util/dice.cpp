// FIXTURE: rand() and srand() in src/; not rand() in a comment.
#include <cstdlib>

namespace qdc::util {

int roll() { return std::rand() % 6; }
void reseed(unsigned s) { srand (s); }
const char* label() { return "srand(1) in a string"; }

}  // namespace qdc::util
