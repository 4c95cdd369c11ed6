// FIXTURE: a file-scope using-directive.
#include <string>

using namespace std;

namespace qdc::util {
string loose() { return "loose"; }
}  // namespace qdc::util
