// FIXTURE: a bare rethrow is allowed; "throw" in a string is not code.
namespace qdc::graph {

void cleanup();

void guarded(void (*fn)()) {
  try {
    fn();
  } catch (...) {
    cleanup();
    throw;
  }
}

const char* why() { return "never throw directly"; }

}  // namespace qdc::graph
