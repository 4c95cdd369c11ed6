// FIXTURE: below the top level of tests/, outside the corpus.
#include <cstdlib>

int nested_draw() { return rand(); }
