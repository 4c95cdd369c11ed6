// FIXTURE: a header with no code at all has no #pragma once (and
// declares nothing inside namespace qdc).
