// Report rendering: editor-friendly text and SARIF 2.1.0 (consumable by
// GitHub code scanning).
#pragma once

#include <string>
#include <vector>

#include "baseline.hpp"
#include "check.hpp"

namespace qdc::analyze {

/// `file:line: [rule] message` lines, sorted, one per diagnostic.
/// Diagnostics covered by `baseline` are annotated `(baselined)` when
/// `show_baselined` is set and omitted otherwise.
std::string render_text(const std::vector<Diagnostic>& diags,
                        const Baseline& baseline, bool show_baselined);

/// SARIF 2.1.0: one run, tool.driver.rules from `rules`, one result per
/// diagnostic with ruleId/ruleIndex/level/message/locations and a
/// partialFingerprints entry carrying the baseline fingerprint. Baselined
/// diagnostics stay in the report but carry a suppression of kind
/// "external" with the baseline justification, which is how SARIF
/// consumers (GitHub code scanning included) mark accepted findings.
std::string render_sarif(const std::vector<Diagnostic>& diags,
                         const Baseline& baseline,
                         const std::vector<RuleMeta>& rules);

}  // namespace qdc::analyze
