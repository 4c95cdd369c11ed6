#include "report.hpp"

#include <cstddef>
#include <cstdio>
#include <map>

namespace qdc::analyze {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string render_text(const std::vector<Diagnostic>& diags,
                        const Baseline& baseline, bool show_baselined) {
  std::string out;
  for (const Diagnostic& d : diags) {
    bool covered = baseline.covers(d);
    if (covered && !show_baselined) continue;
    std::string loc = d.file.empty() ? "(corpus)" : d.file;
    if (d.line > 0) loc += ":" + std::to_string(d.line);
    out += loc + ": [" + d.rule + "] " + d.message +
           (covered ? " (baselined)" : "") + "\n";
  }
  return out;
}

std::string render_sarif(const std::vector<Diagnostic>& diags,
                         const Baseline& baseline,
                         const std::vector<RuleMeta>& rules) {
  std::map<std::string, std::size_t> rule_index;
  for (std::size_t i = 0; i < rules.size(); ++i)
    rule_index.emplace(rules[i].id, i);

  std::string out =
      "{\n"
      "  \"$schema\": "
      "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      "  \"version\": \"2.1.0\",\n"
      "  \"runs\": [\n"
      "    {\n"
      "      \"tool\": {\n"
      "        \"driver\": {\n"
      "          \"name\": \"qdc_analyze\",\n"
      "          \"version\": \"2.0\",\n"
      "          \"rules\": [";
  bool first = true;
  for (const RuleMeta& r : rules) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "            {\"id\": \"" + json_escape(r.id) +
           "\", \"shortDescription\": {\"text\": \"" +
           json_escape(r.summary) + "\"}}";
  }
  out += rules.empty() ? "]\n" : "\n          ]\n";
  out +=
      "        }\n"
      "      },\n"
      "      \"columnKind\": \"utf16CodeUnits\",\n"
      "      \"results\": [";
  first = true;
  for (const Diagnostic& d : diags) {
    const BaselineEntry* entry = baseline.find(d);
    out += first ? "\n" : ",\n";
    first = false;
    out += "        {\"ruleId\": \"" + json_escape(d.rule) + "\"";
    auto it = rule_index.find(d.rule);
    if (it != rule_index.end())
      out += ", \"ruleIndex\": " + std::to_string(it->second);
    out += ", \"level\": \"error\", \"message\": {\"text\": \"" +
           json_escape(d.message) + "\"}";
    // Corpus-level diagnostics (file "") legitimately have no location;
    // SARIF allows locations to be absent.
    if (!d.file.empty()) {
      out += ", \"locations\": [{\"physicalLocation\": "
             "{\"artifactLocation\": {\"uri\": \"" +
             json_escape(d.file) + "\", \"uriBaseId\": \"SRCROOT\"}";
      if (d.line > 0)
        out += ", \"region\": {\"startLine\": " + std::to_string(d.line) +
               "}";
      out += "}}]";
    }
    out += ", \"partialFingerprints\": {\"qdcAnalyzeFingerprint/v1\": \"" +
           json_escape(d.fingerprint()) + "\"}";
    if (entry != nullptr)
      out += ", \"suppressions\": [{\"kind\": \"external\", "
             "\"justification\": \"" +
             json_escape(entry->justification) + "\"}]";
    out += "}";
  }
  out += diags.empty() ? "]\n" : "\n      ]\n";
  out +=
      "    }\n"
      "  ]\n"
      "}\n";
  return out;
}

}  // namespace qdc::analyze
