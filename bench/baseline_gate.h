// The committed-baseline gate shared by every bench that checks CI against a
// JSON file at the repository root (`bench_micro --perf --check
// BENCH_PR7.json`, `bench_ablation_filter_location --check BENCH_PR9.json`,
// `bench_scenario_matrix --check SCENARIO_PR10.json`; docs/PERF.md §6). It
// owns the row the perf harnesses write, the one reader for every baseline
// file, and the one comparison rule.
//
// A baseline file holds one JSON object per line whose fields are all
// scalars, with or without a space after each colon. Lines of "[" and "]"
// and a trailing comma after an object are accepted, so a JSON array written
// one row per line (BENCH_PR7/PR9) and a JSON-lines file (SCENARIO_PR10) both
// read.
//
// A bench names each value it gates by its baseline row's identity fields,
// the baseline field to compare, and its direction:
//   higher is better: passes at value >= base x (1 - tolerance)
//   lower is better:  passes at value <= base x (1 + tolerance)
// A zero baseline value fails whatever the run reads: against it a
// higher-is-better gate admits anything, and a lower-is-better one passes a
// metric that measured nothing. A row or field missing from the baseline
// fails, and so does every value gated against a file that is missing,
// unreadable, empty or malformed.

#ifndef BLADERUNNER_BENCH_BASELINE_GATE_H_
#define BLADERUNNER_BENCH_BASELINE_GATE_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace bladerunner {

// One measurement row of a perf harness (BENCH_PR7.json, BENCH_PR9.json).
struct PerfRow {
  std::string bench;
  std::string metric;
  double value = 0.0;
  std::string unit;
};

enum class Better { kHigher, kLower };

// One value a bench gates: `value` against field `field` of the baseline row
// whose fields equal every (name, value) pair of `row`.
struct GatedValue {
  std::vector<std::pair<std::string, std::string>> row;
  std::string field;
  Better better = Better::kHigher;
  double value = 0.0;
};

class BaselineGate {
 public:
  // Reads the baseline at `path`. On a missing, unreadable, empty or
  // malformed file ok() is false and error() says why.
  explicit BaselineGate(const std::string& path) {
    std::ifstream in(path);
    int number = 0;
    for (std::string line; std::getline(in, line);) {
      ++number;
      if (line.find_first_not_of(" \t\r[],") == std::string::npos) {
        continue;  // blank, or the brackets of an array file
      }
      if (!ParseRow(line, &rows_.emplace_back())) {
        error_ = path + ":" + std::to_string(number) + ": not one JSON object of scalars";
        rows_.clear();
        return;
      }
    }
    if (rows_.empty()) {
      error_ = (in.is_open() ? "no baseline rows in " : "cannot read baseline ") + path;
    }
  }

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

  // Applies the rule to one value and prints one line saying so. Returns
  // whether the value passes.
  bool Check(const GatedValue& gated, double tolerance) const {
    std::string label;
    for (const auto& [name, value] : gated.row) {
      label += (label.empty() ? "" : "/") + value;
    }
    label += " " + gated.field;
    auto fail = [&label](const std::string& why) {
      std::printf("baseline-check: %s FAILED: %s\n", label.c_str(), why.c_str());
      return false;
    };
    if (!ok()) {
      return fail(error_);
    }
    auto row = std::find_if(rows_.begin(), rows_.end(), [&gated](const auto& candidate) {
      return std::all_of(gated.row.begin(), gated.row.end(), [&candidate](const auto& id) {
        auto it = candidate.find(id.first);
        return it != candidate.end() && it->second == id.second;
      });
    });
    if (row == rows_.end()) {
      return fail("not in baseline");
    }
    auto field = row->find(gated.field);
    double base = 0.0;
    if (field == row->end() || !ParseNumber(field->second, &base)) {
      return fail("no numeric baseline value");
    }
    if (base == 0.0) {
      return fail("zero baseline value");
    }
    const bool higher = gated.better == Better::kHigher;
    const double limit = base * (higher ? 1.0 - tolerance : 1.0 + tolerance);
    const bool pass = higher ? gated.value >= limit : gated.value <= limit;
    std::printf("baseline-check: %s %.2f vs baseline %.2f (%s %.2f) %s\n", label.c_str(),
                gated.value, base, higher ? "floor" : "ceiling", limit,
                pass ? "ok" : "REGRESSED");
    return pass;
  }

 private:
  static bool ParseNumber(const std::string& text, double* out) {
    char* end = nullptr;
    *out = std::strtod(text.c_str(), &end);
    return !text.empty() && *end == '\0';
  }

  // One line `{"name": value, ...}` whose values are strings (stored
  // unquoted), numbers, true, false or null, optionally followed by a comma.
  static bool ParseRow(const std::string& line, std::map<std::string, std::string>* row) {
    size_t at = 0;
    // Skips blanks; consumes `c` if it comes next.
    auto next_is = [&line, &at](char c) {
      at = std::min(line.find_first_not_of(" \t\r", at), line.size());
      if (at == line.size() || line[at] != c) {
        return false;
      }
      ++at;
      return true;
    };
    // Reads a quoted string if one comes next. An unterminated one runs to
    // the end of the line, so the closing brace is then missing.
    auto quoted = [&line, &at, &next_is](std::string* out) {
      if (!next_is('"')) {
        return false;
      }
      size_t end = std::min(line.find('"', at), line.size());
      *out = line.substr(at, end - at);
      at = end + 1;
      return true;
    };
    if (!next_is('{')) {
      return false;
    }
    do {
      std::string name;
      std::string value;
      if (!quoted(&name) || !next_is(':')) {
        return false;
      }
      if (!quoted(&value)) {
        size_t end = std::min(line.find_first_of(",} \t\r", at), line.size());
        value = line.substr(at, end - at);
        at = end;
        double number = 0.0;
        if (value != "true" && value != "false" && value != "null" &&
            !ParseNumber(value, &number)) {
          return false;
        }
      }
      (*row)[name] = value;
    } while (next_is(','));
    if (!next_is('}')) {
      return false;
    }
    next_is(',');
    return line.find_first_not_of(" \t\r", at) == std::string::npos;
  }

  std::vector<std::map<std::string, std::string>> rows_;
  std::string error_;
};

// Prints `rows` as a JSON array, one row per line (the BENCH_PR*.json
// format), writes the same text to `out_path` when set, and gates every row
// as higher-is-better on its "value" against the baseline at `check_path`
// when set. Returns the exit code: 1 when the gate fails, else 0.
inline int ReportPerfRows(const std::vector<PerfRow>& rows, const std::string& out_path,
                          const std::string& check_path, double tolerance) {
  std::ostringstream json;
  json << "[\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    json << "  {\"bench\": \"" << rows[i].bench << "\", \"metric\": \"" << rows[i].metric
         << "\", \"value\": " << std::fixed << rows[i].value << ", \"unit\": \""
         << rows[i].unit << "\"}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "]\n";
  std::fputs(json.str().c_str(), stdout);
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << json.str();
  }
  if (check_path.empty()) {
    return 0;
  }
  BaselineGate gate(check_path);
  bool pass = true;
  for (const PerfRow& row : rows) {
    pass = gate.Check({{{"bench", row.bench}, {"metric", row.metric}}, "value", Better::kHigher,
                       row.value},
                      tolerance) &&
           pass;
  }
  return pass ? 0 : 1;
}

}  // namespace bladerunner

#endif  // BLADERUNNER_BENCH_BASELINE_GATE_H_
