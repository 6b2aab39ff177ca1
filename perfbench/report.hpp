// One worker process's result record, printed as a single JSON line that
// run.py pools across processes. Values are written with all their digits
// (%.17g); keys are plain ASCII metric names and are not escaped.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

struct Report {
  /// Per-request / per-session / per-burst samples, pooled by run.py.
  std::map<std::string, std::vector<double>> samples;
  /// Scalars (setup phases, peak RSS, per-layer figures, host facts).
  std::map<std::string, double> values;
  std::map<std::string, std::string> text;
  std::vector<Check> checks;
  /// Raw obs::to_json() snapshots taken around the traced phase.
  std::string obs_before;
  std::string obs_after;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  void check(const std::string& name, bool ok, const std::string& detail) {
    checks.push_back({name, ok, detail});
    ++attempted;
    if (!ok) ++failed;
  }
  void add(const std::string& key, double v) { samples[key].push_back(v); }

  [[nodiscard]] std::string to_json() const;
};

inline std::string json_double(double v) {
  if (v != v || v == 1.0 / 0.0 || v == -1.0 / 0.0) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

inline std::string Report::to_json() const {
  std::string out = "{\"samples\":{";
  bool first = true;
  for (const auto& [key, values_list] : samples) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += key;
    out += "\":[";
    for (std::size_t i = 0; i < values_list.size(); ++i) {
      if (i) out += ',';
      out += json_double(values_list[i]);
    }
    out += ']';
  }
  out += "},\"values\":{";
  first = true;
  for (const auto& [key, v] : values) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += key;
    out += "\":";
    out += json_double(v);
  }
  out += "},\"text\":{";
  first = true;
  for (const auto& [key, v] : text) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += key;
    out += "\":\"";
    out += v;
    out += '"';
  }
  out += "},\"checks\":[";
  for (std::size_t i = 0; i < checks.size(); ++i) {
    if (i) out += ',';
    out += "{\"name\":\"";
    out += checks[i].name;
    out += "\",\"ok\":";
    out += checks[i].ok ? "true" : "false";
    out += ",\"detail\":\"";
    out += checks[i].detail;
    out += "\"}";
  }
  out += "],\"obs_before\":" + (obs_before.empty() ? "null" : obs_before);
  out += ",\"obs_after\":" + (obs_after.empty() ? "null" : obs_after);
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed) + "}";
  return out;
}

}  // namespace perfbench
