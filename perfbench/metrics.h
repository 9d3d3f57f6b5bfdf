// Metric values the benchmark reports and the rules they follow: every
// per-op / per-byte figure is a Ratio with a stated base, and the result
// line is one JSON object.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace vdebench {

// num / base. A zero base means the work the ratio normalises by did not
// happen in the window (no guest writes on a read-only phase, no cache
// lookups without a cache); the ratio is then defined as 0 instead of
// NaN or infinity, and callers print the base next to the value so a 0
// with base 0 reads as "not exercised", not as "free".
struct Ratio {
  double num = 0;
  double base = 0;

  double value() const { return base == 0 ? 0.0 : num / base; }
};

inline Ratio MakeRatio(double num, double base) { return Ratio{num, base}; }

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  std::string base;  // what the value is normalised by; empty if absolute
};

// All digits of a double, so repeated runs that differ in the last place
// still read differently. Non-finite values cannot occur through Ratio;
// anything else non-finite is printed as null, which no reader accepts as
// a measurement.
inline std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// The benchmark's result: one JSON object on one line.
inline std::string ResultLine(bool correct, uint64_t attempted,
                              uint64_t failed,
                              const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace vdebench
