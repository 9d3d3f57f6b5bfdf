// Unit test for the benchmark's metric rules: ratios over a zero base,
// medians, and the result line. Run with `ctest --test-dir .bench_build`.
#include <cmath>
#include <cstdio>
#include <string>

#include "metrics.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

}  // namespace

int main() {
  using vdebench::MakeRatio;

  // A read-only window has no guest writes: write amplification over that
  // base is defined as 0, and stays finite whatever the numerator.
  Check(MakeRatio(0, 0).value() == 0, "0/0 reads 0");
  Check(MakeRatio(12345, 0).value() == 0, "n/0 reads 0");
  Check(std::isfinite(MakeRatio(-1, 0).value()), "-n/0 is finite");
  Check(MakeRatio(3, 4).value() == 0.75, "3/4");
  Check(MakeRatio(3, 4).base == 4, "base kept");

  Check(vdebench::Median({}) == 0, "median of nothing");
  Check(vdebench::Median({3, 1, 2}) == 2, "odd median");
  Check(vdebench::Median({4, 1, 3, 2}) == 2.5, "even median");

  Check(vdebench::JsonNumber(NAN) == "null", "NaN is not a number");
  Check(vdebench::JsonNumber(0.1) == "0.10000000000000001", "all digits");

  const std::string line = vdebench::ResultLine(
      true, 10, 0,
      {{"write_amp", "B/B", MakeRatio(7, 0).value(), "guest bytes 0"}});
  Check(line ==
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, "
            "\"metrics\": {\"write_amp\": {\"value\": 0, \"unit\": "
            "\"B/B\"}}}",
        "result line");

  if (failures == 0) std::printf("perfbench_metrics_test: OK\n");
  return failures == 0 ? 0 : 1;
}
