// Observability-plane gates: tracing must be free, exact, and complete.
//
// Three self-checking acceptance gates on a mixed rwmix+discard stream:
//
//   identity   observability disabled AND enabled runs finish at the very
//              same simulated nanosecond (and event count) as each other —
//              the instrumentation only reads the sim clock, so enabling
//              it is a bit-identical passthrough. Checked under both the
//              legacy timeline and the 4-core CPU model.
//   exact      with tracing on, every completed op's exclusive per-stage
//              durations sum to its end-to-end latency within 1% (the
//              frontier-based attribution makes them equal by
//              construction; the gate allows 1% per the acceptance bar).
//   layers     the exported Chrome trace JSON parses (in-bench
//              recursive-descent parser, no external deps) and contains at
//              least one span per instrumented layer — qos, wb, crypto,
//              store, device — for a qd=8 run behind a depth-capped QoS
//              scheduler (the cap forces real queue waits).
//
// Artifacts: writes bench-obs.json (gate verdicts + the machine-readable
// fio result) and bench-obs-trace.json (the sample trace) to the CWD; CI
// uploads both.
//
// Usage: bench_obs [--quick]
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "cluster_fixture.h"
#include "qos/scheduler.h"

namespace {

using namespace vde;

const core::EncryptionSpec kObjectEnd{core::CipherMode::kXtsRandom,
                                      core::IvLayout::kObjectEnd};

// What a traced run exports once the whole run drained.
struct TraceOut {
  std::string json;
  std::vector<obs::OpRecord> completed;  // every completed op (slow log)
  size_t spans = 0;
  uint64_t dropped = 0;
};

// One mixed rwmix+discard run on a fresh cluster. `obs_on` flips the
// observability plane; `qos_depth` > 0 puts the image behind a
// depth-capped QoS scheduler (forces queue waits -> qos spans). A non-null
// `trace` receives the exported trace.
bench::Outcome RunMixed(bool obs_on, unsigned cores, uint64_t ops, size_t qd,
                        size_t qos_depth, TraceOut* trace = nullptr) {
  rbd::ImageOptions options = bench::BenchImage(4ull << 30, kObjectEnd);
  options.obs.enabled = obs_on;
  // Retain every completed op (prefill included) so the exactness gate
  // checks the whole population, not just a tail.
  options.obs.slow_ops = 1 << 14;
  if (qos_depth > 0) {
    options.qos_scheduler = std::make_shared<qos::Scheduler>();
    options.qos.enabled = true;
    options.qos.max_queue_depth = qos_depth;
  }
  workload::FioConfig fio;
  fio.rw_mix_pct = 70;
  fio.discard_pct = 10;
  fio.io_size = 4096;
  fio.queue_depth = qd;
  fio.total_ops = ops;
  fio.working_set = 64ull << 20;
  bench::Point point;
  point.cluster = bench::SmallCluster();
  point.cores = cores;
  point.tenants.push_back({"bench", options, fio, /*prefill=*/true});

  if (trace != nullptr) {
    point.probe = [trace](bench::Phase phase, rados::Cluster&,
                          const bench::Images& images) {
      if (phase != bench::Phase::kEnd) return;
      const obs::Tracer& tracer = images[0]->obs().tracer();
      trace->json = tracer.ExportChromeJson();
      trace->spans = tracer.size();
      trace->dropped = tracer.dropped();
      trace->completed = images[0]->obs().op_tracker().SlowOps();
    };
  }
  return bench::RunFio(point, "RunMixed");
}

// --- minimal JSON parser (validation + "name" collection) ---
//
// Full JSON value grammar, no allocation beyond the collected names; used
// to prove the exported trace is well-formed without external deps.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text)
      : p_(text.data()), end_(text.data() + text.size()) {}

  // Parses one complete JSON document; false on any syntax error or
  // trailing garbage.
  bool Parse() {
    if (!Value()) return false;
    Skip();
    return p_ == end_;
  }

  const std::set<std::string>& names() const { return names_; }

 private:
  void Skip() {
    while (p_ < end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' ||
                         *p_ == '\r')) {
      p_++;
    }
  }
  bool Literal(const char* lit) {
    const size_t n = std::strlen(lit);
    if (static_cast<size_t>(end_ - p_) < n ||
        std::strncmp(p_, lit, n) != 0) {
      return false;
    }
    p_ += n;
    return true;
  }
  bool String(std::string* out) {
    if (p_ >= end_ || *p_ != '"') return false;
    p_++;
    while (p_ < end_ && *p_ != '"') {
      if (*p_ == '\\') {
        p_++;
        if (p_ >= end_) return false;
        if (*p_ == 'u') {
          for (int i = 0; i < 4; ++i) {
            p_++;
            if (p_ >= end_ || !std::isxdigit(static_cast<unsigned char>(*p_)))
              return false;
          }
        }
      } else if (out != nullptr) {
        out->push_back(*p_);
      }
      p_++;
    }
    if (p_ >= end_) return false;
    p_++;  // closing quote
    return true;
  }
  bool Number() {
    const char* start = p_;
    if (p_ < end_ && *p_ == '-') p_++;
    while (p_ < end_ && std::isdigit(static_cast<unsigned char>(*p_))) p_++;
    if (p_ < end_ && *p_ == '.') {
      p_++;
      while (p_ < end_ && std::isdigit(static_cast<unsigned char>(*p_))) p_++;
    }
    if (p_ < end_ && (*p_ == 'e' || *p_ == 'E')) {
      p_++;
      if (p_ < end_ && (*p_ == '+' || *p_ == '-')) p_++;
      while (p_ < end_ && std::isdigit(static_cast<unsigned char>(*p_))) p_++;
    }
    return p_ > start;
  }
  bool Object() {
    p_++;  // '{'
    Skip();
    if (p_ < end_ && *p_ == '}') {
      p_++;
      return true;
    }
    while (true) {
      Skip();
      std::string key;
      if (!String(&key)) return false;
      Skip();
      if (p_ >= end_ || *p_ != ':') return false;
      p_++;
      Skip();
      if (key == "name" && p_ < end_ && *p_ == '"') {
        std::string val;
        if (!String(&val)) return false;
        names_.insert(val);
      } else if (!Value()) {
        return false;
      }
      Skip();
      if (p_ < end_ && *p_ == ',') {
        p_++;
        continue;
      }
      break;
    }
    if (p_ >= end_ || *p_ != '}') return false;
    p_++;
    return true;
  }
  bool Array() {
    p_++;  // '['
    Skip();
    if (p_ < end_ && *p_ == ']') {
      p_++;
      return true;
    }
    while (true) {
      if (!Value()) return false;
      Skip();
      if (p_ < end_ && *p_ == ',') {
        p_++;
        Skip();
        continue;
      }
      break;
    }
    if (p_ >= end_ || *p_ != ']') return false;
    p_++;
    return true;
  }
  bool Value() {
    Skip();
    if (p_ >= end_) return false;
    switch (*p_) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String(nullptr);
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  const char* p_;
  const char* end_;
  std::set<std::string> names_;
};

}  // namespace

int main(int argc, char** argv) {
  const uint64_t ops = bench::HasFlag(argc, argv, "--quick") ? 160 : 512;
  bench::Gates gates;

  // Gate (a): disabled vs enabled observability — identical sim clock and
  // event count, under both the legacy timeline and the 4-core model.
  std::printf("gate identity: mixed rwmix=70 discard=10 qd=8, %llu ops\n",
              static_cast<unsigned long long>(ops));
  bool identity_ok = true;
  for (unsigned cores : {0u, 4u}) {
    const bench::Outcome off = RunMixed(/*obs_on=*/false, cores, ops,
                                        /*qd=*/8, /*qos_depth=*/0);
    const bench::Outcome on = RunMixed(/*obs_on=*/true, cores, ops, /*qd=*/8,
                                       /*qos_depth=*/0);
    const bool ok = off.ok && on.ok && off.clock == on.clock &&
                    off.events == on.events;
    std::printf("  cores=%u: off=%llu ns (%llu ev)  on=%llu ns (%llu ev)  %s\n",
                cores, static_cast<unsigned long long>(off.clock),
                static_cast<unsigned long long>(off.events),
                static_cast<unsigned long long>(on.clock),
                static_cast<unsigned long long>(on.events),
                ok ? "IDENTICAL" : "DIVERGED");
    identity_ok = identity_ok && ok;
  }
  gates.Report("gate identity", identity_ok, "\n\n");

  // Gates (b) + (c) share one traced run behind a depth-capped QoS
  // scheduler (depth 2 under qd 8 forces real queue waits).
  TraceOut trace;
  const bench::Outcome traced = RunMixed(/*obs_on=*/true, /*cores=*/0, ops,
                                         /*qd=*/8, /*qos_depth=*/2, &trace);
  if (!traced.ok) {
    std::printf("traced run FAILED\n");
    return 1;
  }

  // Gate (b): per-op exclusive stage durations sum to the end-to-end
  // latency within 1% (equal by construction; 1% is the acceptance bar).
  uint64_t checked = 0, exact = 0, violations = 0;
  for (const obs::OpRecord& r : trace.completed) {
    sim::SimTime sum = 0;
    for (size_t s = 0; s < obs::kNumStages; ++s) sum += r.stage_ns[s];
    checked++;
    if (sum == r.latency_ns) exact++;
    const double lat = static_cast<double>(r.latency_ns);
    if (std::fabs(static_cast<double>(sum) - lat) > lat * 0.01) {
      if (violations < 5) {
        std::printf("  VIOLATION: %s\n", obs::FormatOpRecord(r).c_str());
      }
      violations++;
    }
  }
  const bool exact_ok = gates.Record(checked > 0 && violations == 0);
  std::printf("gate exact: %llu ops checked, %llu bit-exact, %llu beyond "
              "1%%: %s\n\n",
              static_cast<unsigned long long>(checked),
              static_cast<unsigned long long>(exact),
              static_cast<unsigned long long>(violations),
              bench::PassFail(exact_ok));

  // Gate (c): the Chrome trace parses and has >= 1 span per layer.
  JsonParser parser(trace.json);
  const bool parsed = parser.Parse();
  bool layers_ok = parsed;
  std::printf("gate layers: trace %zu spans (%llu dropped), parse=%s\n",
              trace.spans, static_cast<unsigned long long>(trace.dropped),
              parsed ? "ok" : "SYNTAX ERROR");
  for (const char* layer : {"qos", "wb", "crypto", "store", "device"}) {
    const bool present = parser.names().count(layer) > 0;
    std::printf("  %-7s %s\n", layer, present ? "present" : "MISSING");
    layers_ok = layers_ok && present;
  }
  gates.Report("gate layers", layers_ok, "\n\n");

  // Artifacts for CI: gate verdicts + the machine-readable fio result, and
  // the sample trace itself.
  std::string summary = "{\"gates\":{\"identity\":";
  summary += identity_ok ? "true" : "false";
  summary += ",\"exact\":";
  summary += exact_ok ? "true" : "false";
  summary += ",\"layers\":";
  summary += layers_ok ? "true" : "false";
  summary += "},\"fio\":" + traced.results[0].ToJson() + "}\n";
  if (!bench::WriteFile("bench-obs.json", summary) ||
      !bench::WriteFile("bench-obs-trace.json", trace.json)) {
    std::printf("failed to write artifacts\n");
    return 1;
  }
  std::printf("wrote bench-obs.json and bench-obs-trace.json\n");

  std::printf("\nbench_obs: %s\n",
              gates.ok() ? "ALL GATES PASS" : "FAILED");
  return bench::ExitCode(gates.ok());
}
