// Host-clock spans recorded by the benchmark around its calls into each
// layer. Spans nest strictly (one host thread), are kept in memory, and
// are written out once, when the benchmark ends, as Chrome trace_event
// JSON (load in chrome://tracing or Perfetto).
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace vdebench {

class Spans {
 public:
  struct Span {
    std::string name;
    size_t parent = kNone;  // index of the enclosing span
    uint64_t trace = 0;     // spans of one repetition share this id
    int64_t start_ns = 0;   // host steady clock, relative to construction
    int64_t end_ns = -1;    // -1 while open
    int64_t child_ns = 0;   // time covered by direct children
  };
  static constexpr size_t kNone = ~size_t{0};

  // Opens a span under the innermost open one.
  void Begin(std::string name, uint64_t trace) {
    Span s;
    s.name = std::move(name);
    s.parent = open_.empty() ? kNone : open_.back();
    s.trace = trace;
    s.start_ns = Now();
    spans_.push_back(std::move(s));
    open_.push_back(spans_.size() - 1);
  }

  // Closes the innermost open span.
  void End() {
    Span& s = spans_[open_.back()];
    open_.pop_back();
    s.end_ns = Now();
    if (s.parent != kNone) spans_[s.parent].child_ns += s.end_ns - s.start_ns;
  }

  // RAII bracket around one call.
  class Scope {
   public:
    Scope(Spans& spans, std::string name, uint64_t trace) : spans_(spans) {
      spans_.Begin(std::move(name), trace);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (!ended_) spans_.End();
    }
    void End() {
      ended_ = true;
      spans_.End();
    }

   private:
    Spans& spans_;
    bool ended_ = false;
  };

  // Self time per span name, summed over every closed span of that name:
  // duration minus the part its child spans cover.
  std::map<std::string, double> SelfSeconds() const {
    std::map<std::string, double> out;
    for (const Span& s : spans_) {
      if (s.end_ns < 0) continue;
      out[s.name] +=
          static_cast<double>(s.end_ns - s.start_ns - s.child_ns) / 1e9;
    }
    return out;
  }

  bool WriteChromeJson(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\":[");
    bool first = true;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.end_ns < 0) continue;
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%lld,\"self_us\":%.3f}}",
                   first ? "" : ",", s.name.c_str(),
                   static_cast<unsigned long long>(s.trace),
                   static_cast<double>(s.start_ns) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                   s.parent == kNone ? -1LL : static_cast<long long>(s.parent),
                   static_cast<double>(s.end_ns - s.start_ns - s.child_ns) /
                       1e3);
      first = false;
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

}  // namespace vdebench
