// Span recorder for the traced run: wall-time spans around the benchmark's
// own calls into the library (nothing inside src/ is instrumented).
//
// A span has a name, a start, an end and the span that was open when it
// began (its parent). Spans are kept in memory and summarised when the run
// ends: total time per name, and self time = total minus the time covered
// by the span's direct children.
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace rexbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

class Tracer {
 public:
  struct Span {
    const char* name = "";
    Clock::time_point start;
    Clock::time_point end;
    int parent = -1;  // index into spans(); -1 = root
  };

  struct Summary {
    double total_s = 0.0;
    double self_s = 0.0;
  };

  /// Opens a span named `name` (a string literal) under the innermost open
  /// span; returns its index for close().
  int open(const char* name) {
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{name, Clock::now(), {}, parent});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void close(int index) {
    spans_[static_cast<std::size_t>(index)].end = Clock::now();
    open_.pop_back();
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Total and self time per span name, over every closed span.
  [[nodiscard]] std::map<std::string, Summary> summarise() const {
    std::vector<double> child_time(spans_.size(), 0.0);
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        child_time[static_cast<std::size_t>(span.parent)] += duration(span);
      }
    }
    std::map<std::string, Summary> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      Summary& summary = out[spans_[i].name];
      summary.total_s += duration(spans_[i]);
      summary.self_s += duration(spans_[i]) - child_time[i];
    }
    return out;
  }

 private:
  [[nodiscard]] static double duration(const Span& span) {
    return std::chrono::duration<double>(span.end - span.start).count();
  }

  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span on an optional tracer: a null tracer (the untraced run) costs
/// one branch.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name)
      : tracer_(tracer), index_(tracer ? tracer->open(name) : -1) {}
  ~Scope() {
    if (tracer_) tracer_->close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

}  // namespace rexbench
