// In-memory span tracer for the benchmark.
//
// Spans are recorded only around the benchmark's own calls into the
// library layers (graph, core, fault, analysis, verify, service, client,
// load); nothing inside the library is instrumented. A span has a name,
// start, end and parent. Spans are kept in memory and folded into
// per-layer self times when an iteration ends: a span's self time is its
// duration minus the part of its interval its direct children cover.
//
// A disabled tracer records nothing, so the untraced runs that give the
// end-to-end metrics pay one branch per scope.
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds on the monotonic clock (arbitrary epoch).
[[nodiscard]] inline double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Opens a span under the innermost open one; -1 when disabled.
  int begin(const char* name);
  void end(int id);
  /// Records an already-timed span under the innermost open one.
  void add(const char* name, double start, double end);

  void clear() {
    spans_.clear();
    open_.clear();
  }

  /// Time summed per span name, minus the part of each span its direct
  /// children cover. With `keep_sublayers`, children named "<span>.<x>"
  /// (a split of the same layer, e.g. analysis.oracle.nc under
  /// analysis.oracle) are not subtracted: the layer's own total.
  [[nodiscard]] std::map<std::string, double> self_times(
      bool keep_sublayers = false) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name)
      : tracer_(tracer), id_(tracer.begin(name)) {}
  ~Scope() { tracer_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace perfbench
