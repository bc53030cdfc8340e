// Shared types of the benchmark workloads.
//
// A run repeats one workload's iteration until its time is up. An
// iteration is one complete, checked scenario: a set-up phase (from start
// to the first step, expansion or request) and a measured phase (up to
// the scenario's verdict). Every iteration of a run uses the same inputs,
// derived from the run's seed, so the simulated statistics it records (its
// fingerprint) must repeat exactly.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

struct Params {
  std::uint64_t seed = 1;
  /// Tiny instance sizes, for the gate self-test.
  bool tiny = false;
  /// A deliberately broken scenario whose gate must fail (see main.cpp).
  std::string teeth;
};

struct Iteration {
  /// One line per failed correctness gate; empty iff the iteration passed.
  std::vector<std::string> failures;
  double setup_s = 0.0;
  /// Times of extra complete set-ups, made before the measured one and torn
  /// down; they join setup_s in the run's set-up statistic.
  std::vector<double> extra_setup_s;
  double run_s = 0.0;
  /// Latency of each operation, timed from when it was due.
  std::vector<double> op_ms;
  /// Operations completed per second of the phase that measures
  /// throughput.
  double ops_per_s = 0.0;
  /// Operations attempted and failed (a failed gate fails at least one).
  std::uint64_t ops_attempted = 0;
  std::uint64_t ops_failed = 0;
  /// Per-layer values that are not span self times: counts, ratios,
  /// percentiles.
  std::map<std::string, double> layer;
  /// Simulated statistics that a speed-only change must leave identical.
  std::map<std::string, double> fingerprint;

  void fail(std::string why) { failures.push_back(std::move(why)); }
};

/// Marks the set-up and measured phases of an iteration. The "setup" and
/// "run" spans are structural: every layer span is a child of one of them,
/// so their own self time is the time no layer span covers.
class Phases {
 public:
  explicit Phases(Tracer& tracer) : tracer_(tracer) {}
  void begin_setup() {
    t0_ = now_s();
    span_ = tracer_.begin("setup");
  }
  void begin_run() {
    tracer_.end(span_);
    t1_ = now_s();
    span_ = tracer_.begin("run");
  }
  void end(Iteration& it) {
    tracer_.end(span_);
    span_ = -1;
    const double t2 = now_s();
    it.setup_s = t1_ - t0_;
    it.run_s = t2 - t1_;
  }

 private:
  Tracer& tracer_;
  int span_ = -1;
  double t0_ = 0.0;
  double t1_ = 0.0;
};

class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;
  virtual Iteration iterate(Tracer& tracer) = 0;
};

// Each factory documents, next to its workload, why it was chosen.
std::unique_ptr<Workload> make_e1_ring(const Params& params);
std::unique_ptr<Workload> make_verify_ring(const Params& params);
std::unique_ptr<Workload> make_svc_ring(const Params& params);

/// q-quantile (0 <= q <= 1) by linear interpolation; 0 for no samples.
[[nodiscard]] double quantile(std::vector<double> v, double q);

}  // namespace perfbench
