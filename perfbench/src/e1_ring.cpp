// e1-ring — Theorem 1 (stabilization to I) as a user waits on it.
//
// Why: it is the stabilization headline, and the invariant oracle does most
// of its work. Each of kTrials rings of n = 2^14 starts from
// corrupt_global_state; a flat engine with the round-robin daemon steps it
// in bursts of n/16 steps (ExperimentHarness::run), and holds_invariant
// judges each burst until I holds: the E16 protocol, scaled down from
// n = 2^20 so iterations repeat within one run. The threshold is n/2, so
// construction skips the all-pairs BFS; degree 2 and no daemon select keep
// stepping cheap. Each burst plus its verdict is one operation.
//
// Gates, per start: converged within the step budget, I holds, and no
// eating violation is left.
#include <memory>
#include <optional>
#include <vector>

#include "analysis/harness.hpp"
#include "analysis/invariants.hpp"
#include "bench.hpp"
#include "fault/injector.hpp"
#include "fault/workload.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using diners::core::DinersSystem;

constexpr std::uint64_t kCorruptStream = 0x11;
constexpr std::uint64_t kHarnessStream = 0x14;
/// Independent corrupted starts per iteration (seeds derived from the
/// run's): time to I varies by a few rounds from one start to the next, and
/// the sum over several keeps a run's figure from hanging on one.
constexpr int kTrials = 16;

/// holds_invariant; traced, the same short-circuit with one span per
/// conjunct.
bool oracle(Tracer& tracer, const DinersSystem& system) {
  namespace an = diners::analysis;
  Scope s(tracer, "analysis.oracle");
  if (!tracer.enabled()) return an::holds_invariant(system);
  {
    Scope c(tracer, "analysis.oracle.nc");
    if (!an::holds_nc(system)) return false;
  }
  {
    Scope c(tracer, "analysis.oracle.st");
    if (!an::holds_st(system)) return false;
  }
  Scope c(tracer, "analysis.oracle.e");
  return an::holds_e(system);
}

class E1Ring final : public Workload {
 public:
  explicit E1Ring(const Params& p)
      : seed_(p.seed),
        n_(p.tiny ? 256u : 1u << 14),
        burst_(n_ / 16),
        // A corrupted ring reaches I in about 3n steps.
        budget_(p.teeth == "e1-budget" ? burst_ : 16ull * n_) {}

  Iteration iterate(Tracer& tracer) override {
    namespace an = diners::analysis;
    Iteration it;
    Phases phases(tracer);
    phases.begin_setup();
    std::vector<std::unique_ptr<DinersSystem>> systems;
    std::vector<std::unique_ptr<an::ExperimentHarness>> harnesses;
    for (int t = 0; t < kTrials; ++t) {
      const std::uint64_t seed = diners::util::derive_seed(seed_, t);
      std::optional<diners::graph::Graph> g;
      {
        Scope s(tracer, "graph.build");
        g.emplace(diners::graph::make_ring(n_));
      }
      {
        Scope s(tracer, "core.init");
        diners::core::DinersConfig config;
        config.diameter_override = n_ / 2;
        systems.push_back(std::make_unique<DinersSystem>(std::move(*g), config));
      }
      {
        Scope s(tracer, "fault.corrupt");
        diners::util::Xoshiro256 rng(
            diners::util::derive_seed(seed, kCorruptStream));
        diners::fault::corrupt_global_state(*systems.back(), rng);
      }
      {
        Scope s(tracer, "analysis.harness_build");
        an::HarnessOptions options;
        options.daemon = "round-robin";
        options.engine_kind = diners::sim::EngineKind::kFlat;
        options.seed = diners::util::derive_seed(seed, kHarnessStream);
        harnesses.push_back(std::make_unique<an::ExperimentHarness>(
            *systems.back(), diners::fault::make_workload("saturation", seed),
            diners::fault::CrashPlan{}, options));
      }
    }

    phases.begin_run();
    std::vector<std::uint64_t> steps(kTrials, 0);
    std::vector<std::size_t> violations(kTrials, 0);
    std::vector<bool> converged(kTrials, false);
    std::uint64_t oracle_calls = 0;
    for (int t = 0; t < kTrials; ++t) {
      DinersSystem& system = *systems[t];
      converged[t] = oracle(tracer, system);
      ++oracle_calls;
      while (!converged[t] && steps[t] < budget_) {
        const double round_start = now_s();
        {
          Scope s(tracer, "core.step");
          steps[t] += harnesses[t]
                          ->run(std::min(burst_, budget_ - steps[t]))
                          .steps_executed;
        }
        converged[t] = oracle(tracer, system);
        ++oracle_calls;
        it.op_ms.push_back((now_s() - round_start) * 1e3);
      }
      Scope s(tracer, "analysis.verdict");
      violations[t] = an::eating_violation_count(system);
    }
    phases.end(it);

    double total_steps = 0.0;
    double meals = 0.0;
    for (int t = 0; t < kTrials; ++t) {
      const std::string tag = "e1-ring trial " + std::to_string(t);
      if (!converged[t]) {
        it.fail(tag + ": I not reached within " + std::to_string(budget_) +
                " steps");
      }
      if (violations[t] != 0) {
        it.fail(tag + ": " + std::to_string(violations[t]) +
                " eating violations left at the verdict");
      }
      it.ops_failed += !converged[t] || violations[t] != 0;
      total_steps += static_cast<double>(steps[t]);
      meals += static_cast<double>(systems[t]->total_meals());
      it.fingerprint["analysis.steps_to_i." + std::to_string(t)] =
          static_cast<double>(steps[t]);
    }
    it.ops_attempted = kTrials;
    it.ops_per_s = static_cast<double>(it.op_ms.size()) / it.run_s;

    it.layer["core.steps"] = total_steps;
    it.layer["core.meals"] = meals;
    it.layer["analysis.oracle_calls"] = static_cast<double>(oracle_calls);
    it.layer["analysis.oracle_processes"] =
        static_cast<double>(oracle_calls) * n_;
    it.layer["analysis.steps_to_i"] = total_steps / kTrials;
    it.fingerprint["core.meals"] = meals;
    it.fingerprint["core.steps"] = total_steps;
    return it;
  }

 private:
  std::uint64_t seed_;
  std::uint32_t n_;
  std::uint64_t burst_;
  std::uint64_t budget_;
};

}  // namespace

std::unique_ptr<Workload> make_e1_ring(const Params& params) {
  return std::make_unique<E1Ring>(params);
}

}  // namespace perfbench
