// Differential proof that core::FlatEngine — the structure-of-arrays
// substrate — is observationally identical to the object-model sim::Engine,
// which stays pinned as the reference oracle: same StepRecord trace, byte
// for byte, on the paper's algorithm across topology families, all four
// daemons, and fault schedules — including mid-run malicious crashes,
// global corruption, crash-restart rejoin, and workload churn, announced
// through reset_ages()/invalidate_all() per the external-mutation contract.
// Multi-block inputs (n > 64: a 300-process star, a 65-ring whose second
// 64-process block holds one process) pin the rebuild's per-block word
// packing across block and word boundaries.
#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/diners_system.hpp"
#include "core/flat_engine.hpp"
#include "fault/injector.hpp"
#include "graph/generators.hpp"
#include "runtime/daemon.hpp"
#include "runtime/engine.hpp"
#include "util/rng.hpp"

namespace diners::core {
namespace {

// --- trace capture --------------------------------------------------------

std::string format(const sim::StepRecord& r) {
  std::ostringstream out;
  out << r.step << ':' << r.process << ':' << r.action << ':' << r.action_name;
  return out.str();
}

struct FaultSchedule {
  std::vector<fault::CrashEvent> crashes;   ///< applied via reset_ages()
  std::uint64_t corrupt_at = 0;             ///< 0 = never; via reset_ages()
  std::uint64_t toggle_every = 0;           ///< 0 = never; via invalidate_all()
  std::uint64_t restart_at = 0;             ///< 0 = never; revives victim 0
};

/// Runs the paper's algorithm for `steps` scheduler steps on the given
/// engine kind and returns the serialized trace. Everything (graph, daemon
/// seed, rng streams, fault schedule) is reconstructed identically per call
/// so both engines see the same inputs.
std::vector<std::string> run_diners(const graph::Graph& g,
                                    const std::string& daemon,
                                    const FaultSchedule& faults,
                                    std::uint64_t steps, sim::EngineKind kind,
                                    unsigned rebuild_jobs = 1) {
  DinersSystem system(g);
  std::unique_ptr<sim::EngineBase> engine;
  if (kind == sim::EngineKind::kFlat) {
    engine = std::make_unique<FlatEngine>(system, daemon, /*daemon_seed=*/7,
                                          /*fairness_bound=*/64, rebuild_jobs);
  } else {
    engine = std::make_unique<sim::Engine>(
        system, sim::make_daemon(daemon, /*seed=*/7), /*fairness_bound=*/64);
  }
  std::vector<std::string> trace;
  engine->add_observer(
      [&](const sim::StepRecord& r) { trace.push_back(format(r)); });

  fault::CrashPlan plan(faults.crashes);
  util::Xoshiro256 crash_rng(21);
  util::Xoshiro256 corrupt_rng(22);
  bool corrupted = false;
  bool restarted = false;
  for (std::uint64_t s = 0; s < steps; ++s) {
    if (plan.apply_due(system, engine->steps(), crash_rng) > 0) {
      engine->reset_ages();
    }
    if (faults.corrupt_at != 0 && !corrupted &&
        engine->steps() >= faults.corrupt_at) {
      fault::corrupt_global_state(system, corrupt_rng);
      engine->reset_ages();
      corrupted = true;
    }
    if (faults.restart_at != 0 && !restarted &&
        engine->steps() >= faults.restart_at && !faults.crashes.empty()) {
      system.restart(faults.crashes.front().process);
      engine->reset_ages();
      restarted = true;
    }
    if (faults.toggle_every != 0 && engine->steps() > 0 &&
        engine->steps() % faults.toggle_every == 0) {
      const auto p = static_cast<DinersSystem::ProcessId>(
          engine->steps() / faults.toggle_every % g.num_nodes());
      system.set_needs(p, !system.needs(p));
      engine->invalidate_all();
    }
    if (!engine->step()) break;
  }
  return trace;
}

void expect_identical_traces(const graph::Graph& g, const std::string& daemon,
                             const FaultSchedule& faults,
                             std::uint64_t steps) {
  const auto object =
      run_diners(g, daemon, faults, steps, sim::EngineKind::kObject);
  const auto flat = run_diners(g, daemon, faults, steps, sim::EngineKind::kFlat);
  ASSERT_EQ(object.size(), flat.size()) << "daemon: " << daemon;
  for (std::size_t i = 0; i < flat.size(); ++i) {
    ASSERT_EQ(object[i], flat[i])
        << "daemon: " << daemon << ", first divergence at trace index " << i;
  }
}

const char* const kDaemons[] = {"round-robin", "random", "adversarial-age",
                                "biased"};

// --- differential suite: three topology families × four daemons ----------

TEST(FlatEngineDifferential, RingAllDaemonsFaultFree) {
  const auto g = graph::make_ring(24);
  for (const auto* daemon : kDaemons) {
    expect_identical_traces(g, daemon, {}, 3000);
  }
}

TEST(FlatEngineDifferential, GridAllDaemonsFaultFree) {
  const auto g = graph::make_grid(6, 4);
  for (const auto* daemon : kDaemons) {
    expect_identical_traces(g, daemon, {}, 3000);
  }
}

TEST(FlatEngineDifferential, GnpAllDaemonsFaultFree) {
  const auto g = graph::make_connected_gnp(20, 0.15, /*seed=*/5);
  for (const auto* daemon : kDaemons) {
    expect_identical_traces(g, daemon, {}, 3000);
  }
}

TEST(FlatEngineDifferential, RingWithMaliciousCrashes) {
  const auto g = graph::make_ring(24);
  FaultSchedule faults;
  faults.crashes = {fault::CrashEvent{200, 3, 16},
                    fault::CrashEvent{500, 11, 0}};
  for (const auto* daemon : kDaemons) {
    expect_identical_traces(g, daemon, faults, 3000);
  }
}

TEST(FlatEngineDifferential, GridWithMaliciousCrashes) {
  const auto g = graph::make_grid(6, 4);
  FaultSchedule faults;
  faults.crashes = {fault::CrashEvent{150, 9, 32},
                    fault::CrashEvent{400, 20, 8}};
  for (const auto* daemon : kDaemons) {
    expect_identical_traces(g, daemon, faults, 3000);
  }
}

TEST(FlatEngineDifferential, GnpWithGlobalCorruptionAndCrash) {
  const auto g = graph::make_connected_gnp(20, 0.15, /*seed=*/5);
  FaultSchedule faults;
  faults.crashes = {fault::CrashEvent{700, 4, 12}};
  faults.corrupt_at = 300;
  for (const auto* daemon : kDaemons) {
    expect_identical_traces(g, daemon, faults, 3000);
  }
}

TEST(FlatEngineDifferential, RingWithCrashRestartRejoin) {
  const auto g = graph::make_ring(24);
  FaultSchedule faults;
  faults.crashes = {fault::CrashEvent{200, 5, 24}};
  faults.restart_at = 900;
  for (const auto* daemon : kDaemons) {
    expect_identical_traces(g, daemon, faults, 3000);
  }
}

TEST(FlatEngineDifferential, RingWithWorkloadChurn) {
  const auto g = graph::make_ring(24);
  FaultSchedule faults;
  faults.toggle_every = 97;
  for (const auto* daemon : kDaemons) {
    expect_identical_traces(g, daemon, faults, 3000);
  }
}

TEST(FlatEngineDifferential, EverythingAtOnce) {
  const auto g = graph::make_connected_gnp(20, 0.2, /*seed=*/13);
  FaultSchedule faults;
  faults.crashes = {fault::CrashEvent{250, 2, 24},
                    fault::CrashEvent{900, 15, 0}};
  faults.corrupt_at = 600;
  faults.restart_at = 1500;
  faults.toggle_every = 113;
  for (const auto* daemon : kDaemons) {
    expect_identical_traces(g, daemon, faults, 4000);
  }
}

// --- multi-block inputs ------------------------------------------------------

TEST(FlatEngineDifferential, StarMultiBlockWithCenterCrash) {
  // Every center step dirties all 300 processes (five blocks); the center
  // is maliciously crashed, the state corrupted, then the center revived.
  const auto g = graph::make_star(300);
  FaultSchedule faults;
  faults.crashes = {fault::CrashEvent{400, 0, 16}};
  faults.corrupt_at = 900;
  faults.restart_at = 1600;
  for (const auto* daemon : kDaemons) {
    expect_identical_traces(g, daemon, faults, 2500);
  }
}

TEST(FlatEngineDifferential, RingTailBlockWithCrashAndCorruption) {
  // n = 65: the second block holds one process, whose guards are slots
  // 320..324 of word 5 — the smallest partial tail block.
  const auto g = graph::make_ring(65);
  FaultSchedule faults;
  faults.crashes = {fault::CrashEvent{300, 64, 24}};
  faults.corrupt_at = 700;
  for (const auto* daemon : kDaemons) {
    expect_identical_traces(g, daemon, faults, 2500);
  }
}

TEST(FlatEngineDifferential, SmallGnpWithCrashCorruptionRestart) {
  // n < 64: a single partial block.
  const auto g = graph::make_connected_gnp(61, 0.1, /*seed=*/9);
  FaultSchedule faults;
  faults.crashes = {fault::CrashEvent{250, 7, 12}};
  faults.corrupt_at = 600;
  faults.restart_at = 1200;
  for (const auto* daemon : kDaemons) {
    expect_identical_traces(g, daemon, faults, 2500);
  }
}

// --- sharded rebuild is trace-invariant ------------------------------------

TEST(FlatEngineDifferential, RebuildJobsDoNotChangeTraces) {
  // Corruption plus crashes force repeated full rebuilds; the sharded
  // parallel rebuild must produce the same enabled-set — and therefore the
  // same trace — at every worker count. G(20, 0.2) is one block; ring-65
  // (two) and star-300 (five) make jobs > 1 actually split the work.
  struct Input {
    graph::Graph g;
    FaultSchedule faults;
  };
  Input inputs[] = {
      {graph::make_connected_gnp(20, 0.2, /*seed=*/13), {}},
      {graph::make_ring(65), {}},
      {graph::make_star(300), {}},
  };
  inputs[0].faults.crashes = {fault::CrashEvent{250, 2, 24}};
  inputs[0].faults.corrupt_at = 600;
  inputs[1].faults.crashes = {fault::CrashEvent{300, 64, 24}};
  inputs[1].faults.corrupt_at = 700;
  inputs[2].faults.crashes = {fault::CrashEvent{400, 0, 16}};
  inputs[2].faults.corrupt_at = 900;
  inputs[2].faults.restart_at = 1600;
  for (const Input& in : inputs) {
    for (const auto* daemon : kDaemons) {
      const auto serial =
          run_diners(in.g, daemon, in.faults, 3000, sim::EngineKind::kFlat, 1);
      for (const unsigned jobs : {2u, 4u, 8u}) {
        const auto sharded = run_diners(in.g, daemon, in.faults, 3000,
                                        sim::EngineKind::kFlat, jobs);
        ASSERT_EQ(serial, sharded) << "n: " << in.g.num_nodes()
                                   << ", daemon: " << daemon
                                   << ", rebuild jobs: " << jobs;
      }
    }
  }
}

// --- enabled_count consistency -------------------------------------------

TEST(FlatEngineDifferential, EnabledCountMatchesObjectEngineThroughout) {
  // Ring-65 spans two blocks and six words, so processes straddle word
  // boundaries; a mid-run corruption forces a second full rebuild.
  const auto g = graph::make_ring(65);
  DinersSystem a(g);
  DinersSystem b(g);
  sim::Engine object(a, sim::make_daemon("round-robin", 1), 64);
  FlatEngine flat(b, "round-robin", 1, 64);
  util::Xoshiro256 rng_a(5);
  util::Xoshiro256 rng_b(5);
  for (int s = 0; s < 500; ++s) {
    if (s == 250) {
      fault::corrupt_global_state(a, rng_a);
      fault::corrupt_global_state(b, rng_b);
      object.reset_ages();
      flat.reset_ages();
    }
    ASSERT_EQ(object.enabled_count(), flat.enabled_count()) << "at step " << s;
    const auto ra = object.step();
    const auto rb = flat.step();
    ASSERT_EQ(ra.has_value(), rb.has_value());
    if (!ra) break;
  }
}

// --- engine contract corners ----------------------------------------------

TEST(FlatEngine, TerminationIsNeverCachedAcrossMutation) {
  // Drive a ring to termination (appetite off), then revive appetite with
  // the announced invalidate; the engine must pick the work back up. Cycle
  // breaking is disabled because its exit/fixdepth depth churn never
  // quiesces on a ring (an exit yields edges, handing neighbours fresh
  // descendants that re-enable their fixdepth) — with it off and appetite
  // off, no guard is enabled and the run genuinely terminates.
  DinersConfig cfg;
  cfg.enable_cycle_breaking = false;
  DinersSystem system(graph::make_ring(4), cfg);
  FlatEngine engine(system, "round-robin", 1, 64);
  for (DinersSystem::ProcessId p = 0; p < 4; ++p) system.set_needs(p, false);
  engine.invalidate_all();
  const auto result = engine.run(10000);
  EXPECT_EQ(result.outcome, sim::RunOutcome::kTerminated);
  EXPECT_EQ(engine.enabled_count(), 0u);
  EXPECT_FALSE(engine.step().has_value());
  system.set_needs(0, true);
  engine.invalidate_all();
  EXPECT_TRUE(engine.step().has_value());
}

TEST(FlatEngine, RejectsBadConstructorArguments) {
  DinersSystem system(graph::make_ring(4));
  EXPECT_THROW(FlatEngine(system, "no-such-daemon", 1, 64),
               std::invalid_argument);
  EXPECT_THROW(FlatEngine(system, "round-robin", 1, /*fairness_bound=*/0),
               std::invalid_argument);
  EXPECT_THROW(FlatEngine(system, "round-robin", 1, 64, /*rebuild_jobs=*/0),
               std::invalid_argument);
}

// --- the rebuild's block words agree with guard_mask ------------------------

TEST(FlatEngineGuardSweep, BlockMatchesGuardMaskOnEveryBackend) {
  // FlatEngine::rebuild fills each 64-process block's enabled words from
  // guard_mask, serially or sharded over rebuild_jobs; each sharding is a
  // way of filling the blocks, so each must agree with the scalar oracle.
  // Sizes cover n < 64, exact blocks, straddling tails one past a block,
  // and multi-block ranges with non-multiple-of-64 tails; dead processes
  // must contribute no enabled slots.
  const std::uint32_t sizes[] = {3, 7, 61, 64, 65, 100, 127, 128, 192};
  for (const unsigned jobs : {1u, 2u, 4u}) {
    for (const std::uint32_t n : sizes) {
      DinersSystem system(graph::make_connected_gnp(n, 0.15, /*seed=*/n));
      FlatEngine engine(system, "random", /*daemon_seed=*/n, 64, jobs);
      util::Xoshiro256 rng(util::derive_seed(n, 7));
      for (int round = 0; round < 20; ++round) {
        fault::corrupt_global_state(system, rng);
        // Crash is sticky, so kill two processes once, mid-fuzz.
        if (round == 5) {
          system.crash(n / 2);
          system.crash(n - 1);
        }
        engine.invalidate_all();
        std::vector<std::uint32_t> masks(n, 0);
        std::size_t expected = 0;
        for (DinersSystem::ProcessId p = 0; p < n; ++p) {
          if (system.alive(p)) masks[p] = system.guard_mask(p);
          expected += static_cast<std::size_t>(std::popcount(masks[p]));
        }
        ASSERT_EQ(engine.enabled_count(), expected)
            << "jobs " << jobs << " n " << n << " round " << round;
        // The daemon draws from the rebuilt words: whatever it executes
        // must be a live process's guard_mask bit.
        const auto record = engine.step();
        ASSERT_EQ(record.has_value(), expected != 0)
            << "jobs " << jobs << " n " << n << " round " << round;
        if (record) {
          ASSERT_LT(record->process, n);
          ASSERT_NE((masks[record->process] >> record->action) & 1u, 0u)
              << "jobs " << jobs << " n " << n << " round " << round
              << " process " << record->process << " action "
              << static_cast<int>(record->action);
        }
      }
    }
  }
}

// --- guard_mask agrees with enabled() on arbitrary states ------------------

TEST(GuardMask, MatchesEnabledUnderRandomCorruption) {
  // guard_mask() is the flat engine's only guard evaluator; fuzz it
  // against the per-action enabled() oracle across corrupted states,
  // including dead processes (the mask itself ignores liveness, as
  // documented — compare raw guards). Sizes cover n < 64, exact blocks,
  // one past a block, and multi-block systems.
  struct Case {
    std::uint32_t n;
    double p;
    std::uint64_t seed;
  };
  std::vector<Case> cases;
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    cases.push_back({24, 0.2, seed});
  }
  for (const std::uint32_t n : {3u, 61u, 64u, 65u, 128u, 192u}) {
    cases.push_back({n, 0.15, n});
  }
  for (const Case& c : cases) {
    DinersSystem system(graph::make_connected_gnp(c.n, c.p, c.seed));
    util::Xoshiro256 rng(util::derive_seed(c.seed, 99));
    for (int round = 0; round < 50; ++round) {
      fault::corrupt_global_state(system, rng);
      // Crash is sticky, so kill two processes once, mid-fuzz.
      if (round == 5) {
        system.crash(c.n / 2);
        system.crash(c.n - 1);
      }
      for (DinersSystem::ProcessId p = 0; p < c.n; ++p) {
        const std::uint32_t mask = system.guard_mask(p);
        for (sim::ActionIndex a = 0; a < DinersSystem::kNumActions; ++a) {
          ASSERT_EQ(((mask >> a) & 1u) != 0, system.enabled(p, a))
              << "n " << c.n << " seed " << c.seed << " round " << round
              << " process " << p << " action " << static_cast<int>(a);
        }
      }
    }
  }
}

}  // namespace
}  // namespace diners::core
