#include "analysis/invariants.hpp"

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/figure2.hpp"
#include "core/flat_engine.hpp"
#include "fault/injector.hpp"
#include "graph/generators.hpp"
#include "runtime/engine.hpp"
#include "util/rng.hpp"

namespace diners::analysis {
namespace {

using core::DinerState;
using core::DinersSystem;
using P = DinersSystem::ProcessId;

TEST(NC, HoldsInInitialState) {
  DinersSystem s(graph::make_ring(6));
  EXPECT_TRUE(holds_nc(s));
}

TEST(NC, DetectsSeededCycle) {
  DinersSystem s(graph::make_ring(4));
  for (P p = 0; p < 4; ++p) s.set_priority(p, (p + 1) % 4, p);
  EXPECT_FALSE(holds_nc(s));
}

TEST(NC, DeadProcessExcusesCycle) {
  DinersSystem s(graph::make_ring(4));
  for (P p = 0; p < 4; ++p) s.set_priority(p, (p + 1) % 4, p);
  s.crash(2);
  EXPECT_TRUE(holds_nc(s));
}

TEST(E, HoldsWhenNoNeighborsEat) {
  DinersSystem s(graph::make_path(4));
  s.set_state(0, DinerState::kEating);
  s.set_state(2, DinerState::kEating);  // not neighbors
  EXPECT_TRUE(holds_e(s));
  EXPECT_EQ(eating_violation_count(s), 0u);
}

TEST(E, DetectsEatingNeighbors) {
  DinersSystem s(graph::make_path(4));
  s.set_state(1, DinerState::kEating);
  s.set_state(2, DinerState::kEating);
  EXPECT_FALSE(holds_e(s));
  EXPECT_EQ(eating_violation_count(s), 1u);
}

TEST(E, BothDeadNeighborsExcused) {
  DinersSystem s(graph::make_path(4));
  s.set_state(1, DinerState::kEating);
  s.set_state(2, DinerState::kEating);
  s.crash(1);
  EXPECT_FALSE(holds_e(s));  // one live endpoint still counts
  s.crash(2);
  EXPECT_TRUE(holds_e(s));
}

TEST(ST, HoldsInInitialStateOnTrees) {
  // On trees every simple path is at most the diameter, so the id-order
  // initial orientation with zero depths is shallow everywhere.
  EXPECT_TRUE(holds_st(DinersSystem(graph::make_path(8))));
  EXPECT_TRUE(holds_st(DinersSystem(graph::make_star(8))));
  EXPECT_TRUE(holds_st(DinersSystem(graph::make_binary_tree(15))));
}

TEST(ST, ViolatedByOverDeepProcess) {
  DinersSystem s(graph::make_path(4));  // D = 3
  s.set_depth(1, 9);
  EXPECT_FALSE(holds_st(s));
}

TEST(ST, DeadProcessIsShallowButItsFrozenDepthPoisonsLiveAncestors) {
  // The dead process itself is stably shallow by definition, but a live
  // ancestor reading its frozen over-deep value is not — it must escape by
  // a (spurious) exit, after which the toxic edge points the other way and
  // ST converges.
  DinersSystem s(graph::make_path(4));  // 0 -> 1 -> 2 -> 3, D = 3
  s.set_depth(1, 9);
  s.crash(1);
  const auto stable = stably_shallow_processes(s);
  EXPECT_TRUE(stable[1]);   // dead
  EXPECT_FALSE(stable[0]);  // 1 is 0's descendant with frozen depth 9
  EXPECT_FALSE(holds_st(s));
  sim::Engine engine(s, sim::make_daemon("round-robin", 1), 64);
  engine.run(5000);
  EXPECT_TRUE(holds_st(s));  // 0 exited; the 0-1 edge now points at 0
  EXPECT_TRUE(s.is_direct_ancestor(1, 0));
}

TEST(ST, ShallowButUnstableIsNotStable) {
  // 0 -> 1 -> 2 -> 3 (id orientation). Make the sink 3 deep; its ancestors
  // are shallow themselves but reach a deep descendant.
  DinersSystem s(graph::make_path(4));
  s.set_depth(3, 5);  // depth > D = 3: 3 is deep
  const auto shallow = shallow_processes(s);
  const auto stable = stably_shallow_processes(s);
  EXPECT_FALSE(shallow[3]);
  EXPECT_FALSE(stable[3]);
  EXPECT_FALSE(stable[2]);  // reaches deep 3
  EXPECT_FALSE(stable[0]);
}

TEST(ST, FixdepthDisabledDisjunctCounts) {
  // Descendant deeper than D would suggest trouble, but if p's depth is
  // already past it, p's fixdepth is disabled and p can stay shallow.
  DinersSystem s(graph::make_path(3));  // D = 2, orientation 0->1->2
  s.set_depth(2, 1);
  s.set_depth(1, 2);
  s.set_depth(0, 2);
  // SH(1): depth 2 <= 2; desc 2: depth 1 + l(1)=2 = 3 > 2 but 1+1 <= 2. OK.
  const auto shallow = shallow_processes(s);
  EXPECT_TRUE(shallow[1]);
}

TEST(Invariant, InitialTreeStateSatisfiesI) {
  DinersSystem s(graph::make_path(6));
  EXPECT_TRUE(holds_invariant(s));
}

TEST(Invariant, ClosedUnderExecutionOnTree) {
  // Run from a legitimate state; I must hold at every step (closure,
  // Theorem 1's closed half).
  DinersSystem s(graph::make_path(6));
  ASSERT_TRUE(holds_invariant(s));
  sim::Engine engine(s, sim::make_daemon("random", 5), 64);
  for (int i = 0; i < 2000; ++i) {
    if (!engine.step()) break;
    ASSERT_TRUE(holds_invariant(s)) << "I broken at step " << i;
  }
}

TEST(Invariant, ClosedUnderExecutionWithCrash) {
  DinersSystem s(graph::make_star(7));
  ASSERT_TRUE(holds_invariant(s));
  sim::Engine engine(s, sim::make_daemon("random", 6), 64);
  engine.run(200);
  s.crash(0);  // benign crash of the hub
  engine.reset_ages();
  for (int i = 0; i < 2000; ++i) {
    if (!engine.step()) break;
    ASSERT_TRUE(holds_invariant(s)) << "I broken at step " << i;
  }
}

TEST(Invariant, RegressionK3ClosureWitnessUnderPaperThreshold) {
  // The exact counterexample from the model checker (EXPERIMENTS.md E1):
  // on K3 with the paper's D = 1, the state [order 0>1>2, depths (1,0,-1),
  // process 2 eating] satisfies I, yet 2's ordinary exit breaks ST. This
  // pins the erratum to a 3-line witness; under the sound threshold D = 2
  // the same transition preserves I.
  {
    DinersSystem s(graph::make_ring(3));  // paper threshold: D = 1
    s.set_depth(0, 1);
    s.set_depth(1, 0);
    s.set_depth(2, -1);
    s.set_state(2, DinerState::kEating);
    ASSERT_TRUE(holds_invariant(s));
    s.execute(2, DinersSystem::kExit);
    EXPECT_FALSE(holds_st(s));  // process 1 became deep
    EXPECT_FALSE(holds_invariant(s));
  }
  {
    core::DinersConfig cfg;
    cfg.diameter_override = 2;  // sound threshold
    DinersSystem s(graph::make_ring(3), cfg);
    s.set_depth(0, 1);
    s.set_depth(1, 0);
    s.set_depth(2, -1);
    s.set_state(2, DinerState::kEating);
    ASSERT_TRUE(holds_invariant(s));
    s.execute(2, DinersSystem::kExit);
    EXPECT_TRUE(holds_invariant(s));
  }
}

TEST(Invariant, ClosedUnderEveryDaemon) {
  // Closure of I (Theorem 1's closed half) must not depend on the schedule:
  // from a legitimate hungry start under the sound threshold, every one of
  // the four daemons keeps I at every step.
  for (const char* daemon :
       {"round-robin", "random", "adversarial-age", "biased"}) {
    core::DinersConfig cfg;
    cfg.diameter_override = 5;  // sound threshold n - 1 for ring-6
    DinersSystem s(graph::make_ring(6), cfg);
    for (P p = 0; p < 6; ++p) s.set_needs(p, true);
    ASSERT_TRUE(holds_invariant(s)) << daemon;
    sim::Engine engine(s, sim::make_daemon(daemon, 9), 64);
    for (int i = 0; i < 1500; ++i) {
      if (!engine.step()) break;
      ASSERT_TRUE(holds_invariant(s))
          << "I broken at step " << i << " under daemon " << daemon;
    }
  }
}

TEST(ShallowContext, MatchesTheNaivePredicatesOnCorruptedStates) {
  // Differential test for the memoized path: on random graphs and random
  // corrupted states (including crashes), every context overload agrees
  // with its naive counterpart.
  util::Xoshiro256 rng(21);
  for (int round = 0; round < 8; ++round) {
    DinersSystem s(graph::make_connected_gnp(7, 0.35, 100 + round));
    ShallowContext ctx(s);
    for (int trial = 0; trial < 25; ++trial) {
      fault::corrupt_global_state(s, rng);
      if (trial == 10) s.crash(static_cast<P>(round % 7));
      ctx.refresh(s);  // priorities (and possibly alive) changed
      EXPECT_EQ(holds_nc(s, ctx), holds_nc(s));
      EXPECT_EQ(shallow_processes(s, ctx), shallow_processes(s));
      EXPECT_EQ(stably_shallow_processes(s, ctx),
                stably_shallow_processes(s));
      EXPECT_EQ(holds_st(s, ctx), holds_st(s));
      EXPECT_EQ(holds_invariant(s, ctx), holds_invariant(s));
    }
  }
}

TEST(ShallowContext, SurvivesStateAndDepthWritesWithoutRefresh) {
  // The documented validity contract: state/depth writes do not invalidate
  // the context.
  DinersSystem s(graph::make_path(5));
  ShallowContext ctx(s);
  s.set_depth(2, 9);
  s.set_state(1, DinerState::kEating);
  EXPECT_EQ(holds_st(s, ctx), holds_st(s));
  EXPECT_EQ(holds_invariant(s, ctx), holds_invariant(s));
}

TEST(Invariant, Figure2FrameIsTransientAndGetsRepaired) {
  // The figure's first frame violates NC (the e-f-g cycle has no dead
  // member): it is a transient-fault state the algorithm then repairs.
  auto s = core::make_figure2_system();
  EXPECT_FALSE(holds_nc(s));
  sim::Engine engine(s, sim::make_daemon("round-robin", 1), 64);
  engine.run(3000);
  EXPECT_TRUE(holds_nc(s));
  EXPECT_TRUE(holds_e(s));
}

// --- differential pin: flat oracle vs the orientation-based reference ----
//
// The reference is the textbook form of each predicate, as the library
// computed them before the flat oracle: the priority graph as ancestor
// lists (DinersSystem::orientation), NC by DFS cycle search, l:p by
// graph::longest_live_ancestor_chain, ST as "every process stably shallow"
// with an explicit reach-a-deep-process BFS. Every naive entry point and
// every context overload must agree with it on every state, verdict by
// verdict and element by element.

namespace ref {

bool nc(const DinersSystem& s) {
  return !graph::has_directed_cycle(s.orientation(), s.alive_fn());
}

std::vector<std::uint32_t> chain(const DinersSystem& s) {
  return graph::longest_live_ancestor_chain(s.orientation(), s.alive_fn());
}

std::vector<bool> shallow(const DinersSystem& s) {
  const auto n = s.topology().num_nodes();
  const auto l = chain(s);
  const auto d = static_cast<std::int64_t>(s.diameter_constant());
  std::vector<bool> out(n, true);
  for (P p = 0; p < n; ++p) {
    if (!s.alive(p)) continue;
    bool ok = s.depth(p) <= d;
    for (P q : s.direct_descendants(p)) {
      const bool cannot_overflow =
          l[p] != graph::kUnreachable &&
          s.depth(q) + static_cast<std::int64_t>(l[p]) <= d;
      ok = ok && (cannot_overflow || s.depth(q) + 1 <= s.depth(p));
    }
    out[p] = ok;
  }
  return out;
}

std::vector<bool> stable(const DinersSystem& s) {
  const auto n = s.topology().num_nodes();
  const auto sh = shallow(s);
  std::vector<bool> reaches_deep(n, false);
  std::vector<P> queue;
  for (P p = 0; p < n; ++p) {
    if (s.alive(p) && !sh[p]) {
      reaches_deep[p] = true;
      queue.push_back(p);
    }
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    for (P anc : s.direct_ancestors(queue[head])) {
      if (!reaches_deep[anc]) {
        reaches_deep[anc] = true;
        queue.push_back(anc);
      }
    }
  }
  std::vector<bool> out(n);
  for (P p = 0; p < n; ++p) {
    out[p] = !s.alive(p) || (sh[p] && !reaches_deep[p]);
  }
  return out;
}

bool st(const DinersSystem& s) {
  for (bool b : stable(s)) {
    if (!b) return false;
  }
  return true;
}

std::size_t violations(const DinersSystem& s) {
  std::size_t count = 0;
  for (const auto& e : s.topology().edges()) {
    if (s.state(e.u) == DinerState::kEating &&
        s.state(e.v) == DinerState::kEating && (s.alive(e.u) || s.alive(e.v))) {
      ++count;
    }
  }
  return count;
}

}  // namespace ref

/// Compares every predicate with the reference on one state, naive and
/// through a context, and tallies the states seen, the mismatches, and how
/// often each verdict came out true (so a battery cannot pass by only ever
/// seeing one side). The context is reused across states and systems of
/// different sizes, so refresh() is exercised on grown and shrunk arrays.
struct Differ {
  std::size_t states = 0;
  std::size_t mismatches = 0;
  std::size_t nc_true = 0;
  std::size_t st_true = 0;
  std::size_t inv_true = 0;
  ShallowContext ctx;

  void check(const DinersSystem& s, const std::string& where) {
    ctx.refresh(s);
    compare(s, ctx, where);
  }

  /// Compares with `c` as it stands (no refresh), for the validity
  /// contract.
  void compare(const DinersSystem& s, const ShallowContext& c,
               const std::string& where) {
    ++states;
    const bool nc = ref::nc(s);
    const bool st = ref::st(s);
    const std::size_t viol = ref::violations(s);
    const bool inv = nc && st && viol == 0;
    const auto shallow = ref::shallow(s);
    const auto stable = ref::stable(s);
    nc_true += nc;
    st_true += st;
    inv_true += inv;
    const bool naive = holds_nc(s) == nc && holds_st(s) == st &&
                       holds_e(s) == (viol == 0) &&
                       holds_invariant(s) == inv &&
                       eating_violation_count(s) == viol &&
                       shallow_processes(s) == shallow &&
                       stably_shallow_processes(s) == stable;
    const bool context = holds_nc(s, c) == nc && holds_st(s, c) == st &&
                         holds_invariant(s, c) == inv &&
                         shallow_processes(s, c) == shallow &&
                         stably_shallow_processes(s, c) == stable &&
                         c.chain() == ref::chain(s);
    if ((!naive || !context) && ++mismatches <= 5) {
      ADD_FAILURE() << "flat oracle disagrees with the reference at " << where
                    << " (naive " << (naive ? "ok" : "differs") << ", context "
                    << (context ? "ok" : "differs") << "; reference NC=" << nc
                    << " ST=" << st << " violations=" << viol << ")";
    }
  }
};

struct Topology {
  const char* name;
  graph::Graph g;
};

std::vector<Topology> topologies() {
  std::vector<Topology> out;
  out.push_back({"ring12", graph::make_ring(12)});
  out.push_back({"ring5", graph::make_ring(5)});
  out.push_back({"star9", graph::make_star(9)});
  out.push_back({"grid4x4", graph::make_grid(4, 4)});
  out.push_back({"caterpillar5x2", graph::make_caterpillar(5, 2)});
  out.push_back({"complete6", graph::make_complete(6)});
  out.push_back({"gnp12", graph::make_connected_gnp(12, 0.3, 7)});
  out.push_back({"gnp16", graph::make_connected_gnp(16, 0.2, 8)});
  return out;
}

/// Corrupts every variable; the depth slack varies so that both deep and
/// shallow processes are common.
void corrupt(DinersSystem& s, util::Xoshiro256& rng) {
  fault::CorruptionOptions options;
  options.depth_slack = static_cast<std::int64_t>(rng.below(4));
  fault::corrupt_global_state(s, rng, options);
}

/// Orients a live priority cycle through `cycle` (consecutive members must
/// be neighbors): each member becomes the ancestor of the next.
void orient_cycle(DinersSystem& s, const std::vector<P>& cycle) {
  for (std::size_t i = 0; i < cycle.size(); ++i) {
    s.set_priority(cycle[i], cycle[(i + 1) % cycle.size()], cycle[i]);
  }
}

TEST(FlatOracleDifferential, CorruptedStatesWithZeroToTwoCrashes) {
  util::Xoshiro256 rng(2024);
  Differ diff;
  for (const auto& topo : topologies()) {
    const auto n = topo.g.num_nodes();
    for (int trial = 0; trial < 3000; ++trial) {
      DinersSystem s(topo.g);
      corrupt(s, rng);
      const auto crashes = rng.below(3);
      for (std::uint64_t c = 0; c < crashes; ++c) {
        s.crash(static_cast<P>(rng.below(n)));
      }
      diff.check(s, std::string(topo.name) + " trial " +
                        std::to_string(trial));
    }
  }
  EXPECT_EQ(diff.mismatches, 0u);
  EXPECT_GE(diff.states, 24000u);
  EXPECT_GT(diff.nc_true, 0u);
  EXPECT_LT(diff.nc_true, diff.states);
  EXPECT_GT(diff.st_true, 0u);
  EXPECT_LT(diff.st_true, diff.states);
}

TEST(FlatOracleDifferential, DeadCycleMemberAndFrozenOverDeepDescendant) {
  // A cycle excused by a dead member (NC holds, and the chain through the
  // dead member is cut), and a dead descendant whose frozen depth exceeds
  // D so that its live ancestors are not shallow. The rest of the state is
  // random.
  util::Xoshiro256 rng(77);
  Differ diff;
  for (const auto& topo : {Topology{"ring8", graph::make_ring(8)},
                           Topology{"complete5", graph::make_complete(5)},
                           Topology{"grid3x3", graph::make_grid(3, 3)}}) {
    // A cycle of neighbors in each topology: the whole ring, a triangle,
    // a grid square.
    const std::vector<P> cycle =
        topo.g.num_nodes() == 8   ? std::vector<P>{0, 1, 2, 3, 4, 5, 6, 7}
        : topo.g.num_nodes() == 5 ? std::vector<P>{0, 1, 2}
                                  : std::vector<P>{0, 1, 4, 3};
    for (int trial = 0; trial < 1500; ++trial) {
      DinersSystem s(topo.g);
      corrupt(s, rng);
      orient_cycle(s, cycle);
      const P dead = cycle[rng.below(cycle.size())];
      s.crash(dead);
      // The whole ring is the ring's only cycle, and it has a dead member.
      if (cycle.size() == topo.g.num_nodes()) {
        EXPECT_TRUE(holds_nc(s));
      }
      diff.check(s, std::string(topo.name) + " dead cycle member, trial " +
                        std::to_string(trial));
      // A second dead process, frozen over-deep below a live ancestor.
      const P frozen = static_cast<P>(rng.below(topo.g.num_nodes()));
      const auto& nbrs = topo.g.neighbors(frozen);
      const P anc = nbrs[rng.below(nbrs.size())];
      s.set_priority(anc, frozen, anc);
      s.set_depth(frozen, s.diameter_constant() + 1 + rng.below(4));
      s.crash(frozen);
      diff.check(s, std::string(topo.name) + " frozen deep, trial " +
                        std::to_string(trial));
      if (s.alive(anc)) {
        EXPECT_FALSE(stably_shallow_processes(s)[anc]);
        EXPECT_FALSE(holds_st(s));
      }
    }
  }
  EXPECT_EQ(diff.mismatches, 0u);
  EXPECT_GE(diff.states, 9000u);
}

TEST(FlatOracleDifferential, StatesAlongFlatEngineConvergence) {
  // Every third step of the flat engine converging from a corrupted start,
  // with a crash part-way through on odd trials, until I has held for a
  // while.
  util::Xoshiro256 rng(5);
  Differ diff;
  for (const auto& topo : topologies()) {
    for (const char* daemon : {"round-robin", "random", "adversarial-age"}) {
      for (int trial = 0; trial < 4; ++trial) {
        core::DinersConfig config;
        config.diameter_override = topo.g.num_nodes() - 1;  // sound D
        DinersSystem s(topo.g, config);
        corrupt(s, rng);
        core::FlatEngine engine(s, daemon, rng.next());
        int checks_after_i = 0;
        for (int step = 0; step < 6000 && checks_after_i < 40; ++step) {
          if (trial % 2 == 1 && step == 30) {
            s.crash(static_cast<P>(rng.below(topo.g.num_nodes())));
            engine.invalidate_all();
          }
          if (!engine.step()) break;
          if (step % 3 != 0) continue;
          diff.check(s, std::string(topo.name) + " " + daemon + " step " +
                            std::to_string(step));
          if (holds_invariant(s)) ++checks_after_i;
        }
      }
    }
  }
  EXPECT_EQ(diff.mismatches, 0u);
  EXPECT_GE(diff.states, 8000u);
  EXPECT_GT(diff.inv_true, 0u);
}

TEST(FlatOracleDifferential, LivePriorityCycleLeavesSTToItself) {
  // NC fails, so holds_invariant stops at the peel; ST is then judged on
  // its own, with l:p unbounded on and below the cycle. A caterpillar,
  // which has no cycle, supplies states where NC holds whatever the
  // orientation.
  util::Xoshiro256 rng(99);
  Differ diff;
  const std::vector<std::pair<graph::Graph, std::vector<P>>> cases = {
      {graph::make_ring(6), {0, 1, 2, 3, 4, 5}},
      {graph::make_complete(6), {0, 2, 4}},
      {graph::make_grid(4, 4), {5, 6, 10, 9}},
      {graph::make_caterpillar(4, 2), {}},
  };
  for (const auto& [g, cycle] : cases) {
    for (int trial = 0; trial < 2500; ++trial) {
      DinersSystem s(g);
      corrupt(s, rng);
      if (cycle.empty()) {
        // A tree has no cycle: the depths alone decide ST.
        for (P p = 0; p < g.num_nodes(); ++p) {
          s.set_depth(p, static_cast<std::int64_t>(rng.below(3)));
        }
      } else {
        orient_cycle(s, cycle);
        // Shallow-looking depths, so that only the unbounded chain can
        // make a process deep.
        for (P p = 0; p < g.num_nodes(); ++p) {
          s.set_depth(p, -static_cast<std::int64_t>(rng.below(3)));
        }
        EXPECT_FALSE(holds_nc(s));
        EXPECT_FALSE(holds_invariant(s));
      }
      diff.check(s, "cycle case trial " + std::to_string(trial));
    }
  }
  EXPECT_EQ(diff.mismatches, 0u);
  EXPECT_GE(diff.states, 10000u);
  EXPECT_GT(diff.st_true, 0u);  // the tree states
  EXPECT_GE(diff.states - diff.nc_true, 7500u);
}

TEST(FlatOracleDifferential, RestartAfterCrashThenRefresh) {
  // Crash a process mid-convergence, run on, then restart it: each change
  // of the alive set and the restart's priority writes are followed by a
  // refresh(). Between them, the engine's own state and depth writes are
  // compared against a context that is NOT refreshed when no step wrote a
  // priority, which is the documented validity contract.
  util::Xoshiro256 rng(31);
  Differ diff;
  for (const auto& topo : topologies()) {
    const auto n = topo.g.num_nodes();
    for (int trial = 0; trial < 12; ++trial) {
      core::DinersConfig config;
      config.diameter_override = n - 1;
      DinersSystem s(topo.g, config);
      corrupt(s, rng);
      core::FlatEngine engine(s, "random", rng.next());
      const P victim = static_cast<P>(rng.below(n));
      ShallowContext held(s);
      for (int step = 0; step < 1500; ++step) {
        if (step == 200) s.crash(victim);
        if (step == 700) s.restart(victim);
        if (step == 200 || step == 700) {
          engine.invalidate_all();
          held.refresh(s);
          diff.check(s, std::string(topo.name) + " after " +
                            (step == 200 ? "crash" : "restart"));
        }
        const auto before = std::vector<P>(s.priorities().begin(),
                                           s.priorities().end());
        // A quiescent system (every needs flag corrupted to false) still
        // gets its crash and restart.
        if (!engine.step()) continue;
        const bool priority_written =
            !std::equal(before.begin(), before.end(), s.priorities().begin());
        if (priority_written) {
          held.refresh(s);
        } else {
          diff.compare(s, held, std::string(topo.name) +
                                    " unrefreshed context, step " +
                                    std::to_string(step));
        }
      }
      EXPECT_TRUE(s.alive(victim));
    }
  }
  EXPECT_EQ(diff.mismatches, 0u);
  EXPECT_GE(diff.states, 10000u);
  EXPECT_GT(diff.inv_true, 0u);
}

}  // namespace
}  // namespace diners::analysis
