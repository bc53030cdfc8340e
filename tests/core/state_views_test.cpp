// The read-only span accessors of DinersSystem (states, depths, alive_flags,
// priorities) alias the live store: a view fetched once shows every later
// mutator's write, with no re-fetch.
#include <gtest/gtest.h>

#include "core/diners_system.hpp"
#include "graph/generators.hpp"

namespace diners::core {
namespace {

using P = DinersSystem::ProcessId;

/// Index of edge {p, q} in priorities(), via the CSR row of p.
graph::EdgeId edge_of(const DinersSystem& s, P p, P q) {
  const auto& csr = s.csr();
  for (std::uint32_t i = csr.begin(p); i < csr.end(p); ++i) {
    if (csr.neighbors()[i] == q) return csr.edge_ids()[i];
  }
  ADD_FAILURE() << p << " and " << q << " are not neighbors";
  return 0;
}

TEST(StateViews, SpansCoverTheWholeStore) {
  const DinersSystem s(graph::make_grid(3, 4));
  EXPECT_EQ(s.states().size(), 12u);
  EXPECT_EQ(s.depths().size(), 12u);
  EXPECT_EQ(s.alive_flags().size(), 12u);
  EXPECT_EQ(s.priorities().size(), s.topology().num_edges());
  for (P p = 0; p < 12; ++p) {
    EXPECT_EQ(s.states()[p], s.state(p));
    EXPECT_EQ(s.depths()[p], s.depth(p));
    EXPECT_EQ(s.alive_flags()[p] != 0, s.alive(p));
    for (P q : s.topology().neighbors(p)) {
      EXPECT_EQ(s.priorities()[edge_of(s, p, q)], s.priority(p, q));
    }
  }
}

TEST(StateViews, EveryMutatorShowsThroughWithoutRefetch) {
  DinersSystem s(graph::make_ring(6));
  const auto states = s.states();
  const auto depths = s.depths();
  const auto alive = s.alive_flags();
  const auto prio = s.priorities();
  const auto e23 = edge_of(s, 2, 3);

  s.set_state(1, DinerState::kEating);
  EXPECT_EQ(states[1], DinerState::kEating);

  s.set_depth(4, -7);
  EXPECT_EQ(depths[4], -7);

  EXPECT_EQ(prio[e23], 2u);  // id order: 2 is the ancestor
  s.set_priority(2, 3, 3);
  EXPECT_EQ(prio[e23], 3u);

  s.crash(3);
  EXPECT_EQ(alive[3], 0u);
  EXPECT_EQ(s.dead_count(), 1u);

  // restart resets 3 to thinking at depth 0 and yields every incident edge
  // to the neighbor.
  s.set_state(3, DinerState::kHungry);
  s.set_depth(3, 5);
  s.restart(3);
  EXPECT_EQ(alive[3], 1u);
  EXPECT_EQ(states[3], DinerState::kThinking);
  EXPECT_EQ(depths[3], 0);
  EXPECT_EQ(prio[e23], 2u);
  EXPECT_EQ(prio[edge_of(s, 3, 4)], 4u);
}

}  // namespace
}  // namespace diners::core
