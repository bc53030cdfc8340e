// Differential battery for the fair-cycle search behind check_convergence,
// check_far_safety and check_no_starvation.
//
// The production search runs one Tarjan over the (state x frame) product,
// indexed directly as rank(s) * G + h, with the unreduced graph as the
// G = 1 case. The `reference` namespace below keeps the earlier pair of
// searches verbatim: a direct Tarjan with its own shortest-cycle BFS for
// unreduced graphs, and a product search that numbers product nodes
// through a KeyIndex hash table. Every Violation — kind, property, detail,
// state, and each cycle arc's target, move and witness — must match
// byte for byte, on real explored graphs (reduced and unreduced, every
// guard mutation, a demonic-victim crashed graph whose stabilizer has
// order 2) and on seeded random bad sets that exercise many SCC shapes.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/figure2.hpp"
#include "core/serialize.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"
#include "verify/explorer.hpp"
#include "verify/key_index.hpp"
#include "verify/mutation.hpp"
#include "verify/properties.hpp"

namespace diners::verify {
namespace {

using core::DinersConfig;
using core::DinersSystem;
using graph::NodeId;

// ---- reference: the two searches the product Tarjan replaced -------------

namespace reference {

constexpr std::uint32_t kNoMove = static_cast<std::uint32_t>(-1);

constexpr std::uint64_t join_bits() noexcept {
  std::uint64_t m = 0;
  for (unsigned pos = DinersSystem::kJoin; pos < 64;
       pos += DinersSystem::kNumActions) {
    m |= std::uint64_t{1} << pos;
  }
  return m;
}
constexpr std::uint64_t kJoinBits = join_bits();

struct FairCycle {
  std::uint32_t entry;
  std::vector<StateGraph::Arc> cycle;
  std::size_t scc_size;
};

std::vector<StateGraph::Arc> shortest_cycle(
    const StateGraph& g, const std::vector<std::uint32_t>& comp,
    std::uint32_t id, std::uint32_t excluded_move, std::uint32_t entry) {
  constexpr std::uint32_t kUnset = std::numeric_limits<std::uint32_t>::max();
  std::unordered_map<std::uint32_t, std::pair<std::uint32_t, StateGraph::Arc>>
      parent;
  std::deque<std::uint32_t> queue{entry};
  std::uint32_t closing_from = kUnset;
  StateGraph::Arc closing_arc{};
  while (!queue.empty() && closing_from == kUnset) {
    const std::uint32_t u = queue.front();
    queue.pop_front();
    for (const auto& arc : g.arcs_of(u)) {
      if (arc.move == excluded_move || comp[arc.to] != id) continue;
      if (arc.to == entry) {
        closing_from = u;
        closing_arc = arc;
        break;
      }
      if (arc.to != entry && !parent.contains(arc.to)) {
        parent.emplace(arc.to, std::make_pair(u, arc));
        queue.push_back(arc.to);
      }
    }
  }
  std::vector<StateGraph::Arc> cycle;
  cycle.push_back(closing_arc);
  for (std::uint32_t v = closing_from; v != entry;) {
    const auto& [pred, arc] = parent.at(v);
    cycle.push_back(arc);
    v = pred;
  }
  std::reverse(cycle.begin(), cycle.end());
  return cycle;
}

std::optional<FairCycle> find_fair_cycle(
    const StateGraph& g, const std::vector<std::uint8_t>& in_set,
    std::uint32_t excluded_move) {
  const std::uint32_t n = g.num_states();
  std::vector<std::uint32_t> idx(n, kNoIndex), low(n, 0), comp(n, kNoIndex);
  std::vector<std::uint8_t> on_stack(n, 0);
  std::vector<std::uint32_t> stack;
  std::uint32_t counter = 0, comp_counter = 0;
  struct Frame {
    std::uint32_t node;
    std::uint32_t arc;
  };
  std::vector<Frame> dfs;
  const auto allowed = [&](const StateGraph::Arc& arc) {
    return arc.move != excluded_move && in_set[arc.to] != 0;
  };

  for (std::uint32_t root = 0; root < n; ++root) {
    if (in_set[root] == 0 || idx[root] != kNoIndex) continue;
    idx[root] = low[root] = counter++;
    stack.push_back(root);
    on_stack[root] = 1;
    dfs.push_back({root, g.succ_begin[root]});
    while (!dfs.empty()) {
      const std::uint32_t u = dfs.back().node;
      if (dfs.back().arc < g.succ_begin[u + 1]) {
        const StateGraph::Arc arc = g.succ[dfs.back().arc++];
        if (!allowed(arc)) continue;
        if (idx[arc.to] == kNoIndex) {
          idx[arc.to] = low[arc.to] = counter++;
          stack.push_back(arc.to);
          on_stack[arc.to] = 1;
          dfs.push_back({arc.to, g.succ_begin[arc.to]});
        } else if (on_stack[arc.to]) {
          low[u] = std::min(low[u], idx[arc.to]);
        }
        continue;
      }
      dfs.pop_back();
      if (!dfs.empty()) {
        low[dfs.back().node] = std::min(low[dfs.back().node], low[u]);
      }
      if (low[u] != idx[u]) continue;
      const std::uint32_t id = comp_counter++;
      std::vector<std::uint32_t> members;
      for (;;) {
        const std::uint32_t w = stack.back();
        stack.pop_back();
        on_stack[w] = 0;
        comp[w] = id;
        members.push_back(w);
        if (w == u) break;
      }
      std::uint64_t always = ~std::uint64_t{0};
      std::uint64_t executed = 0;
      bool has_arc = false;
      for (std::uint32_t m : members) {
        always &= g.enabled[m];
        for (const auto& arc : g.arcs_of(m)) {
          if (!allowed(arc) || comp[arc.to] != id) continue;
          has_arc = true;
          executed |= std::uint64_t{1} << arc.move;
        }
      }
      always &= ~kJoinBits;
      if (!has_arc || (always & ~executed) != 0) continue;
      const std::uint32_t entry =
          *std::min_element(members.begin(), members.end());
      return FairCycle{entry,
                       shortest_cycle(g, comp, id, excluded_move, entry),
                       members.size()};
    }
  }
  return std::nullopt;
}

bool terminal(const StateGraph& g, std::uint32_t i) {
  return g.succ_begin[i + 1] == g.succ_begin[i];
}

struct ProductQuery {
  const StateGraph& g;
  const std::vector<std::uint8_t>* sym_bad = nullptr;
  const std::vector<std::uint16_t>* hungry = nullptr;
  std::optional<sim::ProcessId> tracked = std::nullopt;
};

std::optional<FairCycle> find_fair_cycle_product(const ProductQuery& q) {
  const StateGraph& g = q.g;
  const SymmetryGroup& grp = *g.sym;
  const auto G = static_cast<std::uint32_t>(grp.size());
  const std::uint32_t n = g.num_states();
  const auto in_set = [&](std::uint32_t s, std::uint16_t h) {
    if (q.sym_bad != nullptr) return (*q.sym_bad)[s] != 0;
    return (((*q.hungry)[s] >> grp.apply_node(h, *q.tracked)) & 1) != 0;
  };
  const auto excluded = [&](std::uint16_t move, std::uint16_t h) {
    return q.tracked && move_action(move) == DinersSystem::kEnter &&
           move_process(move) == grp.apply_node(h, *q.tracked);
  };

  KeyIndex ids;
  std::vector<std::uint64_t> node;
  std::vector<std::uint32_t> idx, low, comp;
  std::vector<std::uint8_t> on_stack;
  const auto dense_of = [&](std::uint64_t nid) {
    Key pk;
    pk.lo = nid;
    const auto [v, inserted] =
        ids.insert(pk, static_cast<std::uint32_t>(node.size()));
    if (inserted) {
      node.push_back(nid);
      idx.push_back(kNoIndex);
      low.push_back(0);
      comp.push_back(kNoIndex);
      on_stack.push_back(0);
    }
    return v;
  };

  std::vector<std::uint32_t> stack;
  std::uint32_t counter = 0, comp_counter = 0;
  struct Frame {
    std::uint32_t dense;
    std::uint32_t arc;
  };
  std::vector<Frame> dfs;

  for (std::uint32_t root_s = 0; root_s < n; ++root_s) {
    for (std::uint32_t root_h = 0; root_h < G; ++root_h) {
      if (!in_set(root_s, static_cast<std::uint16_t>(root_h))) continue;
      const std::uint32_t root =
          dense_of(static_cast<std::uint64_t>(root_s) * G + root_h);
      if (idx[root] != kNoIndex) continue;
      idx[root] = low[root] = counter++;
      stack.push_back(root);
      on_stack[root] = 1;
      dfs.push_back({root, g.succ_begin[root_s]});

      while (!dfs.empty()) {
        const std::uint32_t u = dfs.back().dense;
        const auto u_s = static_cast<std::uint32_t>(node[u] / G);
        const auto u_h = static_cast<std::uint16_t>(node[u] % G);
        if (dfs.back().arc < g.succ_begin[u_s + 1]) {
          const StateGraph::Arc arc = g.succ[dfs.back().arc++];
          if (excluded(arc.move, u_h)) continue;
          const std::uint16_t t_h = grp.compose(arc.witness, u_h);
          if (!in_set(arc.to, t_h)) continue;
          const std::uint32_t v =
              dense_of(static_cast<std::uint64_t>(arc.to) * G + t_h);
          if (idx[v] == kNoIndex) {
            idx[v] = low[v] = counter++;
            stack.push_back(v);
            on_stack[v] = 1;
            dfs.push_back({v, g.succ_begin[arc.to]});
          } else if (on_stack[v]) {
            low[u] = std::min(low[u], idx[v]);
          }
          continue;
        }
        dfs.pop_back();
        if (!dfs.empty()) {
          low[dfs.back().dense] = std::min(low[dfs.back().dense], low[u]);
        }
        if (low[u] != idx[u]) continue;

        const std::uint32_t id = comp_counter++;
        std::vector<std::uint32_t> members;
        for (;;) {
          const std::uint32_t w = stack.back();
          stack.pop_back();
          on_stack[w] = 0;
          comp[w] = id;
          members.push_back(w);
          if (w == u) break;
        }
        std::uint64_t always = ~std::uint64_t{0};
        std::uint64_t executed = 0;
        bool has_arc = false;
        for (const std::uint32_t d : members) {
          const auto s = static_cast<std::uint32_t>(node[d] / G);
          const auto h = static_cast<std::uint16_t>(node[d] % G);
          const auto h_inv = grp.inverse(h);
          always &= grp.permute_mask(h_inv, g.enabled[s]);
          for (const auto& arc : g.arcs_of(s)) {
            if (excluded(arc.move, h)) continue;
            const std::uint16_t t_h = grp.compose(arc.witness, h);
            if (!in_set(arc.to, t_h)) continue;
            const std::uint32_t td =
                dense_of(static_cast<std::uint64_t>(arc.to) * G + t_h);
            if (comp[td] != id) continue;
            has_arc = true;
            executed |= std::uint64_t{1} << grp.permute_move(h_inv, arc.move);
          }
        }
        always &= ~kJoinBits;
        if (!has_arc || (always & ~executed) != 0) continue;

        const std::uint32_t entry = *std::min_element(
            members.begin(), members.end(), [&](std::uint32_t a,
                                                std::uint32_t b) {
              return node[a] < node[b];
            });
        std::unordered_map<std::uint32_t,
                           std::pair<std::uint32_t, StateGraph::Arc>>
            parent;
        std::deque<std::uint32_t> queue{entry};
        constexpr std::uint32_t kUnset =
            std::numeric_limits<std::uint32_t>::max();
        std::uint32_t closing_from = kUnset;
        StateGraph::Arc closing_arc{};
        while (!queue.empty() && closing_from == kUnset) {
          const std::uint32_t d = queue.front();
          queue.pop_front();
          const auto s = static_cast<std::uint32_t>(node[d] / G);
          const auto h = static_cast<std::uint16_t>(node[d] % G);
          for (const auto& arc : g.arcs_of(s)) {
            if (excluded(arc.move, h)) continue;
            const std::uint16_t t_h = grp.compose(arc.witness, h);
            if (!in_set(arc.to, t_h)) continue;
            const std::uint32_t td =
                dense_of(static_cast<std::uint64_t>(arc.to) * G + t_h);
            if (comp[td] != id) continue;
            if (td == entry) {
              closing_from = d;
              closing_arc = arc;
              break;
            }
            if (!parent.contains(td)) {
              parent.emplace(td, std::make_pair(d, arc));
              queue.push_back(td);
            }
          }
        }
        std::vector<StateGraph::Arc> cycle;
        cycle.push_back(closing_arc);
        for (std::uint32_t d = closing_from; d != entry;) {
          const auto& [pred, arc] = parent.at(d);
          cycle.push_back(arc);
          d = pred;
        }
        std::reverse(cycle.begin(), cycle.end());
        return FairCycle{static_cast<std::uint32_t>(node[entry] / G),
                         std::move(cycle), members.size()};
      }
    }
  }
  return std::nullopt;
}

std::optional<FairCycle> find_fair_cycle_any(
    const StateGraph& g, const std::vector<std::uint8_t>& bad) {
  if (g.sym) return find_fair_cycle_product({.g = g, .sym_bad = &bad});
  return find_fair_cycle(g, bad, kNoMove);
}

Violation cycle_violation(std::string property, std::string detail,
                          FairCycle&& fc) {
  Violation v;
  v.kind = Violation::Kind::kCycle;
  v.property = std::move(property);
  v.detail = std::move(detail) + " (fair-feasible SCC of " +
             std::to_string(fc.scc_size) + " states, witness cycle length " +
             std::to_string(fc.cycle.size()) + ")";
  v.state = fc.entry;
  v.cycle = std::move(fc.cycle);
  return v;
}

Violation stuck(std::string property, std::string detail, std::uint32_t i) {
  Violation v;
  v.kind = Violation::Kind::kStuck;
  v.property = std::move(property);
  v.detail = std::move(detail);
  v.state = i;
  return v;
}

std::optional<Violation> check_convergence(
    const StateGraph& g, const std::vector<std::uint8_t>& invariant) {
  std::vector<std::uint8_t> bad(g.num_states());
  for (std::uint32_t i = 0; i < g.num_states(); ++i) {
    bad[i] = invariant[i] == 0 ? 1 : 0;
    if (bad[i] != 0 && terminal(g, i)) {
      return stuck("convergence",
                   "terminal state outside I (no action enabled)", i);
    }
  }
  if (auto fc = find_fair_cycle_any(g, bad)) {
    return cycle_violation("convergence",
                           "weakly fair run stays outside I forever",
                           std::move(*fc));
  }
  return std::nullopt;
}

std::optional<Violation> check_far_safety(
    const StateGraph& g, const std::vector<std::uint8_t>& far_bad) {
  for (std::uint32_t i = 0; i < g.num_states(); ++i) {
    if (far_bad[i] != 0 && terminal(g, i)) {
      return stuck("far-safety", "terminal state keeps a far eating violation",
                   i);
    }
  }
  if (auto fc = find_fair_cycle_any(g, far_bad)) {
    return cycle_violation(
        "far-safety", "weakly fair run keeps a far eating violation forever",
        std::move(*fc));
  }
  return std::nullopt;
}

std::optional<Violation> check_no_starvation(const StateGraph& g,
                                             const StateCodec& codec,
                                             sim::ProcessId p) {
  if (g.sym == nullptr) {
    std::vector<std::uint8_t> hungry(g.num_states());
    for (std::uint32_t i = 0; i < g.num_states(); ++i) {
      hungry[i] =
          codec.state_of(g.keys[i], p) == core::DinerState::kHungry ? 1 : 0;
      if (hungry[i] != 0 && terminal(g, i)) {
        return stuck("starvation",
                     "process " + std::to_string(p) +
                         " is hungry in a terminal state",
                     i);
      }
    }
    if (auto fc = find_fair_cycle(g, hungry,
                                  protocol_move(p, DinersSystem::kEnter))) {
      return cycle_violation("starvation",
                             "process " + std::to_string(p) +
                                 " stays hungry forever without eating",
                             std::move(*fc));
    }
    return std::nullopt;
  }
  const SymmetryGroup& grp = *g.sym;
  const auto n_procs =
      static_cast<sim::ProcessId>(codec.topology().num_nodes());
  std::uint16_t orbit_bits = 0;
  for (SymmetryGroup::ElemId e = 0; e < grp.size(); ++e) {
    orbit_bits |= static_cast<std::uint16_t>(1u << grp.apply_node(e, p));
  }
  std::vector<std::uint16_t> hungry(g.num_states(), 0);
  for (std::uint32_t i = 0; i < g.num_states(); ++i) {
    std::uint16_t m = 0;
    for (sim::ProcessId q = 0; q < n_procs; ++q) {
      if (codec.state_of(g.keys[i], q) == core::DinerState::kHungry) {
        m |= static_cast<std::uint16_t>(1u << q);
      }
    }
    hungry[i] = m;
    if ((m & orbit_bits) != 0 && terminal(g, i)) {
      return stuck("starvation",
                   "a process in the orbit of process " + std::to_string(p) +
                       " is hungry in a terminal state (symmetry-reduced "
                       "graph)",
                   i);
    }
  }
  if (auto fc = find_fair_cycle_product(
          {.g = g, .hungry = &hungry, .tracked = p})) {
    return cycle_violation(
        "starvation",
        "a process in the orbit of process " + std::to_string(p) +
            " stays hungry forever without eating (symmetry-reduced graph)",
        std::move(*fc));
  }
  return std::nullopt;
}

}  // namespace reference

// ---- comparison ----------------------------------------------------------

/// Every field of a verdict, cycle arcs included, as one comparable line.
std::string describe(const std::optional<Violation>& v) {
  if (!v) return "none";
  std::ostringstream os;
  os << static_cast<int>(v->kind) << " " << v->property << " [" << v->detail
     << "] state=" << v->state << " move=" << v->move
     << " successor=" << v->successor << " cycle:";
  for (const auto& arc : v->cycle) {
    os << " (" << arc.to << "," << arc.move << "," << arc.witness << ")";
  }
  return os.str();
}

/// Tallies the battery: how many verdicts were compared, how many differ,
/// and how many of each outcome were seen (so a battery that only ever
/// compares "none" with "none" shows up as toothless).
struct Tally {
  std::size_t compared = 0;
  std::size_t mismatches = 0;
  std::size_t cycles = 0;
  std::size_t stuck = 0;
  std::size_t clean = 0;

  void compare(const std::optional<Violation>& fast,
               const std::optional<Violation>& ref, const std::string& ctx) {
    ++compared;
    const std::string a = describe(fast), b = describe(ref);
    if (a != b) {
      ++mismatches;
      ADD_FAILURE() << ctx << "\n  product Tarjan: " << a
                    << "\n  reference:      " << b;
    }
    if (!ref) {
      ++clean;
    } else if (ref->kind == Violation::Kind::kCycle) {
      ++cycles;
    } else {
      ++stuck;
    }
  }
};

// ---- explored inputs -----------------------------------------------------

/// One explored graph with everything its checks need kept alive.
struct Explored {
  std::string name;
  std::unique_ptr<DinersSystem> prototype;
  std::unique_ptr<StateCodec> codec;
  std::unique_ptr<DinersSystem> scratch;
  StateGraph graph;
};

DinersSystem hungry_system(graph::Graph g) {
  DinersConfig cfg;
  cfg.diameter_override = g.num_nodes() - 1;  // the sound threshold
  DinersSystem s(std::move(g), cfg);
  for (NodeId p = 0; p < s.topology().num_nodes(); ++p) s.set_needs(p, true);
  return s;
}

DinersSystem figure2_system() {
  DinersSystem proto = core::make_figure2_system();
  DinersConfig cfg = proto.config();
  if (!cfg.diameter_override) {
    cfg.diameter_override = graph::diameter(proto.topology());
    DinersSystem rebuilt(proto.topology(), cfg);
    core::restore(rebuilt, core::capture(proto));
    proto = std::move(rebuilt);
  }
  return proto;
}

/// Explores `prototype` from its whole depth box (`box`) or from its own
/// state, reduced by sym,por or not.
Explored explore(std::string name, DinersSystem prototype,
                 GuardMutation mutation, bool reduced, bool box) {
  Explored e;
  e.name = std::move(name) + " mutation=" + std::string(to_string(mutation)) +
           (reduced ? " sym,por" : " unreduced") +
           (box ? " box" : " instance");
  e.prototype = std::make_unique<DinersSystem>(std::move(prototype));
  e.codec = std::make_unique<StateCodec>(
      e.prototype->topology(), 0,
      static_cast<std::int64_t>(*e.prototype->config().diameter_override) +
          1);
  std::vector<Key> seeds;
  if (box) {
    for (std::uint64_t i = 0; i < e.codec->domain_size(); ++i) {
      seeds.push_back(e.codec->domain_key(i));
    }
  } else {
    seeds.push_back(e.codec->encode(*e.prototype));
  }
  e.scratch = std::make_unique<DinersSystem>(core::clone(*e.prototype));
  Explorer::Options opts;
  opts.mutation = mutation;
  opts.jobs = 2;
  opts.reduce_sym = reduced;
  opts.reduce_por = reduced;
  opts.compact_visited = reduced;
  Explorer explorer(*e.scratch, *e.codec, opts);
  e.graph = explorer.explore(seeds);
  return e;
}

/// The demonic-victim graph of `healthy` after crashing `victim`.
Explored crash(const Explored& healthy, NodeId victim) {
  Explored e;
  e.name = healthy.name + " crashed victim=" + std::to_string(victim);
  e.prototype = std::make_unique<DinersSystem>(core::clone(*healthy.prototype));
  e.codec = std::make_unique<StateCodec>(*healthy.codec);
  e.scratch = std::make_unique<DinersSystem>(core::clone(*healthy.prototype));
  e.scratch->crash(victim);
  Explorer::Options opts;
  opts.jobs = 2;
  opts.demon_victim = victim;
  opts.reduce_sym = healthy.graph.sym != nullptr;
  opts.compact_visited = opts.reduce_sym;
  Explorer demon(*e.scratch, *e.codec, opts);
  e.graph = demon.explore(healthy.graph.keys);
  return e;
}

/// Compares convergence, starvation (of every process, or of one per
/// orbit on a reduced graph — its verdict covers the orbit), and far safety
/// at radius 0, 1 and 2 against the graph's own dead set, if it has one.
void compare_all_checks(const Explored& e, Tally& tally) {
  ASSERT_TRUE(e.graph.complete) << e.name;
  const auto inv = label_invariant(e.graph, *e.codec, *e.scratch);
  tally.compare(check_convergence(e.graph, inv),
                reference::check_convergence(e.graph, inv),
                e.name + " convergence");
  std::vector<NodeId> tracked;
  if (e.graph.sym != nullptr) {
    for (const auto& orbit : e.graph.sym->node_orbits()) {
      tracked.push_back(orbit.front());
    }
  } else {
    for (NodeId p = 0; p < e.prototype->topology().num_nodes(); ++p) {
      tracked.push_back(p);
    }
  }
  for (const NodeId p : tracked) {
    tally.compare(check_no_starvation(e.graph, *e.codec, p),
                  reference::check_no_starvation(e.graph, *e.codec, p),
                  e.name + " starvation of " + std::to_string(p));
  }
  const auto dead = e.scratch->dead_processes();
  if (dead.empty()) return;
  const auto dist = graph::distances_to_set(e.prototype->topology(),
                                            std::span<const NodeId>(dead));
  for (std::uint32_t radius = 0; radius <= 2; ++radius) {
    const auto far_bad =
        label_far_violation(e.graph, *e.codec, *e.scratch, dist, radius);
    tally.compare(check_far_safety(e.graph, far_bad),
                  reference::check_far_safety(e.graph, far_bad),
                  e.name + " far-safety radius " + std::to_string(radius));
  }
}

struct Topo {
  std::string name;
  DinersSystem (*make)();
  bool box;  ///< box-seeded when it fits a unit test, else instance-seeded
};

const std::vector<Topo>& topologies() {
  static const std::vector<Topo> all = {
      {"ring4", [] { return hungry_system(graph::make_ring(4)); }, true},
      {"line4", [] { return hungry_system(graph::make_path(4)); }, true},
      {"star4", [] { return hungry_system(graph::make_star(4)); }, true},
      // K4's unreduced box holds 3.24M states; the reduced box (135k
      // representatives) is checked, the unreduced graph from its start.
      {"k4", [] { return hungry_system(graph::make_complete(4)); }, true},
      {"figure2", figure2_system, false},
  };
  return all;
}

void run_topology(const Topo& t, Tally& tally) {
  for (const auto mutation : {GuardMutation::kNone, GuardMutation::kNoFixdepth,
                              GuardMutation::kGreedyEnter}) {
    for (const bool reduced : {false, true}) {
      const bool box = t.box && (reduced || t.name != "k4");
      const Explored e = explore(t.name, t.make(), mutation, reduced, box);
      if (reduced && t.name != "figure2") {
        ASSERT_NE(e.graph.sym, nullptr) << e.name;
      }
      compare_all_checks(e, tally);
    }
  }
}

TEST(FairCycleDifferential, Ring4EveryMutationReducedAndUnreduced) {
  Tally tally;
  run_topology(topologies()[0], tally);
  EXPECT_EQ(tally.mismatches, 0u);
  EXPECT_GT(tally.cycles, 0u);
  EXPECT_GT(tally.clean, 0u);
}

TEST(FairCycleDifferential, Line4AndStar4EveryMutationReducedAndUnreduced) {
  Tally tally;
  run_topology(topologies()[1], tally);
  run_topology(topologies()[2], tally);
  EXPECT_EQ(tally.mismatches, 0u);
  EXPECT_GT(tally.cycles, 0u);
  EXPECT_GT(tally.clean, 0u);
}

TEST(FairCycleDifferential, K4EveryMutationReducedAndUnreduced) {
  Tally tally;
  run_topology(topologies()[3], tally);
  EXPECT_EQ(tally.mismatches, 0u);
  EXPECT_GT(tally.cycles, 0u);
}

TEST(FairCycleDifferential, Figure2EveryMutationWithItsDeadSet) {
  Tally tally;
  run_topology(topologies()[4], tally);
  EXPECT_EQ(tally.mismatches, 0u);
  EXPECT_GT(tally.compared, 0u);
}

TEST(FairCycleDifferential, DemonicVictimUnderTheOrderTwoStabilizer) {
  // Crashing one ring-4 process leaves the reflection through it: the
  // crashed quotient is taken under a stabilizer of order 2, so frames
  // and witnesses are exercised on a group other than the full one.
  Tally tally;
  for (const bool reduced : {false, true}) {
    const Explored healthy = explore(
        "ring4", hungry_system(graph::make_ring(4)), GuardMutation::kNone,
        reduced, /*box=*/false);
    const Explored crashed = crash(healthy, 0);
    if (reduced) {
      ASSERT_NE(crashed.graph.sym, nullptr);
      EXPECT_EQ(crashed.graph.sym->size(), 2u);
    }
    compare_all_checks(crashed, tally);
  }
  EXPECT_EQ(tally.mismatches, 0u);
  EXPECT_GT(tally.cycles, 0u);
}

TEST(FairCycleDifferential, SeededRandomBadSetsThroughFarSafety) {
  // Random bad sets cut each graph into many SCC shapes: singletons with
  // and without self-loops, fair and unfair components, nested ones. Far
  // safety takes any frame-independent label, so it drives the search
  // directly.
  std::vector<Explored> pool;
  for (const bool reduced : {false, true}) {
    pool.push_back(explore("k3", hungry_system(graph::make_complete(3)),
                           GuardMutation::kNone, reduced, /*box=*/true));
    pool.push_back(explore("ring4", hungry_system(graph::make_ring(4)),
                           GuardMutation::kNoFixdepth, reduced,
                           /*box=*/false));
    pool.push_back(explore("star4", hungry_system(graph::make_star(4)),
                           GuardMutation::kNone, reduced, /*box=*/false));
    pool.push_back(crash(pool[pool.size() - 2], 0));
  }
  Tally tally;
  util::Xoshiro256 rng(20021);
  constexpr int kTrials = 240;
  for (int trial = 0; trial < kTrials; ++trial) {
    const Explored& e = pool[static_cast<std::size_t>(trial) % pool.size()];
    const std::uint32_t n = e.graph.num_states();
    std::vector<std::uint8_t> bad(n, 0);
    switch (trial % 3) {
      case 0: {  // uniform, dense enough to keep cycles
        const double p = 0.5 + 0.49 * rng.unit();
        for (auto& b : bad) b = rng.chance(p) ? 1 : 0;
        break;
      }
      case 1: {  // a random contiguous window of BFS order
        const auto lo = static_cast<std::uint32_t>(rng.below(n));
        const auto hi = lo + static_cast<std::uint32_t>(rng.below(n - lo)) + 1;
        for (std::uint32_t i = lo; i < hi; ++i) bad[i] = 1;
        break;
      }
      default: {  // outside I, with random holes
        const auto inv = label_invariant(e.graph, *e.codec, *e.scratch);
        const double holes = 0.2 * rng.unit();
        for (std::uint32_t i = 0; i < n; ++i) {
          bad[i] = inv[i] == 0 && !rng.chance(holes) ? 1 : 0;
        }
        break;
      }
    }
    tally.compare(check_far_safety(e.graph, bad),
                  reference::check_far_safety(e.graph, bad),
                  e.name + " random trial " + std::to_string(trial));
  }
  EXPECT_EQ(tally.compared, static_cast<std::size_t>(kTrials));
  EXPECT_EQ(tally.mismatches, 0u);
  // The shapes must include both verdicts, or the battery compares nothing.
  EXPECT_GT(tally.cycles, static_cast<std::size_t>(kTrials) / 10);
  EXPECT_GT(tally.clean + tally.stuck, static_cast<std::size_t>(kTrials) / 10);
}

}  // namespace
}  // namespace diners::verify
