#include "verify/properties.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "analysis/invariants.hpp"
#include "graph/algorithms.hpp"

namespace diners::verify {

namespace {

using core::DinersSystem;

/// The check_* oracles reason about *every* reachable behavior; a graph
/// truncated at Options::max_states has unexpanded states whose outgoing
/// behavior is unknown, so any verdict over it would be unsound.
void require_complete(const StateGraph& g, const char* property) {
  if (!g.complete) {
    throw std::invalid_argument(
        std::string(property) +
        ": state graph is truncated (complete == false); raise "
        "Explorer::Options::max_states");
  }
}

/// Bits of every process's join action — excluded from the fairness-forced
/// set (see the file comment of properties.hpp).
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

bool terminal(const StateGraph& g, std::uint32_t i) {
  return g.succ_begin[i + 1] == g.succ_begin[i];
}

// ---- fair-cycle search over the (state x frame) product -----------------
//
// A quotient graph (g.sym non-null) stores one representative per orbit;
// fairness is NOT symmetric state-by-state (an SCC of representatives mixes
// frames), so the SCC analysis runs on the *product* of the quotient with
// the group: product node (s, h) stands for the concrete state
// A_{h^{-1}}(rep(s)). Quotient arc (s -> t, move m, witness w) lifts to
// (s, h) -> (t, w∘h) executing the concrete move (h^{-1}(proc(m)), act(m)),
// and the concrete enabled mask at (s, h) is enabled[s] permuted by h^{-1}.
// This product is exactly the concrete transition graph over the orbit
// closure of the seed set, so the exactness argument of properties.hpp
// applies verbatim. Any closed product cycle has witness product ==
// identity (closure at a fixed frame forces it), so the returned rep-frame
// arc cycle closes concretely from *any* start frame — counterexample
// lifting needs no frame alignment. An unreduced graph is the product with
// the trivial group: G = 1, every frame and witness the identity.
//
// Product nodes are indexed directly as rank(s) * G + h, where rank counts
// only the states that are in the set under at least one frame. Rank is
// monotone in s, so the index order is the (state, frame) order that fixes
// the root order and the entry choice.

struct FairCycleQuery {
  const StateGraph& g;
  /// Frame-independent bad set (bad[s] covers every frame), or null.
  const std::vector<std::uint8_t>* sym_bad = nullptr;
  /// Starvation mode: per-state bitmask of the hungry processes in the
  /// tracked process's orbit + the tracked process; node (s, h) is bad iff
  /// rep process h(tracked) is hungry, and its (h(tracked), enter) arcs are
  /// excluded.
  const std::vector<std::uint16_t>* hungry = nullptr;
  sim::ProcessId tracked = 0;
};

std::optional<FairCycle> find_fair_cycle(const FairCycleQuery& q) {
  const StateGraph& g = q.g;
  const SymmetryGroup* grp = g.sym.get();
  const auto G =
      grp != nullptr ? static_cast<std::uint32_t>(grp->size()) : 1u;

  // Per frame h: the bit of the process that plays the tracked one, and
  // its excluded enter move (kSeedMove matches no stored arc).
  std::vector<std::uint16_t> tracked_bit(G, 0);
  std::vector<std::uint16_t> excluded(G, kSeedMove);
  if (q.hungry != nullptr) {
    for (std::uint32_t h = 0; h < G; ++h) {
      const sim::ProcessId p =
          grp != nullptr
              ? grp->apply_node(static_cast<SymmetryGroup::ElemId>(h),
                                q.tracked)
              : q.tracked;
      tracked_bit[h] = static_cast<std::uint16_t>(1u << p);
      excluded[h] = protocol_move(p, DinersSystem::kEnter);
    }
  }
  const auto frame_after = [&](const StateGraph::Arc& arc, std::uint32_t h) {
    return grp != nullptr ? std::uint32_t{grp->compose(
                                arc.witness,
                                static_cast<SymmetryGroup::ElemId>(h))}
                          : 0u;
  };

  // Rank the states that are in the set under at least one frame; an empty
  // set has no cycle and allocates nothing.
  const auto in_any = [&](std::uint32_t s) {
    return q.sym_bad != nullptr ? (*q.sym_bad)[s] != 0
                                : (*q.hungry)[s] != 0;
  };
  std::uint32_t ranked = 0;
  for (std::uint32_t s = 0; s < g.num_states(); ++s) ranked += in_any(s);
  if (ranked == 0) return std::nullopt;
  const std::uint64_t nodes = std::uint64_t{ranked} * G;
  if (nodes >= kNoIndex) {
    throw std::length_error("fair-cycle search: product exceeds 2^32 nodes");
  }
  std::vector<std::uint32_t> rank(g.num_states(), kNoIndex);
  std::vector<std::uint32_t> state_of_rank;
  state_of_rank.reserve(ranked);
  for (std::uint32_t s = 0; s < g.num_states(); ++s) {
    if (!in_any(s)) continue;
    rank[s] = static_cast<std::uint32_t>(state_of_rank.size());
    state_of_rank.push_back(s);
  }
  const auto in_set = [&](std::uint32_t s, std::uint32_t h) {
    if (q.hungry != nullptr) return ((*q.hungry)[s] & tracked_bit[h]) != 0;
    return rank[s] != kNoIndex;
  };
  // The product node of (s, h); s must be in the set under some frame.
  const auto node_of = [&](std::uint32_t s, std::uint32_t h) {
    return rank[s] * G + h;
  };

  // Tarjan state, one record per product node so an arc touches one cache
  // line. A visited node stays on the Tarjan stack until its SCC is
  // numbered, so comp == kNoIndex doubles as the on-stack flag.
  struct Node {
    std::uint32_t idx = kNoIndex;
    std::uint32_t low = 0;
    std::uint32_t comp = kNoIndex;
  };
  std::vector<Node> tarjan(nodes);
  std::vector<std::uint32_t> stack, members;
  std::uint32_t counter = 0, comp_counter = 0;
  struct Frame {
    std::uint32_t node;
    std::uint32_t arc;  ///< absolute index into g.succ
    std::uint32_t end;
    std::uint16_t h;
    bool self_loop;  ///< an allowed arc leads from node back to itself
  };
  std::vector<Frame> dfs;
  const auto visit = [&](std::uint32_t v, std::uint32_t s, std::uint32_t h) {
    tarjan[v].idx = tarjan[v].low = counter++;
    stack.push_back(v);
    dfs.push_back({v, g.succ_begin[s], g.succ_begin[s + 1],
                   static_cast<std::uint16_t>(h), false});
  };

  for (std::uint32_t root = 0; root < nodes; ++root) {
    const std::uint32_t root_s = state_of_rank[root / G];
    if (!in_set(root_s, root % G) || tarjan[root].idx != kNoIndex) continue;
    visit(root, root_s, root % G);

    while (!dfs.empty()) {
      Frame& f = dfs.back();
      const std::uint32_t u = f.node;
      if (f.arc < f.end) {
        const StateGraph::Arc arc = g.succ[f.arc++];
        if (arc.move == excluded[f.h]) continue;
        const std::uint32_t t_h = frame_after(arc, f.h);
        if (!in_set(arc.to, t_h)) continue;
        const std::uint32_t v = node_of(arc.to, t_h);
        if (tarjan[v].idx == kNoIndex) {
          visit(v, arc.to, t_h);
        } else if (tarjan[v].comp == kNoIndex) {
          tarjan[u].low = std::min(tarjan[u].low, tarjan[v].idx);
          f.self_loop |= v == u;
        }
        continue;
      }
      const bool self_loop = f.self_loop;
      dfs.pop_back();
      if (!dfs.empty()) {
        Node& caller = tarjan[dfs.back().node];
        caller.low = std::min(caller.low, tarjan[u].low);
      }
      if (tarjan[u].low != tarjan[u].idx) continue;

      // u is an SCC root: pop the members and test fairness feasibility.
      // Most SCCs are singletons without a self-loop, which have no
      // intra-arc and need no second walk over their arcs.
      const std::uint32_t id = comp_counter++;
      if (stack.back() == u && !self_loop) {
        stack.pop_back();
        tarjan[u].comp = id;
        continue;
      }
      members.clear();
      for (;;) {
        const std::uint32_t w = stack.back();
        stack.pop_back();
        tarjan[w].comp = id;
        members.push_back(w);
        if (w == u) break;
      }
      std::uint64_t always = ~std::uint64_t{0};
      std::uint64_t executed = 0;
      bool has_arc = false;
      for (const std::uint32_t d : members) {
        const std::uint32_t s = state_of_rank[d / G];
        const std::uint32_t h = d % G;
        const auto h_inv = grp != nullptr
                               ? grp->inverse(
                                     static_cast<SymmetryGroup::ElemId>(h))
                               : SymmetryGroup::kIdentity;
        always &= grp != nullptr ? grp->permute_mask(h_inv, g.enabled[s])
                                 : g.enabled[s];
        for (const auto& arc : g.arcs_of(s)) {
          if (arc.move == excluded[h]) continue;
          const std::uint32_t t_h = frame_after(arc, h);
          if (!in_set(arc.to, t_h) ||
              tarjan[node_of(arc.to, t_h)].comp != id) {
            continue;
          }
          has_arc = true;
          executed |= std::uint64_t{1}
                      << (grp != nullptr ? grp->permute_move(h_inv, arc.move)
                                         : arc.move);
        }
      }
      always &= ~kJoinBits;
      if (!has_arc || (always & ~executed) != 0) continue;

      // Entry: the member with the smallest (state, frame); shortest
      // product cycle through it via BFS over intra-SCC arcs.
      const std::uint32_t entry =
          *std::min_element(members.begin(), members.end());
      std::unordered_map<std::uint32_t,
                         std::pair<std::uint32_t, StateGraph::Arc>>
          parent;  // node -> (predecessor, arc into node)
      std::deque<std::uint32_t> queue{entry};
      constexpr std::uint32_t kUnset =
          std::numeric_limits<std::uint32_t>::max();
      std::uint32_t closing_from = kUnset;
      StateGraph::Arc closing_arc{};
      while (!queue.empty() && closing_from == kUnset) {
        const std::uint32_t d = queue.front();
        queue.pop_front();
        const std::uint32_t h = d % G;
        for (const auto& arc : g.arcs_of(state_of_rank[d / G])) {
          if (arc.move == excluded[h]) continue;
          const std::uint32_t t_h = frame_after(arc, h);
          if (!in_set(arc.to, t_h)) continue;
          const std::uint32_t td = node_of(arc.to, t_h);
          if (tarjan[td].comp != id) continue;
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
      return FairCycle{state_of_rank[entry / G], std::move(cycle),
                       members.size()};
    }
  }
  return std::nullopt;
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

}  // namespace

std::vector<std::uint8_t> label_invariant(const StateGraph& g,
                                          const StateCodec& codec,
                                          core::DinersSystem& scratch) {
  std::vector<std::uint8_t> inv(g.num_states(), 0);
  analysis::ShallowContext ctx;
  for (std::uint32_t i = 0; i < g.num_states(); ++i) {
    codec.decode(g.keys[i], scratch);
    ctx.refresh(scratch);
    inv[i] = analysis::holds_invariant(scratch, ctx) ? 1 : 0;
  }
  return inv;
}

std::vector<std::uint8_t> label_far_violation(
    const StateGraph& g, const StateCodec& codec,
    const core::DinersSystem& scratch,
    const std::vector<std::uint32_t>& dist, std::uint32_t radius) {
  std::vector<std::uint8_t> bad(g.num_states(), 0);
  const auto& edges = codec.topology().edges();
  for (std::uint32_t i = 0; i < g.num_states(); ++i) {
    for (graph::EdgeId e = 0; e < codec.topology().num_edges(); ++e) {
      const auto u = edges[e].u, v = edges[e].v;
      if (codec.state_of(g.keys[i], u) != core::DinerState::kEating ||
          codec.state_of(g.keys[i], v) != core::DinerState::kEating) {
        continue;
      }
      const bool far_live_endpoint =
          (scratch.alive(u) && dist[u] > radius) ||
          (scratch.alive(v) && dist[v] > radius);
      if (far_live_endpoint) {
        bad[i] = 1;
        break;
      }
    }
  }
  return bad;
}

std::optional<Violation> check_closure(
    const StateGraph& g, const std::vector<std::uint8_t>& invariant) {
  require_complete(g, "check_closure");
  for (std::uint32_t i = 0; i < g.num_states(); ++i) {
    if (invariant[i] == 0) continue;
    for (const auto& arc : g.arcs_of(i)) {
      if (invariant[arc.to] != 0) continue;
      Violation v;
      v.kind = Violation::Kind::kClosure;
      v.property = "closure";
      v.detail = "process " + std::to_string(move_process(arc.move)) +
                 " action " + std::to_string(move_action(arc.move)) +
                 " leads from an I-state to a state outside I";
      v.state = i;
      v.move = arc.move;
      v.successor = arc.to;
      return v;
    }
  }
  return std::nullopt;
}

std::optional<Violation> check_convergence(
    const StateGraph& g, const std::vector<std::uint8_t>& invariant) {
  require_complete(g, "check_convergence");
  std::vector<std::uint8_t> bad(g.num_states());
  for (std::uint32_t i = 0; i < g.num_states(); ++i) {
    bad[i] = invariant[i] == 0 ? 1 : 0;
    if (bad[i] != 0 && terminal(g, i)) {
      Violation v;
      v.kind = Violation::Kind::kStuck;
      v.property = "convergence";
      v.detail = "terminal state outside I (no action enabled)";
      v.state = i;
      return v;
    }
  }
  if (auto fc = find_fair_cycle({.g = g, .sym_bad = &bad})) {
    return cycle_violation("convergence",
                           "weakly fair run stays outside I forever",
                           std::move(*fc));
  }
  return std::nullopt;
}

std::optional<Violation> check_far_safety(
    const StateGraph& g, const std::vector<std::uint8_t>& far_bad) {
  require_complete(g, "check_far_safety");
  for (std::uint32_t i = 0; i < g.num_states(); ++i) {
    if (far_bad[i] != 0 && terminal(g, i)) {
      Violation v;
      v.kind = Violation::Kind::kStuck;
      v.property = "far-safety";
      v.detail = "terminal state keeps a far eating violation";
      v.state = i;
      return v;
    }
  }
  if (auto fc = find_fair_cycle({.g = g, .sym_bad = &far_bad})) {
    return cycle_violation(
        "far-safety", "weakly fair run keeps a far eating violation forever",
        std::move(*fc));
  }
  return std::nullopt;
}

std::optional<Violation> check_no_starvation(const StateGraph& g,
                                             const StateCodec& codec,
                                             sim::ProcessId p) {
  require_complete(g, "check_no_starvation");
  // On a symmetry-reduced graph each representative covers its whole orbit
  // of concrete states, so p is hungry "at rep i under frame h" iff h(p) is
  // hungry in the rep — the per-state labels are bitmasks over p's orbit,
  // and the verdict covers every process in that orbit (the lifted run may
  // starve any of them, up to relabeling by an automorphism). Unreduced,
  // the orbit is {p}.
  const bool reduced = g.sym != nullptr;
  auto orbit_bits = static_cast<std::uint16_t>(1u << p);
  for (SymmetryGroup::ElemId e = 0; reduced && e < g.sym->size(); ++e) {
    orbit_bits |= static_cast<std::uint16_t>(1u << g.sym->apply_node(e, p));
  }
  const std::string who =
      reduced ? "a process in the orbit of process " + std::to_string(p)
              : "process " + std::to_string(p);
  const std::string where = reduced ? " (symmetry-reduced graph)" : "";
  std::vector<std::uint16_t> hungry(g.num_states(), 0);
  for (std::uint32_t i = 0; i < g.num_states(); ++i) {
    for (sim::ProcessId q = 0; q < codec.topology().num_nodes(); ++q) {
      if ((orbit_bits >> q & 1u) != 0 &&
          codec.state_of(g.keys[i], q) == core::DinerState::kHungry) {
        hungry[i] |= static_cast<std::uint16_t>(1u << q);
      }
    }
    if (hungry[i] != 0 && terminal(g, i)) {
      Violation v;
      v.kind = Violation::Kind::kStuck;
      v.property = "starvation";
      v.detail = who + " is hungry in a terminal state" + where;
      v.state = i;
      return v;
    }
  }
  if (auto fc = find_fair_cycle({.g = g, .hungry = &hungry, .tracked = p})) {
    return cycle_violation(
        "starvation", who + " stays hungry forever without eating" + where,
        std::move(*fc));
  }
  return std::nullopt;
}

}  // namespace diners::verify
