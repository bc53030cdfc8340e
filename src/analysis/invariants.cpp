#include "analysis/invariants.hpp"

#include <algorithm>
#include <span>

namespace diners::analysis {

using core::DinerState;
using core::DinersSystem;
using ProcessId = DinersSystem::ProcessId;

namespace {

/// The flat arrays every predicate reads. CSR slot i of p (neighbor nbr[i],
/// edge eid[i]) is an ancestor edge iff prio[eid[i]] == nbr[i], and a
/// descendant edge iff prio[eid[i]] == p.
struct Flat {
  explicit Flat(const DinersSystem& system)
      : n(system.csr().num_nodes()),
        off(system.csr().offsets()),
        nbr(system.csr().neighbors()),
        eid(system.csr().edge_ids()),
        prio(system.priorities()),
        alive(system.alive_flags()),
        depth(system.depths()),
        d(system.diameter_constant()) {}

  /// SH:p for a live p with l:p = `lp`: depth:p <= D and, for every direct
  /// descendant q, depth:q + l:p <= D or depth:q + 1 <= depth:p.
  [[nodiscard]] bool shallow(ProcessId p, std::uint32_t lp) const {
    const std::int64_t dp = depth[p];
    // kUnreachable: the chain is unbounded, so depth:q + l:p <= D fails.
    const bool bounded = lp != graph::kUnreachable;
    const std::int64_t l = bounded ? lp : 0;
    bool ok = dp <= d;
    for (std::uint32_t i = off[p]; i < off[p + 1]; ++i) {
      const std::int64_t dq = depth[nbr[i]];
      const bool descendant = prio[eid[i]] == p;
      ok &= (!descendant) | (bounded & (dq + l <= d)) | (dq + 1 <= dp);
    }
    return ok;
  }

  ProcessId n;
  const std::uint32_t* off;
  const graph::NodeId* nbr;
  const graph::EdgeId* eid;
  std::span<const ProcessId> prio;
  std::span<const std::uint8_t> alive;
  std::span<const std::int64_t> depth;
  std::int64_t d;
};

}  // namespace

void ShallowContext::refresh(const DinersSystem& system) {
  nc_ = peel(system, /*stop_at_deep=*/false);
}

bool ShallowContext::peel(const DinersSystem& system, bool stop_at_deep) {
  const Flat f(system);
  chain_.resize(f.n);
  indeg_.resize(f.n);
  order_.resize(f.n + 1);
  // Kahn peel of the live priority graph, ancestors first, relaxing
  // chain[v] = max(chain[v], chain[u] + 1) in peel order. Branch-free on
  // the orientation, which is random after a fault: a process is queued by
  // writing it at order_[tail] unconditionally and advancing tail only if
  // it qualifies (hence order_ has n + 1 slots).
  std::uint32_t live = 0;
  std::uint32_t tail = 0;
  for (ProcessId p = 0; p < f.n; ++p) {
    std::uint32_t k = 0;
    for (std::uint32_t i = f.off[p]; i < f.off[p + 1]; ++i) {
      k += (f.prio[f.eid[i]] == f.nbr[i]) & f.alive[f.nbr[i]];
    }
    const std::uint32_t a = f.alive[p];
    live += a;
    indeg_[p] = k;
    chain_[p] = a;
    order_[tail] = p;
    tail += a & (k == 0);
  }
  for (std::uint32_t head = 0; head < tail; ++head) {
    const ProcessId u = order_[head];
    if (stop_at_deep && !f.shallow(u, chain_[u])) return false;
    const std::uint32_t next = chain_[u] + 1;
    for (std::uint32_t i = f.off[u]; i < f.off[u + 1]; ++i) {
      const ProcessId v = f.nbr[i];
      const std::uint32_t desc = (f.prio[f.eid[i]] == u) & f.alive[v];
      chain_[v] = desc != 0 ? std::max(chain_[v], next) : chain_[v];
      indeg_[v] -= desc;
      order_[tail] = v;
      tail += desc & (indeg_[v] == 0);
    }
  }
  // NC iff every live process was peeled; a live process left unpeeled
  // has a live ancestor chain that reaches a live cycle.
  if (tail == live) return true;
  for (ProcessId p = 0; p < f.n; ++p) {
    if (f.alive[p] && indeg_[p] != 0) chain_[p] = graph::kUnreachable;
  }
  return false;
}

bool holds_nc(const DinersSystem& /*system*/, const ShallowContext& ctx) {
  return ctx.nc();
}

std::vector<bool> shallow_processes(const DinersSystem& system,
                                    const ShallowContext& ctx) {
  const Flat f(system);
  std::vector<bool> shallow(f.n, true);  // dead: first disjunct of SH:p
  for (ProcessId p = 0; p < f.n; ++p) {
    if (f.alive[p]) shallow[p] = f.shallow(p, ctx.chain()[p]);
  }
  return shallow;
}

std::vector<bool> stably_shallow_processes(const DinersSystem& system,
                                           const ShallowContext& ctx) {
  const Flat f(system);
  // A live process is stably shallow iff no live deep process is reachable
  // from it along descendant edges (a deep process reaches itself). BFS
  // from the live deep processes along ancestor edges, through dead
  // ancestors too.
  std::vector<bool> reaches_deep(f.n, false);
  std::vector<ProcessId> queue;
  for (ProcessId p = 0; p < f.n; ++p) {
    if (f.alive[p] && !f.shallow(p, ctx.chain()[p])) {
      reaches_deep[p] = true;
      queue.push_back(p);
    }
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const ProcessId q = queue[head];
    for (std::uint32_t i = f.off[q]; i < f.off[q + 1]; ++i) {
      const ProcessId anc = f.nbr[i];
      if (f.prio[f.eid[i]] == anc && !reaches_deep[anc]) {
        reaches_deep[anc] = true;
        queue.push_back(anc);
      }
    }
  }
  std::vector<bool> stable(f.n);
  for (ProcessId p = 0; p < f.n; ++p) {
    // Dead processes are stably shallow by definition.
    stable[p] = !f.alive[p] || !reaches_deep[p];
  }
  return stable;
}

bool holds_st(const DinersSystem& system, const ShallowContext& ctx) {
  // Every process is stably shallow iff every live process is shallow: the
  // BFS above has no seed exactly when no live process is deep.
  const Flat f(system);
  for (ProcessId p = 0; p < f.n; ++p) {
    if (f.alive[p] && !f.shallow(p, ctx.chain()[p])) return false;
  }
  return true;
}

bool holds_invariant(const DinersSystem& system, const ShallowContext& ctx) {
  return ctx.nc() && holds_st(system, ctx) && holds_e(system);
}

bool holds_nc(const DinersSystem& system) {
  return holds_nc(system, ShallowContext(system));
}

std::vector<bool> shallow_processes(const DinersSystem& system) {
  return shallow_processes(system, ShallowContext(system));
}

std::vector<bool> stably_shallow_processes(const DinersSystem& system) {
  return stably_shallow_processes(system, ShallowContext(system));
}

bool holds_st(const DinersSystem& system) {
  return holds_st(system, ShallowContext(system));
}

bool holds_invariant(const DinersSystem& system) {
  // One peel that checks SH:u as each u is peeled decides NC ∧ ST, and
  // stops at the first deep process, which is where most false verdicts
  // end.
  ShallowContext ctx;
  return ctx.peel(system, /*stop_at_deep=*/true) && holds_e(system);
}

bool holds_e(const DinersSystem& system) {
  return eating_violation_count(system) == 0;
}

std::size_t eating_violation_count(const DinersSystem& system) {
  const auto state = system.states();
  const auto alive = system.alive_flags();
  std::size_t count = 0;
  for (const auto& e : system.topology().edges()) {
    const bool both_eating = state[e.u] == DinerState::kEating &&
                             state[e.v] == DinerState::kEating;
    if (both_eating && (alive[e.u] || alive[e.v])) ++count;
  }
  return count;
}

}  // namespace diners::analysis
