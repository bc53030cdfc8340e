// Executable versions of the paper's correctness predicates (Section 3.1):
//
//   NC — "if the priority graph contains a cycle, at least one process in
//        the cycle is dead" (Lemma 1);
//   ST — "all processes in the system are stably shallow" (Lemma 3);
//   E  — "two neighbors are eating in the same state only if they are both
//        dead" (Lemma 4);
//   I  =  NC ∧ ST ∧ E — the program invariant (Theorem 1: the program
//        stabilizes to I).
//
// These are used by tests (closure/convergence properties) and by the
// stabilization experiments (steps-to-I measurements).
#pragma once

#include <cstdint>
#include <vector>

#include "core/diners_system.hpp"
#include "graph/algorithms.hpp"

namespace diners::analysis {

/// NC: no directed cycle among live processes in the priority graph.
[[nodiscard]] bool holds_nc(const core::DinersSystem& system);

/// Per-process shallowness SH:p —
///   p dead, or
///   depth:p <= D and for every direct descendant q:
///     depth:q + l:p <= D   (q's depth cannot push p's chain past D), or
///     depth:q + 1 <= depth:p  (p's fixdepth is disabled for q).
/// where l:p is the longest all-live ancestor chain including p.
[[nodiscard]] std::vector<bool> shallow_processes(
    const core::DinersSystem& system);

/// Stably shallow: p is shallow and is dead or all its live descendants
/// (reachability in the priority graph) are shallow.
[[nodiscard]] std::vector<bool> stably_shallow_processes(
    const core::DinersSystem& system);

/// ST: every process is stably shallow — equivalently, every live process
/// is shallow (a live deep process reaches itself; DESIGN.md §12).
[[nodiscard]] bool holds_st(const core::DinersSystem& system);

/// E: no two live-or-half-live neighbors eat simultaneously — for each edge,
/// both endpoints eating implies both endpoints dead.
[[nodiscard]] bool holds_e(const core::DinersSystem& system);

/// The invariant I = NC ∧ ST ∧ E.
[[nodiscard]] bool holds_invariant(const core::DinersSystem& system);

/// Count of edges whose endpoints are simultaneously eating with at least
/// one endpoint live (Theorem 3's measure: this count never increases, and
/// is zero under I).
[[nodiscard]] std::size_t eating_violation_count(
    const core::DinersSystem& system);

/// The reusable scratch of the flat oracle. refresh() runs one Kahn peel of
/// the live priority graph over DinersSystem::csr() and stores the paper's
/// l:p table and the NC verdict; the overloads below read the state and
/// depth arrays directly and reuse it. The naive entry points above build a
/// context per call and delegate to the overloads; holds_invariant instead
/// checks SH:p during the same peel and stops at the first deep process.
///
/// Validity: the peel reads only the priorities and the alive set, so
/// state/depth/needs writes do NOT invalidate the context; any priority
/// write, crash or restart does — call refresh() before the next query.
class ShallowContext {
 public:
  ShallowContext() = default;
  explicit ShallowContext(const core::DinersSystem& system) {
    refresh(system);
  }

  /// Re-runs the peel on `system`'s current priorities and alive set,
  /// reusing this context's arrays.
  void refresh(const core::DinersSystem& system);

  /// The paper's l:p table; equal to graph::longest_live_ancestor_chain
  /// over system.orientation() (0 for dead processes, kUnreachable for a
  /// live process whose ancestor chain reaches a live cycle).
  [[nodiscard]] const std::vector<std::uint32_t>& chain() const noexcept {
    return chain_;
  }
  /// NC as of the last refresh(): every live process was peeled.
  [[nodiscard]] bool nc() const noexcept { return nc_; }

 private:
  friend bool holds_invariant(const core::DinersSystem& system);

  /// The peel behind refresh(). Returns NC; with `stop_at_deep`, returns
  /// NC ∧ ST instead, stopping at the first live process that is not
  /// shallow (its l:p is final when it is peeled).
  bool peel(const core::DinersSystem& system, bool stop_at_deep);

  std::vector<std::uint32_t> chain_;  ///< l:p
  std::vector<std::uint32_t> indeg_;  ///< unpeeled live direct ancestors
  std::vector<std::uint32_t> order_;  ///< peel order (the Kahn queue)
  bool nc_ = true;
};

/// Context overloads: identical results to the same-named naive entry
/// points (a property test pins this), without re-running the peel.
[[nodiscard]] bool holds_nc(const core::DinersSystem& system,
                            const ShallowContext& ctx);
[[nodiscard]] std::vector<bool> shallow_processes(
    const core::DinersSystem& system, const ShallowContext& ctx);
[[nodiscard]] std::vector<bool> stably_shallow_processes(
    const core::DinersSystem& system, const ShallowContext& ctx);
[[nodiscard]] bool holds_st(const core::DinersSystem& system,
                            const ShallowContext& ctx);
[[nodiscard]] bool holds_invariant(const core::DinersSystem& system,
                                   const ShallowContext& ctx);

}  // namespace diners::analysis
