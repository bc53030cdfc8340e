#include "graph/algorithms.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>

namespace diners::graph {

namespace {
bool node_alive(const AliveFn& alive, NodeId p) {
  return !alive || alive(p);
}
}  // namespace

std::vector<std::uint32_t> bfs_distances(const Graph& g, NodeId source) {
  if (source >= g.num_nodes()) {
    throw std::invalid_argument("bfs_distances: source out of range");
  }
  std::vector<std::uint32_t> dist(g.num_nodes(), kUnreachable);
  std::deque<NodeId> queue;
  dist[source] = 0;
  queue.push_back(source);
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    for (NodeId v : g.neighbors(u)) {
      if (dist[v] == kUnreachable) {
        dist[v] = dist[u] + 1;
        queue.push_back(v);
      }
    }
  }
  return dist;
}

std::uint32_t distance(const Graph& g, NodeId a, NodeId b) {
  return bfs_distances(g, a).at(b);
}

std::vector<std::uint32_t> distances_to_set(const Graph& g,
                                            std::span<const NodeId> sources) {
  std::vector<std::uint32_t> dist(g.num_nodes(), kUnreachable);
  std::deque<NodeId> queue;
  for (NodeId s : sources) {
    if (s >= g.num_nodes()) {
      throw std::invalid_argument("distances_to_set: source out of range");
    }
    if (dist[s] != 0) {
      dist[s] = 0;
      queue.push_back(s);
    }
  }
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    for (NodeId v : g.neighbors(u)) {
      if (dist[v] == kUnreachable) {
        dist[v] = dist[u] + 1;
        queue.push_back(v);
      }
    }
  }
  return dist;
}

bool is_connected(const Graph& g) {
  const auto dist = bfs_distances(g, 0);
  return std::find(dist.begin(), dist.end(), kUnreachable) == dist.end();
}

std::vector<std::uint32_t> connected_components(const Graph& g) {
  std::vector<std::uint32_t> label(g.num_nodes(), kUnreachable);
  std::uint32_t next = 0;
  std::deque<NodeId> queue;
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    if (label[s] != kUnreachable) continue;
    label[s] = next;
    queue.push_back(s);
    while (!queue.empty()) {
      const NodeId u = queue.front();
      queue.pop_front();
      for (NodeId v : g.neighbors(u)) {
        if (label[v] == kUnreachable) {
          label[v] = next;
          queue.push_back(v);
        }
      }
    }
    ++next;
  }
  return label;
}

std::uint32_t eccentricity(const Graph& g, NodeId source) {
  const auto dist = bfs_distances(g, source);
  std::uint32_t ecc = 0;
  for (std::uint32_t d : dist) {
    if (d == kUnreachable) {
      throw std::invalid_argument("eccentricity: graph is disconnected");
    }
    ecc = std::max(ecc, d);
  }
  return ecc;
}

std::uint32_t diameter(const Graph& g) {
  std::uint32_t diam = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    diam = std::max(diam, eccentricity(g, u));
  }
  return diam;
}

namespace {

enum class Mark : std::uint8_t { kWhite, kGray, kBlack };

// Iterative DFS over ancestor edges p -> its direct ancestors; a gray-gray
// edge closes a directed cycle. Returns the cycle if requested.
std::optional<std::vector<NodeId>> dfs_cycle(const Orientation& o,
                                             const AliveFn& alive,
                                             bool want_cycle) {
  const std::size_t n = o.ancestors.size();
  std::vector<Mark> mark(n, Mark::kWhite);
  std::vector<NodeId> parent(n, kNoNode);
  // Stack holds (node, next ancestor index to visit); one for every root.
  std::vector<std::pair<NodeId, std::size_t>> stack;
  for (std::size_t root = 0; root < n; ++root) {
    if (mark[root] != Mark::kWhite || !node_alive(alive, static_cast<NodeId>(root))) {
      continue;
    }
    stack.clear();
    stack.emplace_back(static_cast<NodeId>(root), 0);
    mark[root] = Mark::kGray;
    while (!stack.empty()) {
      auto& [u, idx] = stack.back();
      const auto& anc = o.ancestors[u];
      bool advanced = false;
      while (idx < anc.size()) {
        const NodeId w = anc[idx++];
        if (!node_alive(alive, w)) continue;
        if (mark[w] == Mark::kGray) {
          if (!want_cycle) return std::vector<NodeId>{};  // sentinel: found
          // Reconstruct cycle w -> ... -> u -> w by walking parents from u.
          std::vector<NodeId> cycle;
          for (NodeId x = u; x != kNoNode; x = parent[x]) {
            cycle.push_back(x);
            if (x == w) break;
          }
          std::reverse(cycle.begin(), cycle.end());
          return cycle;
        }
        if (mark[w] == Mark::kWhite) {
          mark[w] = Mark::kGray;
          parent[w] = u;
          stack.emplace_back(w, 0);
          advanced = true;
          break;
        }
      }
      if (!advanced && idx >= anc.size()) {
        mark[u] = Mark::kBlack;
        stack.pop_back();
      }
    }
  }
  return std::nullopt;
}

}  // namespace

bool has_directed_cycle(const Orientation& o, const AliveFn& alive) {
  return dfs_cycle(o, alive, /*want_cycle=*/false).has_value();
}

std::optional<std::vector<NodeId>> find_directed_cycle(
    const Orientation& o, const AliveFn& alive) {
  return dfs_cycle(o, alive, /*want_cycle=*/true);
}

std::vector<std::uint32_t> longest_live_ancestor_chain(
    const Orientation& o, const AliveFn& alive) {
  const std::size_t n = o.ancestors.size();
  // l[p] counts nodes in the longest all-live chain ending at p (including
  // p). Dead nodes get 0; nodes reaching a live cycle get kUnreachable.
  std::vector<std::uint32_t> l(n, 0);
  std::vector<Mark> mark(n, Mark::kWhite);
  std::vector<std::pair<NodeId, std::size_t>> stack;
  for (std::size_t root = 0; root < n; ++root) {
    if (mark[root] != Mark::kWhite) continue;
    if (!node_alive(alive, static_cast<NodeId>(root))) {
      mark[root] = Mark::kBlack;
      continue;
    }
    stack.clear();
    stack.emplace_back(static_cast<NodeId>(root), 0);
    mark[root] = Mark::kGray;
    while (!stack.empty()) {
      auto& [u, idx] = stack.back();
      const auto& anc = o.ancestors[u];
      bool advanced = false;
      while (idx < anc.size()) {
        const NodeId w = anc[idx++];
        if (!node_alive(alive, w)) continue;
        if (mark[w] == Mark::kGray) {
          l[u] = kUnreachable;  // ancestor chain loops: unbounded
          continue;
        }
        if (mark[w] == Mark::kWhite) {
          mark[w] = Mark::kGray;
          stack.emplace_back(w, 0);
          advanced = true;
          break;
        }
        // Black: already resolved.
        if (l[w] == kUnreachable) l[u] = kUnreachable;
      }
      if (advanced) continue;
      if (idx >= anc.size()) {
        if (l[u] != kUnreachable) {
          std::uint32_t best = 0;
          for (NodeId w : anc) {
            if (!node_alive(alive, w)) continue;
            if (l[w] == kUnreachable) {
              best = kUnreachable;
              break;
            }
            best = std::max(best, l[w]);
          }
          l[u] = (best == kUnreachable) ? kUnreachable : best + 1;
        }
        mark[u] = Mark::kBlack;
        stack.pop_back();
      }
    }
  }
  return l;
}

}  // namespace diners::graph
