#include "graph/atoms.h"

#include <algorithm>
#include <cstdint>

#include "graph/mcsm.h"
#include "support/diagnostics.h"

namespace parmem::graph {

std::vector<Atom> decompose_by_clique_separators(const Graph& g) {
  const std::size_t n = g.vertex_count();
  std::vector<Atom> atoms;
  if (n == 0) return atoms;

  const Triangulation tri = mcs_m(g);

  // Adjacency of H = G + F, as sorted neighbor lists: gather the fill
  // edges per vertex, then one sorted merge per row (tri.fill is sorted, so
  // per-vertex fill lists come out sorted) instead of per-edge insertion.
  std::vector<std::vector<Vertex>> h_adj(n);
  std::vector<std::vector<Vertex>> fill_of(n);
  for (const auto& [u, v] : tri.fill) {
    fill_of[u].push_back(v);
    fill_of[v].push_back(u);
  }
  for (Vertex v = 0; v < n; ++v) {
    const auto nb = g.neighbors(v);
    std::sort(fill_of[v].begin(), fill_of[v].end());
    h_adj[v].resize(nb.size() + fill_of[v].size());
    std::merge(nb.begin(), nb.end(), fill_of[v].begin(), fill_of[v].end(),
               h_adj[v].begin());
  }

  std::vector<std::size_t> pos(n);
  for (std::size_t i = 0; i < n; ++i) pos[tri.order[i]] = i;

  std::vector<bool> alive(n, true);
  std::size_t alive_count = n;

  // Epoch marks shared by every candidate split: v is in the current
  // separator iff sep_mark[v] == epoch, and reached by the current
  // component search iff comp_mark[v] == epoch. Bumping the epoch clears
  // both in O(1), so a split costs O(its component + separator), not the
  // O(n) of copying `alive` into a mask and clearing a visited array.
  std::vector<Vertex> sep;
  std::vector<std::uint32_t> sep_mark(n, 0);
  std::vector<std::uint32_t> comp_mark(n, 0);
  std::uint32_t epoch = 0;
  std::vector<Vertex> stack;
  // Component of `start` among the alive vertices outside the current
  // separator, sorted ascending.
  const auto component = [&](Vertex start) {
    std::vector<Vertex> comp;
    comp_mark[start] = epoch;
    stack.assign(1, start);
    while (!stack.empty()) {
      const Vertex v = stack.back();
      stack.pop_back();
      comp.push_back(v);
      for (const Vertex w : g.neighbors(v)) {
        if (alive[w] && sep_mark[w] != epoch && comp_mark[w] != epoch) {
          comp_mark[w] = epoch;
          stack.push_back(w);
        }
      }
    }
    std::sort(comp.begin(), comp.end());
    return comp;
  };

  for (std::size_t i = 0; i < n; ++i) {
    const Vertex x = tri.order[i];
    if (!alive[x]) continue;  // already split off inside some component

    // S = later neighbors of x in H that are still alive.
    sep.clear();
    for (const Vertex w : h_adj[x]) {
      if (pos[w] > i && alive[w]) sep.push_back(w);
    }
    if (sep.empty()) continue;              // x isolated in the remainder
    if (!g.is_clique(sep)) continue;        // not a clique separator of G

    // Component of x with S removed.
    ++epoch;
    for (const Vertex s : sep) sep_mark[s] = epoch;
    std::vector<Vertex> comp = component(x);

    // S must actually separate: the component plus S must not be everything
    // still alive (otherwise this split would swallow the whole remainder).
    if (comp.size() + sep.size() >= alive_count) continue;

    // S must be a *minimal* separator between C and the rest: every
    // separator vertex needs a neighbor on both sides. Splitting on a
    // non-minimal clique separator would emit non-maximal atoms (e.g. a
    // sub-clique of a maximal clique in a chordal graph).
    bool minimal = true;
    for (const Vertex s : sep) {
      bool to_comp = false, to_rest = false;
      for (const Vertex w : g.neighbors(s)) {
        if (!alive[w]) continue;
        if (comp_mark[w] == epoch) to_comp = true;
        else if (sep_mark[w] != epoch) to_rest = true;
      }
      if (!to_comp || !to_rest) {
        minimal = false;
        break;
      }
    }
    if (!minimal) continue;

    Atom atom;
    atom.vertices = comp;
    atom.vertices.insert(atom.vertices.end(), sep.begin(), sep.end());
    std::sort(atom.vertices.begin(), atom.vertices.end());
    atom.separator = sep;  // already sorted (h_adj is sorted)
    atoms.push_back(std::move(atom));

    for (const Vertex c : comp) {
      alive[c] = false;
      --alive_count;
    }
  }

  // Whatever remains forms the final atoms — one per connected component of
  // the remainder, each with an empty separator. One fresh epoch (no
  // separator marked) covers them all: comp_mark then flags emitted ones.
  ++epoch;
  for (Vertex v = 0; v < n; ++v) {
    if (!alive[v] || comp_mark[v] == epoch) continue;
    Atom last;
    last.vertices = component(v);
    atoms.push_back(std::move(last));
  }
  PARMEM_CHECK(!atoms.empty(), "decomposition must produce at least one atom");
  return atoms;
}

}  // namespace parmem::graph
