#include "mesh/decimate.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace canopus::mesh {

namespace {

/// Per-vertex id lists (adjacent vertices or incident triangles), one 64-byte
/// block per vertex: a count, a spill index and 14 inline ids. A list that
/// outgrows its block moves to a heap vector in `spills_` for good. Every
/// mutation has std::vector semantics — push_back, swap-with-back erase of
/// the first match, insert-if-absent and a stable remove_if — so each list
/// holds its ids in exactly the order a std::vector per vertex would, and
/// the collapse loop's iteration order (and with it the collapse sequence)
/// does not depend on the layout.
class IdLists {
 public:
  explicit IdLists(std::size_t n)
      : blocks_(std::make_unique_for_overwrite<Block[]>(n)) {
    // Only the headers: ids past a block's count are never read.
    for (std::size_t v = 0; v < n; ++v) {
      blocks_[v].count = 0;
      blocks_[v].spill = kInline;
    }
  }

  std::span<std::uint32_t> operator[](std::size_t v) {
    Block& b = blocks_[v];
    if (b.spill == kInline) return {b.ids, b.count};
    return spills_[b.spill];
  }
  std::span<const std::uint32_t> operator[](std::size_t v) const {
    const Block& b = blocks_[v];
    if (b.spill == kInline) return {b.ids, b.count};
    return spills_[b.spill];
  }

  bool contains(std::size_t v, std::uint32_t x) const {
    const auto xs = (*this)[v];
    return std::find(xs.begin(), xs.end(), x) != xs.end();
  }

  void push_back(std::size_t v, std::uint32_t x) {
    Block& b = blocks_[v];
    if (b.spill != kInline) {
      spills_[b.spill].push_back(x);
    } else if (b.count < kCapacity) {
      b.ids[b.count++] = x;
    } else {
      auto& spill = spills_.emplace_back();
      spill.reserve(2 * kCapacity);
      spill.assign(b.ids, b.ids + b.count);
      spill.push_back(x);
      b.spill = static_cast<std::uint32_t>(spills_.size() - 1);
    }
  }

  void insert_unique(std::size_t v, std::uint32_t x) {
    if (!contains(v, x)) push_back(v, x);
  }

  /// Overwrites the first `x` with the last id and drops the last slot.
  void erase(std::size_t v, std::uint32_t x) {
    const auto xs = (*this)[v];
    const auto it = std::find(xs.begin(), xs.end(), x);
    if (it == xs.end()) return;
    *it = xs.back();
    shrink(v, xs.size() - 1);
  }

  /// Stable: survivors keep their relative order.
  template <class Pred>
  void remove_if(std::size_t v, Pred pred) {
    const auto xs = (*this)[v];
    const auto end = std::remove_if(xs.begin(), xs.end(), pred);
    shrink(v, static_cast<std::size_t>(end - xs.begin()));
  }

  void clear(std::size_t v) { shrink(v, 0); }

 private:
  static constexpr std::uint32_t kCapacity = 14;
  static constexpr std::uint32_t kInline = ~std::uint32_t{0};
  struct alignas(64) Block {
    std::uint32_t count;  // live ids while inline
    std::uint32_t spill;  // index into spills_, or kInline
    std::uint32_t ids[kCapacity];
  };
  static_assert(sizeof(Block) == 64, "one cache line per vertex");

  void shrink(std::size_t v, std::size_t size) {
    Block& b = blocks_[v];
    if (b.spill == kInline) {
      b.count = static_cast<std::uint32_t>(size);
    } else {
      spills_[b.spill].resize(size);
    }
  }

  std::unique_ptr<Block[]> blocks_;
  std::vector<std::vector<std::uint32_t>> spills_;
};

/// Mutable mesh scratch state for the collapse loop. Vertex slot `i` survives
/// a collapse of edge (i, j) and is moved to the midpoint; slot `j` dies.
struct Workspace {
  explicit Workspace(const TriMesh& mesh)
      : pos(mesh.vertices()),
        vertex_alive(pos.size(), 1),
        nbr(pos.size()),
        tris(mesh.triangles()),
        tri_alive(tris.size(), 1),
        inc(pos.size()),
        version(pos.size(), 0) {}

  std::vector<Vec2> pos;
  std::vector<double> val;
  std::vector<std::uint8_t> vertex_alive;
  IdLists nbr;                        // adjacent alive vertices
  std::vector<Triangle> tris;
  std::vector<std::uint8_t> tri_alive;
  IdLists inc;                        // incident alive triangles
  std::vector<std::uint32_t> version;  // bumped on any change at v
};

struct HeapEntry {
  double priority;
  VertexId a, b;
  std::uint32_t va_version, vb_version;
  // Min-heap via reversed comparison in a max-heap.
  bool operator<(const HeapEntry& o) const { return priority > o.priority; }
};

class Decimator {
 public:
  Decimator(const TriMesh& mesh, const Field& values, const DecimateOptions& opt)
      : opt_(opt), rng_(opt.seed), ws_(mesh) {
    CANOPUS_CHECK(values.size() == mesh.vertex_count(),
                  "field size does not match vertex count");
    CANOPUS_CHECK(opt.ratio >= 1.0, "decimation ratio must be >= 1");
    ws_.val = values;
    const std::size_t n = ws_.pos.size();
    // One pass over the triangles fills both lists: incident triangles in
    // ascending id, and each vertex's neighbour set, then sorted ascending —
    // the lists a sorted unique edge list would give, without sorting all
    // 3T half-edges globally.
    for (TriangleId t = 0; t < ws_.tris.size(); ++t) {
      const auto& tv = ws_.tris[t].v;
      for (int k = 0; k < 3; ++k) {
        ws_.inc.push_back(tv[k], t);
        ws_.nbr.insert_unique(tv[k], tv[(k + 1) % 3]);
        ws_.nbr.insert_unique(tv[k], tv[(k + 2) % 3]);
      }
    }
    std::size_t half_edges = 0;
    for (VertexId v = 0; v < n; ++v) {
      const auto xs = ws_.nbr[v];
      std::sort(xs.begin(), xs.end());
      half_edges += xs.size();
    }
    // Scale-aware degeneracy threshold (squared area units).
    const auto box = mesh.bounds();
    const double diag2 = box.width() * box.width() + box.height() * box.height();
    min_area2_ = 1e-14 * diag2;
    if (opt.priority == EdgePriority::kGradientWeighted) {
      const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
      value_range_ = std::max(*hi - *lo, 1e-300);
    }
    // Seed the heap in sorted (a, b), a < b edge order: the push order (and,
    // for kRandom, the draw order) that fixes every later tie.
    heap_.reserve(half_edges);  // the E seeds plus as many re-keys
    for (VertexId a = 0; a < n; ++a) {
      for (VertexId b : ws_.nbr[a]) {
        if (b > a) push_edge(a, b);
      }
    }
  }

  DecimateResult run() {
    const std::size_t n0 = ws_.pos.size();
    const double cut_fraction_target = 1.0 - 1.0 / opt_.ratio;
    std::size_t cut = 0;
    std::size_t rejected = 0;
    while (static_cast<double>(cut) / static_cast<double>(n0) < cut_fraction_target &&
           !heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end());
      const HeapEntry e = heap_.back();
      heap_.pop_back();
      if (!entry_valid(e)) continue;
      if (try_collapse(e.a, e.b)) {
        ++cut;
      } else {
        ++rejected;
      }
    }
    DecimateResult r = compact();
    r.achieved_ratio = static_cast<double>(n0) / static_cast<double>(r.mesh.vertex_count());
    r.collapses = cut;
    r.rejected = rejected;
    return r;
  }

 private:
  double edge_priority(VertexId a, VertexId b) {
    const double len = distance(ws_.pos[a], ws_.pos[b]);
    switch (opt_.priority) {
      case EdgePriority::kShortestFirst:
        return len;
      case EdgePriority::kRandom:
        return rng_.uniform();
      case EdgePriority::kGradientWeighted:
        return len * (1.0 + opt_.gradient_weight *
                                std::abs(ws_.val[a] - ws_.val[b]) / value_range_);
    }
    CANOPUS_UNREACHABLE("unknown edge priority");
  }

  void push_edge(VertexId a, VertexId b) {
    heap_.push_back(HeapEntry{edge_priority(a, b), a, b, ws_.version[a], ws_.version[b]});
    std::push_heap(heap_.begin(), heap_.end());
  }

  bool entry_valid(const HeapEntry& e) const {
    return ws_.vertex_alive[e.a] && ws_.vertex_alive[e.b] &&
           ws_.version[e.a] == e.va_version && ws_.version[e.b] == e.vb_version &&
           ws_.nbr.contains(e.a, e.b);
  }

  /// Link condition: the set of vertices adjacent to both endpoints must be
  /// exactly the opposite vertices of the triangles sharing the edge.
  bool link_condition_ok(VertexId i, VertexId j) {
    opposite_.clear();
    for (TriangleId t : ws_.inc[i]) {
      if (!ws_.tri_alive[t]) continue;
      const auto& tv = ws_.tris[t].v;
      const bool has_j = tv[0] == j || tv[1] == j || tv[2] == j;
      if (!has_j) continue;
      for (VertexId v : tv) {
        if (v != i && v != j) opposite_.push_back(v);
      }
    }
    std::size_t common = 0;
    for (VertexId n : ws_.nbr[i]) {
      if (ws_.nbr.contains(j, n)) {
        ++common;
        if (std::find(opposite_.begin(), opposite_.end(), n) == opposite_.end()) {
          return false;  // shared neighbor not across the edge -> pinch
        }
      }
    }
    return common == opposite_.size() && !opposite_.empty();
  }

  /// Checks every surviving triangle around i or j keeps positive area when
  /// the collapsed endpoint moves to `m`.
  bool geometry_ok(VertexId i, VertexId j, Vec2 m) const {
    auto survives_ok = [&](VertexId endpoint) {
      for (TriangleId t : ws_.inc[endpoint]) {
        if (!ws_.tri_alive[t]) continue;
        const auto& tv = ws_.tris[t].v;
        const bool has_i = tv[0] == i || tv[1] == i || tv[2] == i;
        const bool has_j = tv[0] == j || tv[1] == j || tv[2] == j;
        if (has_i && has_j) continue;  // dies with the collapse
        Vec2 p[3];
        for (int k = 0; k < 3; ++k) {
          p[k] = (tv[k] == i || tv[k] == j) ? m : ws_.pos[tv[k]];
        }
        if (signed_area2(p[0], p[1], p[2]) <= min_area2_) return false;
      }
      return true;
    };
    return survives_ok(i) && survives_ok(j);
  }

  bool try_collapse(VertexId i, VertexId j) {
    if (!link_condition_ok(i, j)) return false;
    const Vec2 m = (ws_.pos[i] + ws_.pos[j]) * 0.5;  // NewVertex(Vi, Vj)
    if (!geometry_ok(i, j, m)) return false;

    // Kill triangles containing the edge.
    for (TriangleId t : ws_.inc[i]) {
      if (!ws_.tri_alive[t]) continue;
      const auto& tv = ws_.tris[t].v;
      if (tv[0] == j || tv[1] == j || tv[2] == j) {
        ws_.tri_alive[t] = 0;
        for (VertexId v : tv) {
          if (v != i) ws_.inc.erase(v, t);
        }
      }
    }
    ws_.inc.remove_if(i, [&](TriangleId t) { return !ws_.tri_alive[t]; });

    // Rewire triangles that referenced only j.
    for (TriangleId t : ws_.inc[j]) {
      if (!ws_.tri_alive[t]) continue;
      for (VertexId& v : ws_.tris[t].v) {
        if (v == j) v = i;
      }
      ws_.inc.push_back(i, t);
    }
    ws_.inc.clear(j);

    // Merge adjacency: neighbors of j become neighbors of i.
    for (VertexId n : ws_.nbr[j]) {
      if (n == i) continue;
      ws_.nbr.erase(n, j);
      ws_.nbr.insert_unique(n, i);
      ws_.nbr.insert_unique(i, n);
    }
    ws_.nbr.erase(i, j);
    ws_.nbr.clear(j);

    // Move i to the midpoint, average the data (NewData = mean).
    ws_.pos[i] = m;
    ws_.val[i] = (ws_.val[i] + ws_.val[j]) * 0.5;
    ws_.vertex_alive[j] = 0;
    collapse_log_.emplace_back(i, j);

    // Invalidate stale heap entries and re-key every edge incident to i.
    ++ws_.version[i];
    ++ws_.version[j];
    for (VertexId n : ws_.nbr[i]) push_edge(i, n);
    return true;
  }

  DecimateResult compact() const {
    std::vector<VertexId> remap(ws_.pos.size(), kInvalidVertex);
    std::vector<Vec2> vertices;
    Field values;
    auto has_live_triangle = [&](VertexId v) {
      for (TriangleId t : ws_.inc[v]) {
        if (ws_.tri_alive[t]) return true;
      }
      return false;
    };
    // A collapse can orphan a boundary-corner vertex whose only triangle died;
    // drop such vertices so the compacted mesh has no isolated vertices.
    std::vector<VertexId> survivors;
    for (VertexId v = 0; v < ws_.pos.size(); ++v) {
      if (ws_.vertex_alive[v] && has_live_triangle(v)) {
        remap[v] = static_cast<VertexId>(vertices.size());
        vertices.push_back(ws_.pos[v]);
        values.push_back(ws_.val[v]);
        survivors.push_back(v);
      }
    }
    std::vector<Triangle> tris;
    for (TriangleId t = 0; t < ws_.tris.size(); ++t) {
      if (!ws_.tri_alive[t]) continue;
      Triangle tri = ws_.tris[t];
      for (VertexId& v : tri.v) v = remap[v];
      tris.push_back(tri);
    }
    DecimateResult r;
    r.mesh = TriMesh(std::move(vertices), std::move(tris));
    r.values = std::move(values);
    r.collapse_log = collapse_log_;
    r.survivor_slots = std::move(survivors);
    return r;
  }

  DecimateOptions opt_;
  util::Rng rng_;
  Workspace ws_;
  // A binary heap driven by std::push_heap/std::pop_heap, the calls
  // std::priority_queue is specified to make, so entries of equal priority
  // pop in exactly priority_queue's order.
  std::vector<HeapEntry> heap_;
  std::vector<VertexId> opposite_;  // link_condition_ok scratch
  std::vector<std::pair<VertexId, VertexId>> collapse_log_;
  double min_area2_ = 0.0;
  double value_range_ = 1.0;
};

}  // namespace

DecimateResult decimate(const TriMesh& mesh, const Field& values,
                        const DecimateOptions& options) {
  Decimator d(mesh, values, options);
  return d.run();
}

Field replay_decimation(const DecimateResult& recipe, const Field& values) {
  Field work = values;
  for (const auto& [i, j] : recipe.collapse_log) {
    CANOPUS_CHECK(i < work.size() && j < work.size(),
                  "replay: collapse log does not match field size");
    work[i] = (work[i] + work[j]) * 0.5;
  }
  Field out;
  out.reserve(recipe.survivor_slots.size());
  for (VertexId slot : recipe.survivor_slots) {
    CANOPUS_CHECK(slot < work.size(), "replay: survivor slot out of range");
    out.push_back(work[slot]);
  }
  return out;
}

}  // namespace canopus::mesh
