#include "core/delta.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

#if CANOPUS_SIMD_X86
#include <immintrin.h>
#endif

namespace canopus::core {

namespace {
/// Minimum per-task iteration count for the per-vertex loops below: tasks
/// cheaper than this cost more to enqueue than to run.
constexpr std::size_t kVertexGrain = 2048;

util::ThreadPool& pool_or_global(util::ThreadPool* pool) {
  return pool ? *pool : util::ThreadPool::global();
}

/// Scalar residual/restore loop over [lo, hi):
///   out[x] = in[x] - Estimate(x)   (add = false, Algorithm 2)
///   out[x] = in[x] + Estimate(x)   (add = true,  Algorithm 3)
void apply_estimate_scalar(const mesh::TriMesh& coarse,
                           const mesh::Field& coarse_values,
                           const VertexMapping& mapping, EstimateMode mode,
                           const double* in, double* out, bool add,
                           std::size_t lo, std::size_t hi) {
  for (std::size_t x = lo; x < hi; ++x) {
    const double est = estimate_value(coarse, coarse_values, mapping, x, mode);
    out[x] = add ? in[x] + est : in[x] - est;
  }
}

#if CANOPUS_SIMD_X86
// Four vertices per step: gather the triangle's corner ids, gather the corner
// values, combine them with the exact operation order of estimate_value
// (mul/add/div intrinsics — never FMA, which would contract the barycentric
// roundings the scalar path performs), and apply the residual. Bitwise
// identical to apply_estimate_scalar lane by lane; kNearestVertex keeps its
// scalar tie-breaking loop.
//
// Gathers are the whole cost of this kernel, so it uses as few as possible:
// the (i, j) corner ids ride one 64-bit gather (corner ids are adjacent in
// the triangle array), and the per-vertex barycentric weights — contiguous
// stride-3 AoS — are loaded with three plain vector loads and transposed in
// registers instead of gathered.
__attribute__((target("avx2"))) void apply_estimate_avx2(
    const std::uint32_t* tri_ids, const std::uint32_t* tri_verts,
    const double* coarse_vals, const double* weights, bool uniform,
    const double* in, double* out, bool add, std::size_t lo, std::size_t hi) {
  const __m128i three = _mm_set1_epi32(3);
  const __m128i two = _mm_set1_epi32(2);
  const __m256d third = _mm256_set1_pd(3.0);
  const __m256i even_dwords = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
  const __m256i odd_dwords = _mm256_setr_epi32(1, 3, 5, 7, 0, 0, 0, 0);
  // Masked gathers with an explicit zero source + all-ones mask: identical to
  // the plain gathers, but without the undefined pass-through operand GCC's
  // unmasked wrappers carry (it trips -Wmaybe-uninitialized at -O2).
  const __m128i imask = _mm_set1_epi32(-1);
  const __m128i izero = _mm_setzero_si128();
  const __m256i qmask = _mm256_set1_epi64x(-1);
  const __m256i qzero = _mm256_setzero_si256();
  const __m256d dmask = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  const __m256d dzero = _mm256_setzero_pd();
  std::size_t x = lo;
  for (; x + 4 <= hi; x += 4) {
    const __m128i t =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(tri_ids + x));
    const __m128i base = _mm_mullo_epi32(t, three);
    const auto* verts = reinterpret_cast<const int*>(tri_verts);
    // verts[3t] and verts[3t+1] are adjacent: one 8-byte gather fetches both,
    // then even/odd dword shuffles split them into the i and j id quadruples.
    const __m256i ij = _mm256_mask_i32gather_epi64(
        qzero, reinterpret_cast<const long long*>(verts), base, qmask, 4);
    const __m128i i0 =
        _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(ij, even_dwords));
    const __m128i i1 =
        _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(ij, odd_dwords));
    const __m128i i2 = _mm_mask_i32gather_epi32(
        izero, verts, _mm_add_epi32(base, two), imask, 4);
    const __m256d vi = _mm256_mask_i32gather_pd(dzero, coarse_vals, i0, dmask, 8);
    const __m256d vj = _mm256_mask_i32gather_pd(dzero, coarse_vals, i1, dmask, 8);
    const __m256d vk = _mm256_mask_i32gather_pd(dzero, coarse_vals, i2, dmask, 8);
    __m256d est;
    if (uniform) {
      est = _mm256_div_pd(_mm256_add_pd(_mm256_add_pd(vi, vj), vk), third);
    } else {
      // AoS->SoA transpose of 12 contiguous weights:
      //   a = [w0_0 w1_0 w2_0 w0_1]  b = [w1_1 w2_1 w0_2 w1_2]
      //   c = [w2_2 w0_3 w1_3 w2_3]
      // w0 = [a0 a3 b2 c1], w1 = [a1 b0 b3 c2], w2 = [a2 b1 c0 c3].
      const double* w = weights + 3 * x;
      const __m256d a = _mm256_loadu_pd(w);
      const __m256d b = _mm256_loadu_pd(w + 4);
      const __m256d c = _mm256_loadu_pd(w + 8);
      const __m256d w0 = _mm256_blend_pd(
          _mm256_blend_pd(_mm256_permute4x64_pd(a, 0x0C),
                          _mm256_permute4x64_pd(b, 0x20), 0b0100),
          _mm256_permute4x64_pd(c, 0x40), 0b1000);
      const __m256d w1 = _mm256_blend_pd(
          _mm256_blend_pd(_mm256_permute4x64_pd(a, 0x01),
                          _mm256_permute4x64_pd(b, 0x30), 0b0110),
          _mm256_permute4x64_pd(c, 0x80), 0b1000);
      const __m256d w2 = _mm256_blend_pd(
          _mm256_blend_pd(_mm256_permute4x64_pd(a, 0x02),
                          _mm256_permute4x64_pd(b, 0x04), 0b0010),
          _mm256_permute4x64_pd(c, 0xC0), 0b1100);
      est = _mm256_add_pd(
          _mm256_add_pd(_mm256_mul_pd(w0, vi), _mm256_mul_pd(w1, vj)),
          _mm256_mul_pd(w2, vk));
    }
    const __m256d v = _mm256_loadu_pd(in + x);
    _mm256_storeu_pd(out + x,
                     add ? _mm256_add_pd(v, est) : _mm256_sub_pd(v, est));
  }
  for (; x < hi; ++x) {
    const std::uint32_t* tri = tri_verts + 3 * tri_ids[x];
    double est;
    if (uniform) {
      est = (coarse_vals[tri[0]] + coarse_vals[tri[1]] + coarse_vals[tri[2]]) /
            3.0;
    } else {
      const double* w = weights + 3 * x;
      est = w[0] * coarse_vals[tri[0]] + w[1] * coarse_vals[tri[1]] +
            w[2] * coarse_vals[tri[2]];
    }
    out[x] = add ? in[x] + est : in[x] - est;
  }
}
#endif  // CANOPUS_SIMD_X86

/// Range dispatcher shared by compute_delta and restore_level.
void apply_estimate(const mesh::TriMesh& coarse,
                    const mesh::Field& coarse_values,
                    const VertexMapping& mapping, EstimateMode mode,
                    const double* in, double* out, bool add, std::size_t lo,
                    std::size_t hi) {
#if CANOPUS_SIMD_X86
  if (util::simd::use_avx2() && (mode == EstimateMode::kUniformThirds ||
                                 mode == EstimateMode::kBarycentric) &&
      !coarse.triangles().empty()) {
    apply_estimate_avx2(mapping.triangle.data(),
                        coarse.triangles().data()->v.data(),
                        coarse_values.data(),
                        mapping.weights.empty()
                            ? nullptr
                            : mapping.weights.data()->data(),
                        mode == EstimateMode::kUniformThirds, in, out, add, lo,
                        hi);
    return;
  }
#endif
  apply_estimate_scalar(coarse, coarse_values, mapping, mode, in, out, add, lo,
                        hi);
}
}  // namespace

VertexMapping build_mapping(const mesh::TriMesh& fine, const mesh::TriMesh& coarse,
                            util::ThreadPool* pool) {
  const mesh::PointLocator locator(coarse);
  VertexMapping m;
  m.triangle.resize(fine.vertex_count());
  m.weights.resize(fine.vertex_count());
  // Point location per vertex is independent; fan out on the pool. Most
  // vertices hit a grid cell directly; rim vertices outside the shrunken
  // coarse mesh take the locator's ring-bounded nearest-triangle search.
  pool_or_global(pool).parallel_for(
      0, fine.vertex_count(),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t v = lo; v < hi; ++v) {
          const auto loc = locator.locate(fine.vertex(v));
          m.triangle[v] = loc.triangle;
          m.weights[v] = loc.weights;
        }
      },
      /*grain=*/512);
  // Quantize before anyone computes deltas against these weights, so the
  // persisted mapping reproduces the in-memory one exactly.
  m.quantize_weights();
  return m;
}

double estimate_value(const mesh::TriMesh& coarse, const mesh::Field& coarse_values,
                      const VertexMapping& mapping, std::size_t fine_vertex,
                      EstimateMode mode) {
  const auto& tri = coarse.triangle(mapping.triangle[fine_vertex]);
  const double vi = coarse_values[tri.v[0]];
  const double vj = coarse_values[tri.v[1]];
  const double vk = coarse_values[tri.v[2]];
  const auto& w = mapping.weights[fine_vertex];
  switch (mode) {
    case EstimateMode::kUniformThirds:
      return (vi + vj + vk) / 3.0;
    case EstimateMode::kBarycentric:
      return w[0] * vi + w[1] * vj + w[2] * vk;
    case EstimateMode::kNearestVertex: {
      const auto best = static_cast<std::size_t>(
          std::max_element(w.begin(), w.end()) - w.begin());
      return coarse_values[tri.v[best]];
    }
  }
  CANOPUS_UNREACHABLE("unknown estimate mode");
}

mesh::Field compute_delta(const mesh::TriMesh& coarse, const mesh::Field& coarse_values,
                          const mesh::Field& fine_values, const VertexMapping& mapping,
                          EstimateMode mode, util::ThreadPool* pool) {
  CANOPUS_CHECK(fine_values.size() == mapping.size(),
                "delta: fine field / mapping size mismatch");
  CANOPUS_CHECK(coarse_values.size() == coarse.vertex_count(),
                "delta: coarse field size mismatch");
  mesh::Field delta(fine_values.size());
  // Each entry is an independent pure function of its inputs, so splitting
  // the range (or widening it into SIMD lanes) cannot change a single bit of
  // the output.
  pool_or_global(pool).parallel_for(
      0, fine_values.size(),
      [&](std::size_t lo, std::size_t hi) {
        apply_estimate(coarse, coarse_values, mapping, mode,
                       fine_values.data(), delta.data(), /*add=*/false, lo, hi);
      },
      kVertexGrain);
  return delta;
}

mesh::Field restore_level(const mesh::TriMesh& coarse, const mesh::Field& coarse_values,
                          const mesh::Field& delta, const VertexMapping& mapping,
                          EstimateMode mode, util::ThreadPool* pool) {
  CANOPUS_CHECK(delta.size() == mapping.size(),
                "restore: delta / mapping size mismatch");
  CANOPUS_CHECK(coarse_values.size() == coarse.vertex_count(),
                "restore: coarse field size mismatch");
  mesh::Field fine(delta.size());
  pool_or_global(pool).parallel_for(
      0, delta.size(),
      [&](std::size_t lo, std::size_t hi) {
        apply_estimate(coarse, coarse_values, mapping, mode, delta.data(),
                       fine.data(), /*add=*/true, lo, hi);
      },
      kVertexGrain);
  return fine;
}

}  // namespace canopus::core
