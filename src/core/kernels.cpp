#include "core/kernels.hpp"

#include "util/error.hpp"
#include "util/hot.hpp"

namespace awp::core {

namespace {

using grid::StaggeredGrid;

constexpr float kC1 = 9.0f / 8.0f;
constexpr float kC2 = -1.0f / 24.0f;

// Widest stencil offset on any axis: every row reads cells i-2 .. i+2
// (likewise in j and k) around the cells it writes.
constexpr std::size_t kReach = 2;

// ---------------------------------------------------------------------------
// Memory-variable update for one stress component (coarse-grained constant
// Q, §II.A). `a` is the elastic stress increment for this step; returns the
// anelastic correction to add to the stress.
// ---------------------------------------------------------------------------

inline float attenuate(float& r, float tau, float qinv, float a, float dt) {
  const float htau = 0.5f * dt / tau;
  const float rNew = (r * (1.0f - htau) - qinv * a / tau) / (1.0f + htau);
  const float corr = 0.5f * dt * (rNew + r);
  r = rNew;
  return corr;
}

// ---------------------------------------------------------------------------
// Loop drivers: plain j/k double loop, or the §IV.B kblock/jblock tiling
// ("the values of kblock and jblock are chosen to guarantee that the
// operands on subsequent planes are still in cache").
// ---------------------------------------------------------------------------

template <typename RowFn>
AWP_HOT void driveRange(std::size_t k0, std::size_t k1, const Region& r,
                const KernelOptions& o, RowFn&& row) {
  if (!o.cacheBlocked) {
    for (std::size_t k = k0; k < k1; ++k)
      for (std::size_t j = r.j0; j < r.j1; ++j) row(j, k);
    return;
  }
  const auto kb = static_cast<std::size_t>(o.kblock);
  const auto jb = static_cast<std::size_t>(o.jblock);
  for (std::size_t kk = k0; kk < k1; kk += kb)
    for (std::size_t jj = r.j0; jj < r.j1; jj += jb)
      for (std::size_t k = kk; k < std::min(kk + kb, k1); ++k)
        for (std::size_t j = jj; j < std::min(jj + jb, r.j1); ++j) row(j, k);
}

template <typename RowFn>
AWP_HOT void driveLoops(const Region& r, const KernelOptions& o, RowFn&& row) {
  if (o.pool == nullptr) {
    driveRange(r.k0, r.k1, r, o, row);
    return;
  }
  // Hybrid mode (§IV.D): k-slabs across the intra-rank threads. Rows only
  // write their own (j, k) cells, so slabs are data-race free.
  o.pool->parallelFor(r.k0, r.k1,
                      [&](std::size_t k0, std::size_t k1) {
                        driveRange(k0, k1, r, o, row);
                      });
}

// ===========================================================================
// Production rows. Each row is a contiguous-i loop over raw float pointers:
// every stencil operand has its own pointer, shifted once from the row's
// origin (0, j, k) by the precomputed j/k strides, so the loop body only
// reads p[i]. That keeps every access affine in i for the vectorizer, and
// `#pragma GCC ivdep` states that the distinct fields do not alias
// (without it GCC 12 vectorizes none of these rows). The arithmetic is
// the reference rows' expression for expression, and vector and
// scalar-remainder iterations round identically, so the results are
// bit-identical to the reference kernel.
// ===========================================================================

// Strides of the grid's raw arrays and the offset of row origin (0, j, k).
struct RowAt {
  std::size_t o, sj, sk;
};

inline RowAt rowAt(const StaggeredGrid& g, std::size_t j, std::size_t k) {
  const std::size_t sj = g.sx();
  const std::size_t sk = sj * g.sy();
  return RowAt{j * sj + k * sk, sj, sk};
}

// Velocity rows. dth = dt / h.

inline void rowU(StaggeredGrid& g, const RowAt& at, std::size_t i0,
                 std::size_t i1, float dth) {
  const std::size_t sj = at.sj, sk = at.sk;
  float* u = g.u.data() + at.o;
  const float* rho = g.rho.data() + at.o;
  const float* rho_m1 = rho - 1;
  const float* xx = g.xx.data() + at.o;
  const float* xx_m1 = xx - 1;
  const float* xx_p1 = xx + 1;
  const float* xx_m2 = xx - 2;
  const float* xy = g.xy.data() + at.o;
  const float* xy_msj = xy - sj;
  const float* xy_psj = xy + sj;
  const float* xy_m2sj = xy - 2 * sj;
  const float* xz = g.xz.data() + at.o;
  const float* xz_msk = xz - sk;
  const float* xz_psk = xz + sk;
  const float* xz_m2sk = xz - 2 * sk;
#pragma GCC ivdep
  for (std::size_t i = i0; i < i1; ++i) {
    const float d = 0.5f * (rho[i] + rho_m1[i]);
    u[i] += (dth / d) *
            (kC1 * (xx[i] - xx_m1[i]) + kC2 * (xx_p1[i] - xx_m2[i]) +
             kC1 * (xy[i] - xy_msj[i]) + kC2 * (xy_psj[i] - xy_m2sj[i]) +
             kC1 * (xz[i] - xz_msk[i]) + kC2 * (xz_psk[i] - xz_m2sk[i]));
  }
}

inline void rowV(StaggeredGrid& g, const RowAt& at, std::size_t i0,
                 std::size_t i1, float dth) {
  const std::size_t sj = at.sj, sk = at.sk;
  float* v = g.v.data() + at.o;
  const float* rho = g.rho.data() + at.o;
  const float* rho_psj = rho + sj;
  const float* xy = g.xy.data() + at.o;
  const float* xy_p1 = xy + 1;
  const float* xy_p2 = xy + 2;
  const float* xy_m1 = xy - 1;
  const float* yy = g.yy.data() + at.o;
  const float* yy_psj = yy + sj;
  const float* yy_p2sj = yy + 2 * sj;
  const float* yy_msj = yy - sj;
  const float* yz = g.yz.data() + at.o;
  const float* yz_msk = yz - sk;
  const float* yz_psk = yz + sk;
  const float* yz_m2sk = yz - 2 * sk;
#pragma GCC ivdep
  for (std::size_t i = i0; i < i1; ++i) {
    const float d = 0.5f * (rho[i] + rho_psj[i]);
    v[i] += (dth / d) *
            (kC1 * (xy_p1[i] - xy[i]) + kC2 * (xy_p2[i] - xy_m1[i]) +
             kC1 * (yy_psj[i] - yy[i]) + kC2 * (yy_p2sj[i] - yy_msj[i]) +
             kC1 * (yz[i] - yz_msk[i]) + kC2 * (yz_psk[i] - yz_m2sk[i]));
  }
}

inline void rowW(StaggeredGrid& g, const RowAt& at, std::size_t i0,
                 std::size_t i1, float dth) {
  const std::size_t sj = at.sj, sk = at.sk;
  float* w = g.w.data() + at.o;
  const float* rho = g.rho.data() + at.o;
  const float* rho_psk = rho + sk;
  const float* xz = g.xz.data() + at.o;
  const float* xz_p1 = xz + 1;
  const float* xz_p2 = xz + 2;
  const float* xz_m1 = xz - 1;
  const float* yz = g.yz.data() + at.o;
  const float* yz_msj = yz - sj;
  const float* yz_psj = yz + sj;
  const float* yz_m2sj = yz - 2 * sj;
  const float* zz = g.zz.data() + at.o;
  const float* zz_psk = zz + sk;
  const float* zz_p2sk = zz + 2 * sk;
  const float* zz_msk = zz - sk;
#pragma GCC ivdep
  for (std::size_t i = i0; i < i1; ++i) {
    const float d = 0.5f * (rho[i] + rho_psk[i]);
    w[i] += (dth / d) *
            (kC1 * (xz_p1[i] - xz[i]) + kC2 * (xz_p2[i] - xz_m1[i]) +
             kC1 * (yz[i] - yz_msj[i]) + kC2 * (yz_psj[i] - yz_m2sj[i]) +
             kC1 * (zz_psk[i] - zz[i]) + kC2 * (zz_p2sk[i] - zz_msk[i]));
  }
}

// Stress rows. Atten selects the memory-variable update at compile time.
// The attenuation arrays are empty when attenuation is off, so their
// pointers are only formed when Atten holds.

template <bool Atten>
inline void rowNormal(StaggeredGrid& g, const RowAt& at, std::size_t i0,
                      std::size_t i1, float dth, float dt) {
  const std::size_t sj = at.sj, sk = at.sk;
  const float* u = g.u.data() + at.o;
  const float* u_p1 = u + 1;
  const float* u_p2 = u + 2;
  const float* u_m1 = u - 1;
  const float* v = g.v.data() + at.o;
  const float* v_msj = v - sj;
  const float* v_psj = v + sj;
  const float* v_m2sj = v - 2 * sj;
  const float* w = g.w.data() + at.o;
  const float* w_msk = w - sk;
  const float* w_psk = w + sk;
  const float* w_m2sk = w - 2 * sk;
  const float* lam = g.lam.data() + at.o;
  const float* mu = g.mu.data() + at.o;
  float* xx = g.xx.data() + at.o;
  float* yy = g.yy.data() + at.o;
  float* zz = g.zz.data() + at.o;
  const float* tau = nullptr;
  const float* qinv = nullptr;
  float* rxx = nullptr;
  float* ryy = nullptr;
  float* rzz = nullptr;
  if constexpr (Atten) {
    tau = g.tauSigma.data() + at.o;
    qinv = g.qpInv.data() + at.o;
    rxx = g.rxx.data() + at.o;
    ryy = g.ryy.data() + at.o;
    rzz = g.rzz.data() + at.o;
  }
#pragma GCC ivdep
  for (std::size_t i = i0; i < i1; ++i) {
    const float exx = kC1 * (u_p1[i] - u[i]) + kC2 * (u_p2[i] - u_m1[i]);
    const float eyy = kC1 * (v[i] - v_msj[i]) + kC2 * (v_psj[i] - v_m2sj[i]);
    const float ezz = kC1 * (w[i] - w_msk[i]) + kC2 * (w_psk[i] - w_m2sk[i]);
    const float tr = exx + eyy + ezz;
    const float l = lam[i];
    const float m2 = 2.0f * mu[i];
    float axx = dth * (l * tr + m2 * exx);
    float ayy = dth * (l * tr + m2 * eyy);
    float azz = dth * (l * tr + m2 * ezz);
    if constexpr (Atten) {
      axx += attenuate(rxx[i], tau[i], qinv[i], axx, dt);
      ayy += attenuate(ryy[i], tau[i], qinv[i], ayy, dt);
      azz += attenuate(rzz[i], tau[i], qinv[i], azz, dt);
    }
    xx[i] += axx;
    yy[i] += ayy;
    zz[i] += azz;
  }
}

// One shear-stress row, shared by xy, xz and yz:
//   s += dth * m * (kC1 (a1 - a0) + kC2 (a2 - am)
//                 + kC1 (b1 - b0) + kC2 (b2 - bm))
// with m = 4 / (m0 + m1 + m2 + m3) the harmonic mean of μ from the stored
// reciprocals around the node. Operands are pre-shifted pointers; r, tau
// and qinv are the memory variable, relaxation time and 2/Qs factor (null
// unless Atten).
struct ShearRow {
  float* s;
  const float *m0, *m1, *m2, *m3;
  const float *a1, *a0, *a2, *am;
  const float *b1, *b0, *b2, *bm;
  float* r;
  const float *tau, *qinv;
};

template <bool Atten>
inline void rowShear(const ShearRow& p, std::size_t i0, std::size_t i1,
                     float dth, float dt) {
  float* s = p.s;
  const float *m0 = p.m0, *m1 = p.m1, *m2 = p.m2, *m3 = p.m3;
  const float *a1 = p.a1, *a0 = p.a0, *a2 = p.a2, *am = p.am;
  const float *b1 = p.b1, *b0 = p.b0, *b2 = p.b2, *bm = p.bm;
  float* r = p.r;
  const float *tau = p.tau, *qinv = p.qinv;
#pragma GCC ivdep
  for (std::size_t i = i0; i < i1; ++i) {
    const float m = 4.0f / (m0[i] + m1[i] + m2[i] + m3[i]);
    const float e = kC1 * (a1[i] - a0[i]) + kC2 * (a2[i] - am[i]) +
                    kC1 * (b1[i] - b0[i]) + kC2 * (b2[i] - bm[i]);
    float a = dth * m * e;
    if constexpr (Atten) a += attenuate(r[i], tau[i], qinv[i], a, dt);
    s[i] += a;
  }
}

// The shear operands of one row. Each group names its four μ cells and
// its two derivative pairs in the reference rows' order.
template <bool Atten>
ShearRow shearOperands(StaggeredGrid& g, StressGroup group, const RowAt& at) {
  const std::size_t sj = at.sj, sk = at.sk;
  const float* mui = g.mui.data() + at.o;
  const float* u = g.u.data() + at.o;
  const float* v = g.v.data() + at.o;
  const float* w = g.w.data() + at.o;
  ShearRow p{};
  Array3f* s = &g.xy;
  Array3f* r = &g.rxy;
  switch (group) {
    case StressGroup::XY:  // ∂u/∂y + ∂v/∂x
      p.m0 = mui - 1, p.m1 = mui, p.m2 = mui - 1 + sj, p.m3 = mui + sj;
      p.a1 = u + sj, p.a0 = u, p.a2 = u + 2 * sj, p.am = u - sj;
      p.b1 = v, p.b0 = v - 1, p.b2 = v + 1, p.bm = v - 2;
      break;
    case StressGroup::XZ:  // ∂u/∂z + ∂w/∂x
      s = &g.xz, r = &g.rxz;
      p.m0 = mui - 1, p.m1 = mui, p.m2 = mui - 1 + sk, p.m3 = mui + sk;
      p.a1 = u + sk, p.a0 = u, p.a2 = u + 2 * sk, p.am = u - sk;
      p.b1 = w, p.b0 = w - 1, p.b2 = w + 1, p.bm = w - 2;
      break;
    default:  // YZ: ∂v/∂z + ∂w/∂y
      s = &g.yz, r = &g.ryz;
      p.m0 = mui, p.m1 = mui + sj, p.m2 = mui + sk, p.m3 = mui + sj + sk;
      p.a1 = v + sk, p.a0 = v, p.a2 = v + 2 * sk, p.am = v - sk;
      p.b1 = w + sj, p.b0 = w, p.b2 = w + 2 * sj, p.bm = w - sj;
      break;
  }
  p.s = s->data() + at.o;
  if constexpr (Atten) {
    p.r = r->data() + at.o;
    p.tau = g.tauSigma.data() + at.o;
    p.qinv = g.qsInv.data() + at.o;
  }
  return p;
}

// The one bounds check standing in for the reference rows' per-access
// asserts: the region plus the stencil reach lies inside the raw arrays,
// and every array a kernel reads has the grid's raw shape (the rows index
// all of them with one set of strides).
bool regionInBounds(const StaggeredGrid& g, const Region& r) {
  const auto axisOk = [](std::size_t lo, std::size_t hi, std::size_t n) {
    return lo >= kReach && lo <= hi && hi + kReach <= n;
  };
  if (!axisOk(r.i0, r.i1, g.sx()) || !axisOk(r.j0, r.j1, g.sy()) ||
      !axisOk(r.k0, r.k1, g.sz()))
    return false;
  const auto shaped = [&](const Array3f& f) {
    return f.nx() == g.sx() && f.ny() == g.sy() && f.nz() == g.sz();
  };
  for (const Array3f* f : {&g.u, &g.v, &g.w, &g.xx, &g.yy, &g.zz, &g.xy,
                           &g.xz, &g.yz, &g.rho, &g.lam, &g.mu, &g.mui})
    if (!shaped(*f)) return false;
  if (g.attenuation().enabled)
    for (const Array3f* f : {&g.rxx, &g.ryy, &g.rzz, &g.rxy, &g.rxz, &g.ryz,
                             &g.tauSigma, &g.qsInv, &g.qpInv})
      if (!shaped(*f)) return false;
  return true;
}

// ===========================================================================
// Reference rows: the scalar, accessor-based form (every field access goes
// through Array3::operator() and its bounds assert). Kept as the
// bit-exactness oracle for the production rows and for the §IV.B
// reciprocal-vs-division measurement.
// ===========================================================================

namespace ref {

inline void rowU(StaggeredGrid& g, std::size_t j, std::size_t k,
                 std::size_t i0, std::size_t i1, float dth) {
  auto& u = g.u;
  const auto& xx = g.xx;
  const auto& xy = g.xy;
  const auto& xz = g.xz;
  const auto& rho = g.rho;
  for (std::size_t i = i0; i < i1; ++i) {
    const float d = 0.5f * (rho(i, j, k) + rho(i - 1, j, k));
    u(i, j, k) +=
        (dth / d) *
        (kC1 * (xx(i, j, k) - xx(i - 1, j, k)) +
         kC2 * (xx(i + 1, j, k) - xx(i - 2, j, k)) +
         kC1 * (xy(i, j, k) - xy(i, j - 1, k)) +
         kC2 * (xy(i, j + 1, k) - xy(i, j - 2, k)) +
         kC1 * (xz(i, j, k) - xz(i, j, k - 1)) +
         kC2 * (xz(i, j, k + 1) - xz(i, j, k - 2)));
  }
}

inline void rowV(StaggeredGrid& g, std::size_t j, std::size_t k,
                 std::size_t i0, std::size_t i1, float dth) {
  auto& v = g.v;
  const auto& xy = g.xy;
  const auto& yy = g.yy;
  const auto& yz = g.yz;
  const auto& rho = g.rho;
  for (std::size_t i = i0; i < i1; ++i) {
    const float d = 0.5f * (rho(i, j, k) + rho(i, j + 1, k));
    v(i, j, k) +=
        (dth / d) *
        (kC1 * (xy(i + 1, j, k) - xy(i, j, k)) +
         kC2 * (xy(i + 2, j, k) - xy(i - 1, j, k)) +
         kC1 * (yy(i, j + 1, k) - yy(i, j, k)) +
         kC2 * (yy(i, j + 2, k) - yy(i, j - 1, k)) +
         kC1 * (yz(i, j, k) - yz(i, j, k - 1)) +
         kC2 * (yz(i, j, k + 1) - yz(i, j, k - 2)));
  }
}

inline void rowW(StaggeredGrid& g, std::size_t j, std::size_t k,
                 std::size_t i0, std::size_t i1, float dth) {
  auto& w = g.w;
  const auto& xz = g.xz;
  const auto& yz = g.yz;
  const auto& zz = g.zz;
  const auto& rho = g.rho;
  for (std::size_t i = i0; i < i1; ++i) {
    const float d = 0.5f * (rho(i, j, k) + rho(i, j, k + 1));
    w(i, j, k) +=
        (dth / d) *
        (kC1 * (xz(i + 1, j, k) - xz(i, j, k)) +
         kC2 * (xz(i + 2, j, k) - xz(i - 1, j, k)) +
         kC1 * (yz(i, j, k) - yz(i, j - 1, k)) +
         kC2 * (yz(i, j + 1, k) - yz(i, j - 2, k)) +
         kC1 * (zz(i, j, k + 1) - zz(i, j, k)) +
         kC2 * (zz(i, j, k + 2) - zz(i, j, k - 1)));
  }
}

template <bool Atten>
inline void rowNormal(StaggeredGrid& g, std::size_t j, std::size_t k,
                      std::size_t i0, std::size_t i1, float dth, float dt) {
  const auto& u = g.u;
  const auto& v = g.v;
  const auto& w = g.w;
  auto& xx = g.xx;
  auto& yy = g.yy;
  auto& zz = g.zz;
  const auto& lam = g.lam;
  const auto& mu = g.mu;
  for (std::size_t i = i0; i < i1; ++i) {
    const float exx = kC1 * (u(i + 1, j, k) - u(i, j, k)) +
                      kC2 * (u(i + 2, j, k) - u(i - 1, j, k));
    const float eyy = kC1 * (v(i, j, k) - v(i, j - 1, k)) +
                      kC2 * (v(i, j + 1, k) - v(i, j - 2, k));
    const float ezz = kC1 * (w(i, j, k) - w(i, j, k - 1)) +
                      kC2 * (w(i, j, k + 1) - w(i, j, k - 2));
    const float tr = exx + eyy + ezz;
    const float l = lam(i, j, k);
    const float m2 = 2.0f * mu(i, j, k);
    float axx = dth * (l * tr + m2 * exx);
    float ayy = dth * (l * tr + m2 * eyy);
    float azz = dth * (l * tr + m2 * ezz);
    if constexpr (Atten) {
      const float tau = g.tauSigma(i, j, k);
      const float qinv = g.qpInv(i, j, k);
      axx += attenuate(g.rxx(i, j, k), tau, qinv, axx, dt);
      ayy += attenuate(g.ryy(i, j, k), tau, qinv, ayy, dt);
      azz += attenuate(g.rzz(i, j, k), tau, qinv, azz, dt);
    }
    xx(i, j, k) += axx;
    yy(i, j, k) += ayy;
    zz(i, j, k) += azz;
  }
}

// Harmonic mean of μ over the 4 cells adjacent to a shear-stress node.
// Recip = true reads the stored reciprocals (1 division); false recomputes
// 1/μ per use (5 divisions) — the pre-v6.0 arithmetic (§IV.B).
template <bool Recip>
inline float muShear(const StaggeredGrid& g, std::size_t ia, std::size_t ja,
                     std::size_t ka, std::size_t ib, std::size_t jb,
                     std::size_t kb, std::size_t ic, std::size_t jc,
                     std::size_t kc, std::size_t id, std::size_t jd,
                     std::size_t kd) {
  if constexpr (Recip) {
    return 4.0f / (g.mui(ia, ja, ka) + g.mui(ib, jb, kb) +
                   g.mui(ic, jc, kc) + g.mui(id, jd, kd));
  } else {
    return 4.0f / (1.0f / g.mu(ia, ja, ka) + 1.0f / g.mu(ib, jb, kb) +
                   1.0f / g.mu(ic, jc, kc) + 1.0f / g.mu(id, jd, kd));
  }
}

template <bool Recip, bool Atten>
inline void rowXY(StaggeredGrid& g, std::size_t j, std::size_t k,
                  std::size_t i0, std::size_t i1, float dth, float dt) {
  for (std::size_t i = i0; i < i1; ++i) {
    const float m = muShear<Recip>(g, i - 1, j, k, i, j, k, i - 1, j + 1, k,
                                   i, j + 1, k);
    const float exy = kC1 * (g.u(i, j + 1, k) - g.u(i, j, k)) +
                      kC2 * (g.u(i, j + 2, k) - g.u(i, j - 1, k)) +
                      kC1 * (g.v(i, j, k) - g.v(i - 1, j, k)) +
                      kC2 * (g.v(i + 1, j, k) - g.v(i - 2, j, k));
    float a = dth * m * exy;
    if constexpr (Atten) {
      a += attenuate(g.rxy(i, j, k), g.tauSigma(i, j, k), g.qsInv(i, j, k),
                     a, dt);
    }
    g.xy(i, j, k) += a;
  }
}

template <bool Recip, bool Atten>
inline void rowXZ(StaggeredGrid& g, std::size_t j, std::size_t k,
                  std::size_t i0, std::size_t i1, float dth, float dt) {
  for (std::size_t i = i0; i < i1; ++i) {
    const float m = muShear<Recip>(g, i - 1, j, k, i, j, k, i - 1, j, k + 1,
                                   i, j, k + 1);
    const float exz = kC1 * (g.u(i, j, k + 1) - g.u(i, j, k)) +
                      kC2 * (g.u(i, j, k + 2) - g.u(i, j, k - 1)) +
                      kC1 * (g.w(i, j, k) - g.w(i - 1, j, k)) +
                      kC2 * (g.w(i + 1, j, k) - g.w(i - 2, j, k));
    float a = dth * m * exz;
    if constexpr (Atten) {
      a += attenuate(g.rxz(i, j, k), g.tauSigma(i, j, k), g.qsInv(i, j, k),
                     a, dt);
    }
    g.xz(i, j, k) += a;
  }
}

template <bool Recip, bool Atten>
inline void rowYZ(StaggeredGrid& g, std::size_t j, std::size_t k,
                  std::size_t i0, std::size_t i1, float dth, float dt) {
  for (std::size_t i = i0; i < i1; ++i) {
    const float m = muShear<Recip>(g, i, j, k, i, j + 1, k, i, j, k + 1, i,
                                   j + 1, k + 1);
    const float eyz = kC1 * (g.v(i, j, k + 1) - g.v(i, j, k)) +
                      kC2 * (g.v(i, j, k + 2) - g.v(i, j, k - 1)) +
                      kC1 * (g.w(i, j + 1, k) - g.w(i, j, k)) +
                      kC2 * (g.w(i, j + 2, k) - g.w(i, j - 1, k));
    float a = dth * m * eyz;
    if constexpr (Atten) {
      a += attenuate(g.ryz(i, j, k), g.tauSigma(i, j, k), g.qsInv(i, j, k),
                     a, dt);
    }
    g.yz(i, j, k) += a;
  }
}

template <bool Recip, bool Atten>
void stressGroup(StaggeredGrid& g, StressGroup group, const KernelOptions& o,
                 const Region& r, float dth, float dt) {
  auto drive = [&](auto row) {
    driveLoops(r, o, [&](std::size_t j, std::size_t k) {
      row(g, j, k, r.i0, r.i1, dth, dt);
    });
  };
  switch (group) {
    case StressGroup::Normal:
      drive(rowNormal<Atten>);
      break;
    case StressGroup::XY:
      drive(rowXY<Recip, Atten>);
      break;
    case StressGroup::XZ:
      drive(rowXZ<Recip, Atten>);
      break;
    case StressGroup::YZ:
      drive(rowYZ<Recip, Atten>);
      break;
  }
}

}  // namespace ref

template <bool Atten>
AWP_HOT void fastStress(StaggeredGrid& g, StressGroup group,
                        const KernelOptions& o, const Region& r, float dth,
                        float dt) {
  if (group == StressGroup::Normal) {
    driveLoops(r, o, [&](std::size_t j, std::size_t k) {
      rowNormal<Atten>(g, rowAt(g, j, k), r.i0, r.i1, dth, dt);
    });
    return;
  }
  driveLoops(r, o, [&](std::size_t j, std::size_t k) {
    rowShear<Atten>(shearOperands<Atten>(g, group, rowAt(g, j, k)), r.i0,
                    r.i1, dth, dt);
  });
}

}  // namespace

AWP_HOT void updateVelocity(grid::StaggeredGrid& g, VelocityComponent comp,
                    const KernelOptions& opts, const Region& r) {
  // awplint: hot-ok(one region check per call, outside the row loops; fires only on a caller bug)
  AWP_CHECK_MSG(regionInBounds(g, r),
                "kernel region plus stencil reach leaves the grid arrays");
  const float dth = static_cast<float>(g.dt() / g.h());
  auto drive = [&](auto row) {
    driveLoops(r, opts, [&](std::size_t j, std::size_t k) {
      row(g, rowAt(g, j, k), r.i0, r.i1, dth);
    });
  };
  switch (comp) {
    case VelocityComponent::U:
      drive(rowU);
      break;
    case VelocityComponent::V:
      drive(rowV);
      break;
    case VelocityComponent::W:
      drive(rowW);
      break;
  }
}

AWP_HOT void updateVelocity(grid::StaggeredGrid& g, const KernelOptions& opts) {
  const Region r = Region::interior(g);
  updateVelocity(g, VelocityComponent::U, opts, r);
  updateVelocity(g, VelocityComponent::V, opts, r);
  updateVelocity(g, VelocityComponent::W, opts, r);
}

AWP_HOT void updateStress(grid::StaggeredGrid& g, StressGroup group,
                  const KernelOptions& opts, const Region& r) {
  // awplint: hot-ok(one region check per call, outside the row loops; fires only on a caller bug)
  AWP_CHECK_MSG(regionInBounds(g, r),
                "kernel region plus stencil reach leaves the grid arrays");
  if (!opts.useReciprocals) {
    // The pre-v6.0 per-use divisions exist only as the reference row.
    reference::updateStress(g, group, opts, r);
    return;
  }
  const float dth = static_cast<float>(g.dt() / g.h());
  const float dt = static_cast<float>(g.dt());
  if (g.attenuation().enabled)
    fastStress<true>(g, group, opts, r, dth, dt);
  else
    fastStress<false>(g, group, opts, r, dth, dt);
}

AWP_HOT void updateStress(grid::StaggeredGrid& g, const KernelOptions& opts) {
  const Region r = Region::interior(g);
  updateStress(g, StressGroup::Normal, opts, r);
  updateStress(g, StressGroup::XY, opts, r);
  updateStress(g, StressGroup::XZ, opts, r);
  updateStress(g, StressGroup::YZ, opts, r);
}

namespace reference {

void updateVelocity(grid::StaggeredGrid& g, VelocityComponent comp,
                    const KernelOptions& opts, const Region& r) {
  const float dth = static_cast<float>(g.dt() / g.h());
  auto drive = [&](auto row) {
    driveLoops(r, opts, [&](std::size_t j, std::size_t k) {
      row(g, j, k, r.i0, r.i1, dth);
    });
  };
  switch (comp) {
    case VelocityComponent::U:
      drive(ref::rowU);
      break;
    case VelocityComponent::V:
      drive(ref::rowV);
      break;
    case VelocityComponent::W:
      drive(ref::rowW);
      break;
  }
}

void updateStress(grid::StaggeredGrid& g, StressGroup group,
                  const KernelOptions& opts, const Region& r) {
  const float dth = static_cast<float>(g.dt() / g.h());
  const float dt = static_cast<float>(g.dt());
  const bool atten = g.attenuation().enabled;
  if (opts.useReciprocals && atten)
    ref::stressGroup<true, true>(g, group, opts, r, dth, dt);
  else if (opts.useReciprocals)
    ref::stressGroup<true, false>(g, group, opts, r, dth, dt);
  else if (atten)
    ref::stressGroup<false, true>(g, group, opts, r, dth, dt);
  else
    ref::stressGroup<false, false>(g, group, opts, r, dth, dt);
}

}  // namespace reference

double velocityFlopsPerPoint() {
  // Per component: 6 stencil multiplies, 11 adds/subs, density average
  // (2), divide (1), multiply-accumulate (2) ~ 22; three components.
  return 3 * 22.0;
}

double stressFlopsPerPoint(bool attenuation) {
  // Normals: 3 strains (6 ops each) + trace (2) + 3 updates (~6 each) = 38.
  // Shears: 3 x (strain 12 + harmonic mean 5 + update 4) = 63.
  double f = 38.0 + 63.0;
  if (attenuation) f += 6 * 10.0;  // memory-variable update per component
  return f;
}

double flopsPerPointPerStep(bool attenuation) {
  return velocityFlopsPerPoint() + stressFlopsPerPoint(attenuation);
}

}  // namespace awp::core
