"""Pose solving from 2D-3D correspondences: one seeded RANSAC loop with
two models.

- **Planar** (:func:`ransac_planar`, the pipeline's solver): the camera
  pose is known and the object moved by a planar motion (yaw, tx, ty) on
  the table, so every camera-frame coordinate is linear in
  (cos, sin, tx, ty). Two pairs give a 4 x 4 linear solve; the refit is a
  3-parameter Gauss-Newton on the reprojection error.
- **EPnP** (:func:`ransac_pnp`, the general 6-DOF reference): the unknown
  camera-frame points are fixed barycentric combinations of four control
  points (three for near-coplanar inputs), recovered from the null space
  of the projection constraint matrix plus the inter-control-point
  distance constraints; the pose is read off a rigid alignment. Each
  4-point hypothesis is polished by a few Gauss-Newton steps on the
  reprojection error, so exact correspondences recover the exact pose to
  machine precision.

Both share :func:`_ransac`: seeded minimal samples, inlier scoring by
reprojection, a confidence-based early exit and up to three consensus
refits.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from ..errors import DegenerateGeometry, TooFewCorrespondences
from ..geometry import (
    CameraIntrinsics,
    PlanarTransform,
    Pose3,
    axis_angle_to_matrix,
    invert,
    rot_z,
)

_COLLINEAR_TOL = 1e-7  # second-moment ratio below which points are a line
_PLANAR_TOL = 1e-7  # third-moment ratio below which the planar branch runs
_SINGULAR_TOL = 1e-10  # |det| / product of row norms below which a 2-pair system is singular


def _principal_frame(world):
    c0 = world.mean(axis=0)
    centered = world - c0
    cov = centered.T @ centered / len(world)
    vals, vecs = np.linalg.eigh(cov)
    return c0, vals[::-1], vecs[:, ::-1]


def _control_points(world):
    """Centroid + principal axes scaled by their spread; None if collinear."""
    c0, vals, vecs = _principal_frame(world)
    if vals[0] <= 0 or vals[1] / vals[0] < _COLLINEAR_TOL:
        return None
    planar = vals[2] / vals[0] < _PLANAR_TOL
    nc = 3 if planar else 4
    ctrl = [c0]
    for i in range(nc - 1):
        ctrl.append(c0 + np.sqrt(vals[i]) * vecs[:, i])
    return np.stack(ctrl)


def _barycentric(world, ctrl):
    basis = (ctrl[1:] - ctrl[0]).T  # 3 x (nc-1)
    rhs = (world - ctrl[0]).T
    if basis.shape[1] == 3:
        coeff = np.linalg.solve(basis, rhs).T
    else:
        coeff = np.linalg.lstsq(basis, rhs, rcond=None)[0].T
    return np.column_stack([1.0 - coeff.sum(axis=1), coeff])


def _constraint_matrix(alphas, pixels, intr):
    """The (2n, 3 nc) constraints on the stacked camera-frame control
    points: each pixel's ``constraint_rows`` times each of its alphas."""
    rows = intr.constraint_rows(pixels)
    weights = np.repeat(alphas, 2, axis=0)
    return (weights[:, :, None] * rows[:, None, :]).reshape(len(rows), -1)


def _beta_cases(l_mat, rho, pairs_products, nv):
    """Initial beta guesses from linearized distance constraints.

    pairs_products maps column index -> (a, b) meaning the unknown beta_a*beta_b.
    Returns a list of beta vectors (length nv each).
    """
    cases = []
    idx_of = {ab: i for i, ab in enumerate(pairs_products)}

    def solve_cols(cols):
        sub = l_mat[:, cols]
        sol, *_ = np.linalg.lstsq(sub, rho, rcond=None)
        return sol

    # case 1: assume [B_00, B_01, B_02, ...] (first row of the outer product)
    cols = [idx_of[(0, k)] for k in range(nv)]
    b = solve_cols(cols)
    betas = np.zeros(nv)
    if abs(b[0]) > 0:
        s = -1.0 if b[0] < 0 else 1.0
        betas[0] = np.sqrt(abs(b[0]))
        betas[1:] = s * b[1:] / betas[0]
    cases.append(betas)

    # case 2: assume only beta_0, beta_1 nonzero: [B_00, B_01, B_11]
    b = solve_cols([idx_of[(0, 0)], idx_of[(0, 1)], idx_of[(1, 1)]])
    cases.append(_first_two_betas(b, nv))

    if nv >= 3:
        # case 3: beta_0..beta_2 nonzero: [B_00, B_01, B_11, B_02, B_12]
        cols = [idx_of[(0, 0)], idx_of[(0, 1)], idx_of[(1, 1)], idx_of[(0, 2)], idx_of[(1, 2)]]
        b = solve_cols(cols)
        betas = _first_two_betas(b, nv)
        if abs(betas[0]) > 0:
            betas[2] = b[3] / betas[0]
        cases.append(betas)
    return cases


def _first_two_betas(b, nv):
    """beta_0 and beta_1 from a solved [B_00, B_01, B_11, ...]: the square
    roots of |B_00| and of B_11 when it shares B_00's sign (else 0), with
    beta_0 negated when B_01 < 0. The other betas are zero."""
    betas = np.zeros(nv)
    if b[0] < 0:
        betas[0] = np.sqrt(-b[0])
        betas[1] = np.sqrt(-b[2]) if b[2] < 0 else 0.0
    else:
        betas[0] = np.sqrt(b[0])
        betas[1] = np.sqrt(b[2]) if b[2] > 0 else 0.0
    if b[1] < 0:
        betas[0] = -betas[0]
    return betas


def _refine_betas(betas, dv, rho, iters=8):
    """Gauss-Newton on || sum_k beta_k dv_k ||^2 = rho for each control pair."""
    betas = betas.copy()
    for _ in range(iters):
        combo = np.einsum("k,kpj->pj", betas, dv)  # (P,3)
        resid = np.einsum("pj,pj->p", combo, combo) - rho
        jac = 2.0 * np.einsum("pj,kpj->pk", combo, dv)
        try:
            delta, *_ = np.linalg.lstsq(jac, -resid, rcond=None)
        except np.linalg.LinAlgError:
            break
        betas += delta
        if np.linalg.norm(delta) < 1e-14:
            break
    return betas


def _kabsch(world, cam):
    """Rigid alignment: cam ~= R @ world + t."""
    wc, cc = world.mean(axis=0), cam.mean(axis=0)
    h = (world - wc).T @ (cam - cc)
    u, _, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    r = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    return r, cc - r @ wc


def reprojection_sq_errors(world, pixels, intr, r, t):
    """Squared pixel errors; points at or behind the camera (depth not
    above 1e-9) get +inf. Each error is elementwise in its own pair, so a
    pair scores the same bits whatever the other pairs are."""
    cam = world @ r.T + t
    d = intr.project(cam) - pixels
    d *= d
    err = d[:, 0] + d[:, 1]  # sum(axis=1)'s bits, without its slow 2-wide reduction
    err[~(cam[:, 2] > 1e-9)] = np.inf
    return err


def _fill_reprojection_terms(cam, pixels, intr, resid, ju, jv):
    """Fill in place the Gauss-Newton terms of the reprojection error at
    camera points ``cam`` (all in front of the camera) of ``pixels``:
    residuals ``resid`` (2n,), u and v interleaved, and the (n, 3)
    derivatives ``ju`` of u and ``jv`` of v by the camera coordinates,
    whose zero entries the caller sets once. Every entry is elementwise in
    its pair."""
    z = cam[:, 2]
    np.subtract(intr.project(cam), pixels, out=resid.reshape(-1, 2))
    inv_z = 1.0 / z
    ju[:, 0] = intr.fx * inv_z
    ju[:, 2] = -intr.fx * cam[:, 0] * inv_z**2
    jv[:, 1] = intr.fy * inv_z
    jv[:, 2] = -intr.fy * cam[:, 1] * inv_z**2


def refine_pose(world, pixels, intr, r, t, iters=20):
    """Gauss-Newton minimization of reprojection error over SE(3).

    Update is a left-multiplied twist (dw, dt): cam' = exp(dw) cam + dt, so
    the jacobian of a camera point is [-skew(cam) | I].
    """
    r = r.copy()
    t = t.copy()
    n = len(world)
    resid = np.empty(2 * n)
    ju = np.zeros((n, 3))
    jv = np.zeros((n, 3))
    jac = np.empty((2 * n, 6))
    for _ in range(iters):
        cam = world @ r.T + t
        if np.any(cam[:, 2] <= 1e-9):
            break
        _fill_reprojection_terms(cam, pixels, intr, resid, ju, jv)
        # row_vec @ (-skew(c)) == cross(c, row_vec)
        jac[0::2, :3] = np.cross(cam, ju)
        jac[1::2, :3] = np.cross(cam, jv)
        jac[0::2, 3:] = ju
        jac[1::2, 3:] = jv
        jtj = jac.T @ jac
        jtr = jac.T @ resid
        try:
            delta = np.linalg.solve(jtj, -jtr)
        except np.linalg.LinAlgError:
            break
        dr = axis_angle_to_matrix(delta[:3])
        r = dr @ r
        t = dr @ t + delta[3:]
        if np.linalg.norm(delta) < 1e-14:
            break
    return r, t


def epnp(world, pixels, intr: CameraIntrinsics, polish_iters: int = 5):
    """One EPnP solve. Returns (R, t) or None for degenerate geometry."""
    world = np.asarray(world, dtype=float)
    pixels = np.asarray(pixels, dtype=float)
    ctrl = _control_points(world)
    if ctrl is None:
        return None
    nc = len(ctrl)
    alphas = _barycentric(world, ctrl)
    m = _constraint_matrix(alphas, pixels, intr)
    _, vecs = np.linalg.eigh(m.T @ m)
    nv = nc  # number of null-space candidates considered
    basis = vecs[:, :nv].T.reshape(nv, nc, 3)

    pairs = [(i, j) for i in range(nc) for j in range(i + 1, nc)]
    dv = np.stack([[b[i] - b[j] for i, j in pairs] for b in basis])  # (nv,P,3)
    rho = np.array([np.sum((ctrl[i] - ctrl[j]) ** 2) for i, j in pairs])

    products = []
    for a in range(nv):
        for b in range(a, nv):
            products.append((a, b))
    l_mat = np.empty((len(pairs), len(products)))
    for col, (a, b) in enumerate(products):
        factor = 1.0 if a == b else 2.0
        l_mat[:, col] = factor * np.einsum("pj,pj->p", dv[a], dv[b])

    best = None
    for betas in _beta_cases(l_mat, rho, products, nv):
        betas = _refine_betas(betas, dv, rho)
        cc = np.einsum("k,kcj->cj", betas, basis)
        cam = alphas @ cc
        if cam[:, 2].mean() < 0:
            cam = -cam
        if np.any(np.abs(cam[:, 2]) < 1e-12):
            continue
        r, t = _kabsch(world, cam)
        err = reprojection_sq_errors(world, pixels, intr, r, t)
        score = float(np.mean(err)) if np.all(np.isfinite(err)) else np.inf
        if best is None or score < best[0]:
            best = (score, r, t)
    if best is None or not np.isfinite(best[0]):
        return None
    _, r, t = best
    if polish_iters:
        r, t = refine_pose(world, pixels, intr, r, t, iters=polish_iters)
    return r, t


class _Model(NamedTuple):
    """What the RANSAC loop needs of a pose model. ``solve`` maps sample
    indices to a hypothesis (None for a degenerate sample), ``sq_errors``
    a hypothesis to the squared pixel error of every pair, and ``refit`` a
    hypothesis and a consensus mask to a refined hypothesis."""

    sample_size: int
    solve: Callable
    sq_errors: Callable
    refit: Callable


def _sample_consensus(model: _Model, n, iterations, thr2, confidence, seed, polish):
    """The seeded sampling loop: minimal samples drawn with ``rng.choice``,
    inlier scoring by reprojection, confidence-based early exit (ties
    broken by earliest iteration). With ``polish`` each minimal hypothesis
    is first refit on its own sample. Returns (hypothesis, inlier mask,
    solved), the hypothesis None when no sample had an inlier, ``solved``
    whether any sample was non-degenerate."""
    s = model.sample_size
    rng = np.random.default_rng(seed)
    best_mask = None
    best_count = 0
    best_hyp = None
    solved = False
    needed = iterations
    it = 0
    while it < min(iterations, needed):
        it += 1
        sample = rng.choice(n, size=s, replace=False)
        hyp = model.solve(sample)
        if hyp is None:
            continue
        solved = True
        if polish:
            sample_mask = np.zeros(n, dtype=bool)
            sample_mask[sample] = True
            hyp = model.refit(hyp, sample_mask)
        mask = model.sq_errors(hyp) <= thr2
        count = np.count_nonzero(mask)
        if count > best_count:
            best_count, best_mask, best_hyp = count, mask, hyp
            w = count / n
            if w >= 1.0:
                needed = it
            else:
                needed = int(np.ceil(np.log(1.0 - confidence) / np.log(1.0 - w**s)))
    return best_hyp, best_mask, solved


def _ransac(model: _Model, n, iterations, threshold_px, confidence, seed):
    """The seeded RANSAC loop shared by every model: :func:`_sample_consensus`,
    then up to three refits on the consensus set. Returns (hypothesis,
    inlier mask).

    A minimal solve fits its sample's noise exactly, so on close-set pairs
    it can miss every pair, its own included, by more than the threshold.
    When no sample has a single inlier, the loop runs again with each
    minimal hypothesis refit on its sample; a search that already found
    consensus is not repeated, so its result does not change."""
    s = model.sample_size
    if n < s:
        raise TooFewCorrespondences(f"{n} correspondences, need >= {s}")
    thr2 = threshold_px**2
    best_hyp, best_mask, solved = _sample_consensus(
        model, n, iterations, thr2, confidence, seed, polish=False
    )
    if not solved:
        raise DegenerateGeometry(f"no non-degenerate {s}-point sample found")
    if best_hyp is None:
        best_hyp, best_mask, _ = _sample_consensus(
            model, n, iterations, thr2, confidence, seed, polish=True
        )
    if best_hyp is None:
        raise DegenerateGeometry(
            f"no {s}-point sample reprojects any pair within {threshold_px} px"
        )

    # refit on the consensus set, re-scoring until the inlier set stabilizes;
    # a small slack lets the least-squares fit shed lucky borderline inliers
    hyp, mask = best_hyp, best_mask
    slack = max(2, int(0.02 * n))
    for _ in range(3):
        if mask.sum() < s:
            break
        new_hyp = model.refit(hyp, mask)
        new_mask = model.sq_errors(new_hyp) <= thr2
        if new_mask.sum() + slack < mask.sum():
            break  # refinement drifted on a corrupt set; keep the previous fit
        changed = not np.array_equal(new_mask, mask)
        hyp, mask = new_hyp, new_mask
        if not changed:
            break
    return hyp, mask


def ransac_pnp(
    world,
    pixels,
    intr: CameraIntrinsics,
    iterations: int = 1000,
    threshold_px: float = 2.0,
    confidence: float = 0.999,
    refine_iters: int = 20,
    seed: int = 0,
):
    """Robust 6-DOF pose from 2D-3D correspondences.

    Minimal EPnP on 4-point samples, inlier scoring by reprojection, final
    EPnP refit on the best inlier set followed by full Gauss-Newton
    refinement. Deterministic in ``seed``: fixed sampling schedule,
    confidence-based early exit, ties broken by earliest iteration.

    Returns (R, t, inlier_mask) with R, t mapping world -> camera frame.
    Raises TooFewCorrespondences (< 4 pairs) or DegenerateGeometry (every
    sampled set too close to collinear across all iterations, or no sample
    reprojecting any pair within the threshold).
    """
    world = np.asarray(world, dtype=float)
    pixels = np.asarray(pixels, dtype=float)

    def refit(rt, mask):
        sol = epnp(world[mask], pixels[mask], intr, polish_iters=0)
        rr, tt = sol if sol is not None else rt
        return refine_pose(world[mask], pixels[mask], intr, rr, tt, iters=refine_iters)

    model = _Model(
        4,
        lambda sample: epnp(world[sample], pixels[sample], intr),
        lambda rt: reprojection_sq_errors(world, pixels, intr, *rt),
        refit,
    )
    (r, t), mask = _ransac(model, len(world), iterations, threshold_px, confidence, seed)
    return r, t, mask


def _planar_extrinsics(p, w2c: Pose3):
    """World -> camera (R, t) of the scene moved by p = (yaw, tx, ty)."""
    r = w2c.rotation @ rot_z(p[0])
    return r, w2c.rotation @ np.array([p[1], p[2], 0.0]) + w2c.translation


def _planar_equations(world, pixels, intr: CameraIntrinsics, w2c: Pose3):
    """Per pair, the two projection equations linear in (cos, sin, tx, ty).

    A moved point's camera coordinates are
    ``cam = Rc (cos [x, y, 0] + sin [-y, x, 0] + [tx, ty, z]) + tc``, and a
    pixel (u, v) constrains them by its two ``constraint_rows``,
    ``fx cam_x + (cx - u) cam_z = 0`` and ``fy cam_y + (cy - v) cam_z = 0``.
    Returns coefficients (n, 2, 4) and right-hand sides (n, 2). Both
    products by the camera pose take every pair's two rows as one (2n, 3)
    matrix; each row is the same dot product as in a per-pair 2 x 3
    product.
    """
    n = len(world)
    e = intr.constraint_rows(pixels)
    g = (e @ w2c.rotation).reshape(n, 2, 3)
    x, y, z = world[:, 0, None], world[:, 1, None], world[:, 2, None]
    coeff = np.stack(
        [g[..., 0] * x + g[..., 1] * y, g[..., 1] * x - g[..., 0] * y, g[..., 0], g[..., 1]],
        axis=-1,
    )
    return coeff, -(g[..., 2] * z + (e @ w2c.translation).reshape(n, 2))


def _planar_minimal(a, b):
    """(yaw, tx, ty) from the 4 x 4 system of two pairs, or None when it is
    singular (both pairs share their (x, y), or nearly so) or not finite
    (pixels overflowed by matcher noise pass the determinant test)."""
    if abs(np.linalg.det(a)) <= _SINGULAR_TOL * np.prod(np.linalg.norm(a, axis=1)):
        return None
    try:
        c, s, tx, ty = np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        return None
    return np.array([np.arctan2(s, c), tx, ty])


def _refine_planar(world, pixels, intr: CameraIntrinsics, w2c: Pose3, p, iters):
    """Gauss-Newton minimization of reprojection error over (yaw, tx, ty).

    The yaw derivative of a camera point is ``R @ (e_z x world)`` and the
    translation derivatives are the first two columns of the camera
    rotation.

    The residual and Jacobian buffers are allocated once per refit, and
    each step fills them in place (:func:`_fill_reprojection_terms`).
    """
    p = p.copy()
    n = len(world)
    d_yaw_world = np.column_stack([-world[:, 1], world[:, 0], np.zeros(n)])
    d_txy = w2c.rotation[:, :2]
    resid = np.empty(2 * n)
    ju = np.zeros((n, 3))
    jv = np.zeros((n, 3))
    jac = np.empty((2 * n, 3))
    for _ in range(iters):
        r, t = _planar_extrinsics(p, w2c)
        cam = world @ r.T + t
        if np.any(cam[:, 2] <= 1e-9):
            break
        _fill_reprojection_terms(cam, pixels, intr, resid, ju, jv)
        d_yaw = d_yaw_world @ r.T
        jac[0::2, 0] = np.einsum("ij,ij->i", ju, d_yaw)
        jac[1::2, 0] = np.einsum("ij,ij->i", jv, d_yaw)
        jac[0::2, 1:] = ju @ d_txy
        jac[1::2, 1:] = jv @ d_txy
        try:
            delta = np.linalg.solve(jac.T @ jac, -(jac.T @ resid))
        except np.linalg.LinAlgError:
            break
        p += delta
        if np.linalg.norm(delta) < 1e-14:
            break
    return p


def ransac_planar(world, pixels, intr: CameraIntrinsics, viewpoint: Pose3, config):
    """Robust planar motion of the world points, seen from a known camera.

    ``pixels`` are the projections, through the camera at ``viewpoint``
    (camera-in-world), of ``world`` moved by an unknown rotation about the
    world z axis and an in-plane translation. Minimal 2-pair solves of the
    linear system in (cos, sin, tx, ty) run inside the same seeded loop as
    :func:`ransac_pnp`; the refit is Gauss-Newton on (yaw, tx, ty) over the
    consensus set. The loop's settings are the ``LocalizationConfig``
    fields ``ransac_iterations``, ``reproj_threshold_px``,
    ``ransac_confidence``, ``ransac_seed`` and ``refine_iters``.

    Returns (PlanarTransform, inlier_mask). Raises TooFewCorrespondences
    (< 2 pairs) or DegenerateGeometry (every sampled pair singular, as when
    all pairs share one (x, y), or no sample reprojecting any pair within
    the threshold).
    """
    world = np.asarray(world, dtype=float)
    pixels = np.asarray(pixels, dtype=float)
    w2c = invert(viewpoint)
    coeff, rhs = _planar_equations(world, pixels, intr, w2c)
    model = _Model(
        2,
        lambda sample: _planar_minimal(coeff[sample].reshape(4, 4), rhs[sample].reshape(4)),
        lambda p: reprojection_sq_errors(world, pixels, intr, *_planar_extrinsics(p, w2c)),
        lambda p, mask: _refine_planar(
            world[mask], pixels[mask], intr, w2c, p, config.refine_iters
        ),
    )
    p, mask = _ransac(
        model, len(world), config.ransac_iterations, config.reproj_threshold_px,
        config.ransac_confidence, config.ransac_seed,
    )
    return PlanarTransform(*p), mask
