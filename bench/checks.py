"""Output checks: every job's output against a fact of the paper.

The checks run outside the timed interval.  Expected values come from the
generator (the exact floats it put on the command line), never from the
table headers.  Each check raises `CheckError` naming the first violation.

Facts used (Bor & Montgomery, "G2 and the rolling distribution", 2009;
Nurowski, "Differential equations and conformal structures", 2005):
- rolling on the plane, every revolution profile (beta + alpha rho^2)^2
  drho^2 + rho^2 dpsi^2, so each eps-family and its homothetic copies, has a
  vanishing quartic (maximal symmetry), and so do constant curvatures in
  ratio 9:1; generic constant-curvature pairs have the quartic
  (kappa-9 lambda)(9 kappa-lambda)(kappa-lambda)^4 (1 + 2z + 2z^2)^2, i.e.
  coefficients proportional to (1, 1, 4/3, 2, 4) with two double roots;
- away from kappa = lambda the distribution has growth (2, 3, 5);
- the Weyl-tensor quartic is proportional to the closed form (residual
  < 1e-3), and the Weyl tensor vanishes at maximal symmetry;
- admissible motions roll without slipping or twisting, the two contact
  curves have equal length, and with orthonormal controls the length of
  the first is the integral of |c|;
- the eps = +-1 embeddings satisfy (X^2 + Y^2 + 2 eps)^3 = 9 Z^2, and the
  eps = 0 height is the integral of sqrt(rho^4 - 1) from rho = 1.
"""

from __future__ import annotations

import math

import numpy as np

QUARTIC_WEIGHTS = np.array([1.0, 1.0, 4.0 / 3.0, 2.0, 4.0])
VANISH_TOL = 1e-8  # the CLI's default --tol
ORACLE_TOL = 1e-3  # acceptance criterion 6
SLIP_TOL = 1e-9
TWIST_TOL = 1e-8
LENGTH_TOL = 1e-6


class CheckError(Exception):
    pass


def need(cond, msg):
    if not cond:
        raise CheckError(msg)


def _table(text):
    """(header lines, data lines) of a '#'-headed table."""
    lines = text.splitlines()
    head = [ln for ln in lines if ln.startswith("#")]
    data = [ln for ln in lines if ln and not ln.startswith("#")]
    return head, data


def _check_grid(xs, ys, grid):
    lo, hi, n = grid
    need(len(xs) == n, f"expected {n} rows, got {len(xs)}")
    want = np.linspace(lo, hi, n)
    need(np.array_equal(np.asarray(xs), want), "first chart coordinate is not the requested grid")
    need(all(y == 0.0 for y in ys), "second chart coordinate is not 0")


def quartic_value(k, lam):
    return (k - lam) ** 4 * (k - 9.0 * lam) * (9.0 * k - lam)


def vanishing_scale(k, lam):
    return (k - lam) ** 4 * max(k * k, lam * lam, 1.0)


def _close(a, b, rel):
    return abs(a - b) <= rel * max(abs(a), abs(b))


def check_quartic_table(job, rc, out):
    """g2check and quartic share the row layout
    coord1,coord2,kappa,A1..A5,scaled_max,root_type."""
    ex = job.expect
    need(rc == ex["exit"], f"exit code {rc}, expected {ex['exit']}")
    _, data = _table(out)
    rows = []
    for ln in data:
        parts = ln.split(",")
        rows.append(([float(t) for t in parts[:9]], ",".join(parts[9:])))
    _check_grid([v[0] for v, _ in rows], [v[1] for v, _ in rows], ex["grid"])
    if job.argv[0] == "g2check":
        tags = {tag for _, tag in rows}
        if ex["exit"] == 0:
            need(tags == {"zero"}, f"maximally symmetric pair has non-zero rows {sorted(tags)}")
        else:
            need(tags != {"zero"}, "generic pair reported only zero rows")
    if "kappa" in ex:  # constant-curvature pair: the factored quartic
        k, lam = ex["kappa"], ex["lambda"]
        want = quartic_value(k, lam) * QUARTIC_WEIGHTS
        for vals, tag in rows:
            need(vals[2] == k, f"kappa {vals[2]!r} != {k!r}")
            got = np.array(vals[3:8])
            need(np.all(np.abs(got - want) <= 1e-9 * np.max(np.abs(want))),
                 f"quartic {got.tolist()} not (kappa-9l)(9kappa-l)(kappa-l)^4 (1,1,4/3,2,4)")
            need(tag == "[2,2]", f"root type {tag}, expected [2,2]")
    if ex.get("zero"):
        for (vals, tag), k in zip(rows, ex["kappas"]):
            need(_close(vals[2], k, 1e-10), f"kappa {vals[2]!r} != {k!r}")
            need(vals[8] < VANISH_TOL and tag == "zero", f"row not vanishing: {vals[8]!r} {tag}")


def check_growth(job, rc, out):
    ex = job.expect
    need(rc == ex["exit"], f"exit code {rc}")
    _, data = _table(out)
    xs, ys = [], []
    for ln in data:
        parts = ln.split(",")
        xs.append(float(parts[0]))
        ys.append(float(parts[1]))
        need(float(parts[4]) == ex["phi"], "phi column differs from --phi")
        need(parts[5:] == ["2", "3", "5", "0"], f"growth {parts[5:]}, expected 2,3,5,0")
    _check_grid(xs, ys, ex["grid"])


def check_oracle(job, rc, out):
    ex = job.expect
    need(rc == ex["exit"], f"exit code {rc}")
    _, data = _table(out)
    rows = [np.array([float(t) for t in ln.split(",")]) for ln in data]
    need(all(len(v) == 18 for v in rows), "oracle rows need 18 columns")
    _check_grid([v[0] for v in rows], [v[1] for v in rows], ex["grid"])
    lam = ex["lambda"]
    for i, v in enumerate(rows):
        need(v[4] == ex["phi"], "phi column differs from --phi")
        weyl_norm, oracle, closed, resid, noise = v[5], v[6:11], v[11:16], v[16], v[17]
        if ex["g2"]:
            k = ex["kappas"][i]
            need(np.max(np.abs(closed)) < VANISH_TOL * vanishing_scale(k, lam),
                 "closed-form quartic does not vanish at maximal symmetry")
            need(np.max(np.abs(oracle)) <= 10.0 * noise + 1e-12 * max(weyl_norm, 1.0),
                 f"Weyl quartic {np.max(np.abs(oracle))!r} above noise {noise!r}")
        else:
            need(0.0 <= resid < ORACLE_TOL,
                 f"Weyl and closed-form quartics not proportional: residual {resid!r}")


def _control_at(rows, t):
    ts = [row[0] for row in rows]
    return (float(np.interp(t, ts, [row[1] for row in rows])),
            float(np.interp(t, ts, [row[2] for row in rows])))


def _speed_integral(rows):
    """Exact-to-rounding integral of |c(t)| for piecewise-linear controls
    (Gauss-Legendre per piece; |c| is smooth on each piece)."""
    x, w = np.polynomial.legendre.leggauss(16)
    total = 0.0
    for (t0, a0, b0), (t1, a1, b1) in zip(rows, rows[1:]):
        s = 0.5 * (x + 1.0)
        total += 0.5 * (t1 - t0) * float(np.sum(w * np.hypot(a0 + s * (a1 - a0),
                                                             b0 + s * (b1 - b0))))
    return total


def check_roll(job, rc, out):
    ex = job.expect
    need(rc == ex["exit"], f"exit code {rc}")
    head, data = _table(out)
    diag = dict(item.split("=") for item in head[2][2:].split())
    slip, twist = float(diag["no_slip_residual"]), float(diag["no_twist_residual"])
    l1, l2 = float(diag["L1"]), float(diag["L2"])
    need(slip < SLIP_TOL, f"no-slip residual {slip!r}")
    need(twist < TWIST_TOL, f"no-twist residual {twist!r}")
    need(abs(l1 - l2) / l1 < LENGTH_TOL, f"contact lengths differ: {l1!r} {l2!r}")
    if "constant" in ex:
        c1, c2 = ex["constant"]
        length = ex["T"] * math.hypot(c1, c2)
    else:
        length = _speed_integral(ex["control"])
    need(abs(l1 - length) / length < LENGTH_TOL, f"L1 {l1!r}, expected {length!r}")
    rows = np.array([[float(t) for t in ln.split(",")] for ln in data])
    need(rows.shape == (ex["steps"] + 1, 8), f"trajectory shape {rows.shape}")
    need(rows[0, 0] == 0.0 and np.array_equal(rows[0, 1:6], ex["start"]),
         "trajectory does not start at --start")
    need(abs(rows[-1, 0] - ex["T"]) <= 1e-12 * ex["T"], "trajectory does not end at T")
    for t, c1, c2 in rows[:: max(1, len(rows) // 10), [0, 6, 7]]:
        want = ex["constant"] if "constant" in ex else _control_at(ex["control"], t)
        need(abs(c1 - want[0]) <= 1e-12 and abs(c2 - want[1]) <= 1e-12,
             f"control columns at t={t!r} differ")


def _eps0_height(rho):
    from scipy.integrate import quad

    val, _ = quad(lambda x: math.sqrt(max(x**4 - 1.0, 0.0)), 1.0, rho,
                  epsabs=1e-13, epsrel=1e-12, limit=200)
    return val


def check_embed(job, rc, out):
    ex = job.expect
    need(rc == ex["exit"], f"exit code {rc}")
    lines = out.splitlines()
    eps, nr, nphi = ex["eps"], ex["nr"], ex["nphi"]
    need(lines[0] == f"# family=g2 eps={eps} nr={nr} nphi={nphi}", f"header {lines[0]!r}")
    nv, nq = nr * nphi, (nr - 1) * (nphi - 1)
    need(len(lines) == 1 + nv + nq, f"{len(lines) - 1} mesh rows, expected {nv + nq}")
    verts = np.array([ln.split() for ln in lines[1 : 1 + nv]], dtype=float)
    ii, jj = np.meshgrid(np.arange(nr), np.arange(nphi), indexing="ij")
    need(np.array_equal(verts[:, 0], ii.ravel()) and np.array_equal(verts[:, 1], jj.ravel()),
         "vertex indices out of order")
    rho = np.linspace(ex["lo"], ex["hi"], nr)[:, None]
    phi = np.linspace(0.0, 2.0 * math.pi, nphi)[None, :]
    x, y, z = (verts[:, k].reshape(nr, nphi) for k in (2, 3, 4))
    need(np.max(np.abs(x - rho * np.cos(phi))) <= 1e-12 * (1.0 + ex["hi"]), "X != rho cos phi")
    need(np.max(np.abs(y - rho * np.sin(phi))) <= 1e-12 * (1.0 + ex["hi"]), "Y != rho sin phi")
    if eps in (1, -1):
        lhs = (x * x + y * y + 2.0 * eps) ** 3
        scale = (x * x + y * y + 2.0) ** 3
        need(np.all(np.abs(lhs - 9.0 * z * z) < 1e-9 * scale), "(X^2+Y^2+2eps)^3 != 9 Z^2")
    else:
        for i in (0, nr // 2, nr - 1):
            want = _eps0_height(float(rho[i, 0]))
            need(np.all(np.abs(z[i] - want) <= 1e-9 * (1.0 + want)),
                 f"eps=0 height at rho={rho[i, 0]!r} is {z[i, 0]!r}, expected {want!r}")
    quads = lines[1 + nv :]
    for k in (0, nq // 2, nq - 1):  # spot-check the quad connectivity
        i, j = divmod(k, nphi - 1)
        v = i * nphi + j
        need(quads[k] == f"q {v} {v + nphi} {v + nphi + 1} {v + 1}", f"quad {k}: {quads[k]!r}")
    need(all(q.startswith("q ") and len(q.split()) == 5 for q in quads), "malformed quad rows")


CHECKS = {
    "g2check": check_quartic_table,
    "quartic": check_quartic_table,
    "growth": check_growth,
    "oracle": check_oracle,
    "roll": check_roll,
    "embed": check_embed,
}


def check(job, rc, out):
    CHECKS[job.argv[0]](job, rc, out)
