"""Independent checks of the CLI outputs.

Every check recomputes what it needs with numpy or scipy from the
instance's inputs and the printed JSON; none imports projconst.  A check
returns None when the output is right and a one-line reason otherwise.
"""

from __future__ import annotations

import json

import numpy as np
from scipy.optimize import linprog

SEARCH_TOL = 1e-9
HIGHS_TOL = 1e-7
CERT_TOL = 1e-9
NAMED_TOL = 1e-12


def highs_min_projection_norm(v: np.ndarray, space: str) -> float:
    """min t over Q = V M with M V = I, |Q_ij| <= B_ij and the column (l1)
    or row (linf) sums of B at most t, solved by HiGHS."""
    d, n = v.shape
    nm, nb = n * d, d * d
    q_of_m = np.kron(v, np.eye(d))              # vec(V M), row-major
    sums = (np.kron(np.ones((1, d)), np.eye(d)) if space == "l1"
            else np.kron(np.eye(d), np.ones((1, d))))
    a_ub = np.block([
        [q_of_m, -np.eye(nb), np.zeros((nb, 1))],
        [-q_of_m, -np.eye(nb), np.zeros((nb, 1))],
        [np.zeros((d, nm)), sums, -np.ones((d, 1))],
    ])
    a_eq = np.hstack([np.kron(np.eye(n), v.T), np.zeros((n * n, nb + 1))])
    c = np.zeros(nm + nb + 1)
    c[-1] = 1.0
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(2 * nb + d), A_eq=a_eq,
                  b_eq=np.eye(n).ravel(),
                  bounds=[(None, None)] * nm + [(0, None)] * (nb + 1),
                  method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return float(res.fun)


def _close(a, b, tol) -> bool:
    return a is not None and b is not None and abs(a - b) <= tol


def _search(out: dict, n: int, expect: dict) -> str | None:
    value = out["value"]
    s = np.asarray(out["S"], dtype=float)
    sq = np.sqrt(np.asarray(out["D"], dtype=float))
    top = float(np.linalg.eigvalsh(s * sq[:, None] * sq[None, :])[-n:].sum())
    if not _close(value, top, SEARCH_TOL):
        return f"value {value!r} != top-{n} eigenvalue sum {top!r}"
    cf = expect.get("closed_form")
    if cf is not None and not _close(value, cf, SEARCH_TOL):
        return f"value {value!r} != closed form {cf!r}"
    return None


def _relproj(out: dict, expect: dict, highs: float) -> str | None:
    value, space = out["value"], expect["space"]
    v = np.asarray(expect["basis"], dtype=float)
    q = np.asarray(out["Q"], dtype=float)
    if not _close(value, highs, HIGHS_TOL):
        return f"value {value!r} != HiGHS {highs!r}"
    norm = float(np.abs(q).sum(axis=0 if space == "l1" else 1).max())
    if not _close(value, norm, CERT_TOL):
        return f"value {value!r} != operator norm of Q {norm!r}"
    if float(np.abs(q @ v - v).max()) > 1e-8:
        return "Q does not fix the subspace"
    exact = expect.get("exact")
    if exact is not None:
        if not _close(value, exact, CERT_TOL):
            return f"value {value!r} != {exact!r}"
        if not _close(out.get("witness_value"), exact, NAMED_TOL):
            return f"witness {out.get('witness_value')!r} != {exact!r}"
    return None


def _certificate(cert: dict, exact: float | None) -> str | None:
    rho, r, big_r = cert["rho"], cert["r"], cert["R"]
    op, lower = cert["op_norm_l1"], cert["lower_bound"]
    if rho is None:
        return "certificate has no Perron radius for a positive |P|"
    if not (r <= rho + CERT_TOL and rho <= big_r + CERT_TOL):
        return f"r <= rho <= R fails: {r!r}, {rho!r}, {big_r!r}"
    if not _close(op, big_r, CERT_TOL):
        return f"op_norm_l1 {op!r} != R {big_r!r}"
    if lower is not None and not lower <= op + CERT_TOL:
        return f"lower_bound {lower!r} > op_norm_l1 {op!r}"
    if exact is not None:
        for name in ("rho", "r", "R", "op_norm_l1", "lower_bound"):
            if not _close(cert[name], exact, NAMED_TOL):
                return f"{name} {cert[name]!r} != {exact!r}"
    return None


def reference_values(instances: list) -> dict[str, float]:
    """HiGHS optimum per LP instance id (solved once per run)."""
    return {i.id: highs_min_projection_norm(
                np.asarray(i.expect["basis"], dtype=float), i.expect["space"])
            for i in instances if i.expect["kind"] == "relproj"}


def check(inst, stdout: str, highs: dict[str, float]) -> str | None:
    kind = inst.expect["kind"]
    try:
        out = json.loads(stdout)
        if kind == "search":
            return _search(out, inst.n, inst.expect)
        if kind == "relproj":
            return _relproj(out, inst.expect, highs[inst.id])
        if kind == "almost-min":
            return _certificate(out["certificate"], inst.expect["exact"])
        if kind == "certify":
            return _certificate(out, inst.expect["exact"])
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
    return f"no check for kind {kind!r}"
