"""Seeded inputs for the CLI workloads.

Each workload function returns the instances of one pass, in a fixed order: an id,
the argv handed to ``projconst.cli.main``, the size (d, n) and what the
output must satisfy.  Input files are written into the run's work
directory.  Nothing here imports projconst, so a change to the program
cannot change its inputs.

The exhaustive workload takes no input from the seed: the search is a
deterministic function of its argv.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0

# (n, d, restarts) of the exhaustive grid.  (3, 6) is the golden-ratio
# case; (1, 7) at one restart pays the 2^21-mask enumeration.
EXHAUSTIVE_GRID = ((2, 3, 5), (1, 4, 5), (2, 4, 5), (3, 4, 5), (2, 5, 5),
                   (3, 5, 5), (4, 5, 5), (3, 6, 5), (1, 7, 1))

# The n = d/2, d >= 8 LP instances sit in the degenerate-pivot tail: at
# d = 8 their pivot counts range from about 100 to 4400 between random
# draws.  Two d = 8 tail instances are drawn from fixed generator seeds,
# near the median of six draws, so that every run pays the same tail; the
# other subspaces follow --seed and stay at n = 2 for d = 8, 9.
LP_TAIL = (("l1", 8, 4, 1002), ("linf", 8, 4, 1000))

# Perturbed hex3 seeds are kept when the predicted blow-up dimension falls
# in a band; one seed per narrow band keeps the dense large-d work of a
# pass (about d^3) and its peak memory nearly the same from one --seed to
# the next.
ALMOSTMIN_EPS = 24.0
ALMOSTMIN_D_BANDS = ((300, 350), (450, 500), (600, 650), (750, 800),
                     (900, 950))
NAMED_EPS = (0.1, 1.0, 8.0)

# The named seeds, rebuilt here so that the inputs do not depend on the
# program under test.
_HEX3_P = np.eye(3) - np.ones((3, 3)) / 3.0
_C_ICOSA = np.array([
    [0, 1, 1, 1, 1, 1],
    [1, 0, 1, -1, -1, 1],
    [1, 1, 0, 1, -1, -1],
    [1, -1, 1, 0, 1, -1],
    [1, -1, -1, 1, 0, 1],
    [1, 1, -1, -1, 1, 0],
], dtype=float)
_ICOSA6_P = 0.5 * (np.eye(6) + _C_ICOSA / math.sqrt(5.0))


@dataclass
class Instance:
    id: str
    argv: list[str]
    d: int
    n: int
    expect: dict


def _write(path: Path, obj: dict) -> str:
    path.write_text(json.dumps(obj) + "\n")
    return str(path)


def _matrix_json(a: np.ndarray) -> dict:
    return {"d": int(a.shape[0]), "rows": [list(map(float, r)) for r in a]}


def _basis_json(v: np.ndarray) -> dict:
    return {"d": int(v.shape[0]), "n": int(v.shape[1]),
            "columns": [list(map(float, v[:, j])) for j in range(v.shape[1])]}


def exhaustive(seed: int, work: Path) -> list[Instance]:
    return [Instance(f"search-ex-n{n}-d{d}-r{restarts}",
                     ["search", "--n", str(n), "--d", str(d), "--exhaustive",
                      "--restarts", str(restarts)],
                     d, n, {"kind": "search",
                            "closed_form": pi_closed_form(n, d)})
            for n, d, restarts in EXHAUSTIVE_GRID]


def pi_closed_form(n: int, d: int) -> float | None:
    """Known values of Pi(n, d): 1 for n = 1, 4/3 for n = 2 and d >= 3,
    the golden ratio at (3, 6), 2 - 2/d for n = d - 1."""
    if n == 1:
        return 1.0
    if n == 2 and d >= 3:
        return 4.0 / 3.0
    if (n, d) == (3, 6):
        return GOLDEN
    if n == d - 1:
        return 2.0 - 2.0 / d
    return None


def _lp_instance(ident: str, space: str, v: np.ndarray, work: Path,
                 witness: np.ndarray | None = None,
                 value: float | None = None) -> Instance:
    basis = _write(work / f"{ident}.basis.json", _basis_json(v))
    argv = ["relproj", "--space", space, "--basis", basis]
    expect = {"kind": "relproj", "space": space, "basis": v.tolist(),
              "exact": value}
    if witness is not None:
        argv += ["--certify",
                 _write(work / f"{ident}.witness.json", _matrix_json(witness))]
    return Instance(ident, argv, v.shape[0], v.shape[1], expect)


def lp(seed: int, work: Path) -> list[Instance]:
    rng = np.random.default_rng(seed)
    out = []
    for d in range(4, 10):
        for n in sorted({2, d // 2}) if d <= 7 else (2,):
            for space in ("l1", "linf"):
                v = rng.standard_normal((d, n))
                out.append(_lp_instance(f"relproj-{space}-d{d}-n{n}",
                                        space, v, work))
    for space, d, n, gen in LP_TAIL:
        v = np.random.default_rng(gen).standard_normal((d, n))
        out.append(_lp_instance(f"relproj-{space}-d{d}-n{n}-tail{gen}",
                                space, v, work))
    # Named ranges with the witness D Sgn(P), D the (uniform) Perron
    # weights; both reach the projection constant of the seed.
    for name, p, n, value in (("hex3", _HEX3_P, 2, 4.0 / 3.0),
                              ("icosa6", _ICOSA6_P, 3, GOLDEN)):
        v = np.linalg.eigh(p)[1][:, -n:]
        witness = np.sign(p) / p.shape[0]
        out.append(_lp_instance(f"relproj-l1-{name}-certify", "l1", v, work,
                                witness, value))
    return out


def perturbed_hex3(rng: np.random.Generator) -> np.ndarray:
    """Ky Fan rank-2 maximizer of sqrt(D) S sqrt(D) for the hex3 sign
    pattern S and Dirichlet weights D."""
    s = 2.0 * np.eye(3) - 1.0
    sq = np.sqrt(rng.dirichlet(np.ones(3)))
    v = np.linalg.eigh(s * sq[:, None] * sq[None, :])[1][:, -2:]
    return v @ v.T


def predicted_blowup_d(p: np.ndarray, n: int, eps: float,
                       q_cap: int = 10**4) -> int | None:
    """Blow-up dimension the almost-minimal construction should reach:
    the smallest q with max_{i<m} |q w_i - round(q w_i)| <= 1/k for the
    squared Perron weights w of |P| and k from the quality budget."""
    w = np.linalg.eigh(np.abs(p))[1][:, -1] ** 2
    w = w / w.sum()
    m = w.size
    eta = min(1.0, (eps / 32.0) ** 2) / math.sqrt(n)
    k = math.floor(4.0 * (m - 1) * math.sqrt(n) / (eta * float(w.min()))) + 1
    qs = np.arange(1, q_cap + 1, dtype=float)[:, None]
    errs = np.abs(qs * w[:-1] - np.round(qs * w[:-1])).max(axis=1)
    hit = np.nonzero(errs <= 1.0 / k)[0]
    return int(hit[0]) + 1 if hit.size else None


def almostmin(seed: int, work: Path) -> list[Instance]:
    out = []
    for name, d, n, value in (("hex3", 3, 2, 4.0 / 3.0),
                              ("icosa6", 6, 3, GOLDEN)):
        for eps in NAMED_EPS:
            out.append(Instance(
                f"almost-min-{name}-eps{eps:g}",
                ["almost-min", "--n", str(n), "--eps", repr(eps),
                 "--seed", name],
                d, n, {"kind": "almost-min", "exact": value}))
        out.append(Instance(f"certify-{name}", ["certify", "--seed", name],
                            d, n, {"kind": "certify", "exact": value}))
    rng = np.random.default_rng(seed)
    for lo, hi in ALMOSTMIN_D_BANDS:
        while True:
            p = perturbed_hex3(rng)
            if np.abs(p).min() <= 1e-6:
                continue
            d = predicted_blowup_d(p, 2, ALMOSTMIN_EPS)
            if d is not None and lo <= d < hi:
                break
        path = _write(work / f"hex3-perturbed-d{d}.json", _matrix_json(p))
        out.append(Instance(
            f"almost-min-hex3-perturbed-d{d}",
            ["almost-min", "--n", "2", "--eps", repr(ALMOSTMIN_EPS),
             "--seed", path],
            d, 2, {"kind": "almost-min", "exact": None, "predicted_d": d}))
        out.append(Instance(f"certify-hex3-perturbed-d{d}",
                            ["certify", "--seed", path], 3, 2,
                            {"kind": "certify", "exact": None}))
    return out


WORKLOADS = {"exhaustive": exhaustive, "lp": lp, "almostmin": almostmin}
