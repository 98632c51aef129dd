"""Named seed projections.

hex3    — the rank-2 projector I - J/3 of l1^3 onto the hexagonal plane
          {x : x1 + x2 + x3 = 0}; absolute row sums all 4/3.
icosa6  — the rank-3 projector (I + C/sqrt(5))/2 of l1^6, where C is a
          6 x 6 Seidel matrix of the six icosahedron diagonals (symmetric
          conference matrix: zero diagonal, +-1 off-diagonal, C^2 = 5I);
          absolute row sums all (1+sqrt(5))/2.
paley13, paley17 — the rank-7 and rank-9 projectors (I + C/sqrt(q))/2 of
          l1^14 and l1^18 for the Paley conference matrices C of q = 13
          and q = 17; absolute row sums all (1+sqrt(q))/2.
trivial1 — the 1 x 1 identity.

``perturbed_hex3(rng)`` draws unnamed seeds with the hexagonal sign
pattern but non-uniform Perron weights, whose blow-ups grow without bound
as eps -> 0.

The icosahedral conference matrix is the Paley construction over GF(5);
``paley(q)`` builds the same family for every prime q = 1 (mod 4), and
(I + C/sqrt(q))/2 is then a rank-(q+1)/2 projection of l1^(q+1) whose
absolute row sums are all (1+sqrt(q))/2, the equiangular tight frame
bound, so its range attains Pi((q+1)/2, q+1).
"""

from __future__ import annotations

import functools

import numpy as np

from .eigsum import kyfan_sum
from .errors import PreconditionError
from .matcore import OrthoProjection, validate_projection


def paley(q: int) -> np.ndarray:
    """The (q+1) x (q+1) symmetric Paley conference matrix for a prime
    q = 1 (mod 4): the quadratic character chi(j - i) of GF(q), bordered
    by a zero corner and ones.  Checked to satisfy C^2 = qI."""
    if q < 5 or q % 4 != 1 or any(q % f == 0
                                  for f in range(2, int(q ** 0.5) + 1)):
        raise PreconditionError(f"paley needs a prime q = 1 (mod 4), got {q}")
    chi = -np.ones(q)
    chi[[x * x % q for x in range(1, q)]] = 1.0
    chi[0] = 0.0
    c = np.ones((q + 1, q + 1))
    c[0, 0] = 0.0
    idx = np.arange(q)
    c[1:, 1:] = chi[(idx[None, :] - idx[:, None]) % q]
    if not np.array_equal(c @ c, q * np.eye(q + 1)):
        raise AssertionError(f"Paley matrix for q={q} must satisfy C^2 = qI")
    return c


C_ICOSA = paley(5)


def hex3() -> OrthoProjection:
    return validate_projection(np.eye(3) - np.ones((3, 3)) / 3.0, 2)


def perturbed_hex3(rng: np.random.Generator) -> OrthoProjection:
    """The rank-2 Ky Fan maximizer of sqrt(D) S sqrt(D) for the hex3 sign
    pattern S = 2I - J and weights D drawn from Dirichlet(1, 1, 1)."""
    s = 2.0 * np.eye(3) - 1.0
    sq = np.sqrt(rng.dirichlet(np.ones(3)))
    return kyfan_sum(s * sq[:, None] * sq[None, :], 2)[1]


def paley_projection(q: int) -> OrthoProjection:
    """The rank-(q+1)/2 projection (I + paley(q)/sqrt(q))/2."""
    return validate_projection(
        0.5 * (np.eye(q + 1) + paley(q) / np.sqrt(q)), (q + 1) // 2)


def icosa6() -> OrthoProjection:
    return paley_projection(5)


def trivial1() -> OrthoProjection:
    return validate_projection(np.array([[1.0]]), 1)


SEEDS = {"hex3": hex3, "icosa6": icosa6,
         "paley13": functools.partial(paley_projection, 13),
         "paley17": functools.partial(paley_projection, 17),
         "trivial1": trivial1}


def get_seed(name: str) -> OrthoProjection:
    try:
        factory = SEEDS[name]
    except KeyError:
        raise PreconditionError(
            f"unknown seed {name!r}; available: {', '.join(sorted(SEEDS))}")
    return factory()
