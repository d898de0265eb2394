"""Seeded generators of `cyclex run` configs for the three workloads.

A workload is a list of slots.  One round runs every slot once, in a
seeded order.  Each slot family spreads its shape parameter (gap, axis
ratio, spiral length, lattice step, ...) over equal strata, one slot per
stratum, and the rounds of a set split each stratum evenly again, so over
a set every shape parameter sits on the same regular grid whatever the
seed (systematic sampling).  The seed draws everything else: directions,
centres, radii, starts and the order of the runs.  That keeps the mix of
cheap and expensive experiments, and so throughput and the percentiles,
comparable between seeds.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

WORKLOADS = ("sweep", "product", "witness")

# Experiments per set: at least 100, so that 10 lie beyond the p90.  The
# product solvers' iteration counts vary most between random families,
# so that workload averages over more of them.
SET_SIZE = {"sweep": 150, "product": 300, "witness": 100}

# Tolerances written into every config; the output checks read them back.
CYCLE_TOL = 1e-9
FIXPOINT_TOL = 1e-8


def _unit(rng, d):
    while True:
        g = rng.standard_normal(d)
        n = float(np.linalg.norm(g))
        if n > 1e-6:
            return g / n


def _orthonormal_pair(rng, d):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return q[:, 0], q[:, 1]


def _ball(c, r):
    return {"type": "ball", "center": np.asarray(c, float).tolist(), "radius": float(r)}


def _box(lo, hi):
    return {"type": "box", "lower": np.asarray(lo, float).tolist(), "upper": np.asarray(hi, float).tolist()}


def _ellipsoid(c, axes):
    return {"type": "ellipsoid", "center": np.asarray(c, float).tolist(), "axes": np.asarray(axes, float).tolist()}


def _axes(rng, d, log_ratio):
    """Axes whose largest/smallest ratio is exactly 10**log_ratio, around 1."""
    ax = 10.0 ** rng.uniform(-log_ratio / 2, log_ratio / 2, d)
    ax[0], ax[-1] = 10.0 ** (log_ratio / 2), 10.0 ** (-log_ratio / 2)
    return rng.permutation(ax)


def _sweep_solver():
    return {"cycle_tol": CYCLE_TOL}


# --- sweep: periodic and pair_distance configs, d = 2..5 -------------------


def tangent_balls(rng, u, d):
    """Two unit balls a log-uniform gap apart: hundreds to thousands of sweeps.

    The start is 3 from the first centre at 2 rad off the axis, in a random
    plane through it, so the sweep count depends on the gap alone."""
    gap = 10.0 ** (-2.7 + 1.2 * u)
    axis, across = _orthonormal_pair(rng, d)
    c1 = rng.uniform(-1.0, 1.0, d)
    c2 = c1 + (2.0 + gap) * axis
    return {
        "kind": "pair_distance",
        "family": [_ball(c1, 1.0), _ball(c2, 1.0)],
        "start": (c1 + 3.0 * (math.cos(2.0) * axis + math.sin(2.0) * across)).tolist(),
        "solver": _sweep_solver(),
    }


def separated_ellipsoids(rng, u, d, kind, second_ellipsoid):
    """An ellipsoid of axis ratio up to 10^3 against a rounder ellipsoid or a
    ball, well apart: few sweeps, each dominated by the secular Newton solve."""
    a1 = _axes(rng, d, 3.0 * u)
    if second_ellipsoid:
        a2 = _axes(rng, d, rng.uniform(0.0, 1.0))
        r2 = float(a2.max())
    else:
        a2 = None
        r2 = 10.0 ** rng.uniform(-0.5, 0.5)
    c2 = (float(a1.max()) + r2) * rng.uniform(1.1, 1.6) * _unit(rng, d)
    second = _ellipsoid(c2, a2) if a2 is not None else _ball(c2, r2)
    return {
        "kind": kind,
        "family": [_ellipsoid(np.zeros(d), a1), second],
        "start": (rng.uniform(-2.0, 2.0, d) * float(a1.max())).tolist(),
        "solver": _sweep_solver(),
    }


def ring(rng, u, d, m, with_box):
    """m balls and ellipsoids (one box if ``with_box``) round a circle,
    neighbours a log-uniform fraction short of touching: 2 to a few hundred
    sweeps.  Two sets in five are ellipsoids, at random places; their axes
    are at most the balls' radius, so no two neighbours come closer than
    the balls do (closer neighbours can take thousands of sweeps, and
    would make the workload's cost depend on the seed)."""
    e1, e2 = _orthonormal_pair(rng, d)
    half_chord = math.sin(math.pi / m)
    r = half_chord * (1.0 - 10.0 ** (-3.0 + 2.7 * u))
    kinds = ["ellipsoid"] * round(0.4 * m) + ["ball"] * (m - round(0.4 * m))
    if with_box:
        kinds[-1] = "box"
    kinds = rng.permutation(kinds)
    family = []
    for i in range(m):
        th = 2.0 * math.pi * i / m
        c = math.cos(th) * e1 + math.sin(th) * e2
        if kinds[i] == "box":
            h = r / math.sqrt(d)
            family.append(_box(c - h, c + h))
        elif kinds[i] == "ellipsoid":
            family.append(_ellipsoid(c, r * 10.0 ** rng.uniform(-0.5, 0.0, d)))
        else:
            family.append(_ball(c, r))
    return {
        "kind": "periodic",
        "family": family,
        "start": rng.uniform(-2.0, 2.0, d).tolist(),
        "solver": _sweep_solver(),
    }


def _sweep_slots():
    slots = []
    for j in range(8):
        slots.append(lambda rng, phase, j=j: tangent_balls(rng, _stratum(phase, j, 8), 2 + j % 4))
    # Enough ellipsoid pairs that the secular solve carries over a tenth of
    # the traced self time next to the long tangent-ball runs.  Every d
    # gets both kinds of second set.
    for j in range(32):
        kind = ("periodic", "pair_distance")[j % 2]
        slots.append(
            lambda rng, phase, j=j, kind=kind: separated_ellipsoids(
                rng, _stratum(phase, j // 2, 16), 2 + (j // 2) % 4, kind, (j // 8) % 2 == 0
            )
        )
    for j in range(12):
        slots.append(
            lambda rng, phase, j=j: ring(rng, _stratum(phase, j, 12), 2 + j % 4, 3 + j % 6, j % 3 == 0)
        )
    return slots


# --- product: projected_gradient and parallel on balls and boxes ------------

_PRODUCT_SOLVERS = (
    ("projected_gradient", {"objective": {"kind": "pairwise2"}}),
    ("projected_gradient", {"objective": {"kind": "cyclic2"}}),
    ("parallel", {"variant": "others_mean"}),
    ("parallel", {"variant": "full_mean"}),
)


def ball_box_family(rng, u, d, m, solver):
    """m balls and boxes of size 0.3..1 at distinct points of a jittered
    lattice whose step grows with u.  Neighbours stay at least 0.1 apart:
    nearly touching sets make the solvers converge sublinearly, and one
    such family can take tens of thousands of iterations."""
    kind, extra = _PRODUCT_SOLVERS[solver]
    step = 2.5 + 2.0 * u
    side = math.ceil(m ** (1.0 / d)) + 1
    cells = np.array(list(itertools.product(range(side), repeat=d)), dtype=float)
    centers = step * (cells[rng.choice(len(cells), m, replace=False)] - (side - 1) / 2.0)
    centers += rng.uniform(-0.2, 0.2, centers.shape)
    family = []
    for c in centers:
        r = rng.uniform(0.3, 1.0)
        if rng.random() < 0.5:
            family.append(_ball(c, r))
        else:
            h = r * rng.uniform(0.5, 1.0, d)
            family.append(_box(c - h, c + h))
    return {
        "kind": kind,
        "family": family,
        "start": (step * rng.uniform(-1.0, 1.0, d)).tolist(),
        "solver": {"cycle_tol": CYCLE_TOL, "fixpoint_tol": FIXPOINT_TOL},
        **extra,
    }


# Slot counts per m put the median in the lower half of the m = 10 group,
# where its times lie densest, and the p90 inside the m = 50 group, away
# from the jumps in time between groups and from the slow tail of m = 10.
_PRODUCT_SIZES = ((3, 10), (10, 12), (25, 4), (50, 4))


def _product_slots():
    slots = []
    for m, count in _PRODUCT_SIZES:
        for j in range(count):
            slots.append(
                lambda rng, phase, j=j, m=m, count=count: ball_box_family(
                    rng, _stratum(phase, j, count), 2 + j % 3, m, j % 4
                )
            )
    return slots


# --- witness: spiral, falsify and gap ----------------------------------------

CANDIDATES = ("perimeter", "cyclic2", "pairwise2", "constant", "tuple_norm")


def spiral_config(rng, u, d):
    """A spiral of n = 10^3..10^4.5 rays; x sits 0.3..2.8 rad from y."""
    n = int(round(10.0 ** (3.0 + 1.5 * u)))
    e1, e2 = _orthonormal_pair(rng, d)
    ny = rng.uniform(1.0, 3.0)
    alpha = rng.uniform(0.3, 2.8)
    nx = ny * rng.uniform(0.2, 0.9)
    return {
        "kind": "spiral",
        "x": (nx * (math.cos(alpha) * e1 + math.sin(alpha) * e2)).tolist(),
        "y": (ny * e1).tolist(),
        "n": n,
    }


def falsify_config(rng, u_m, u_samples, d, candidate):
    """One built-in candidate, m = 3..40 and 16..256 sphere samples, both
    log-uniform."""
    return {
        "kind": "falsify",
        "candidate": candidate,
        "m": int(round(3.0 * (40.0 / 3.0) ** u_m)),
        "z": _unit(rng, d).tolist(),
        "rho": rng.uniform(1.5, 4.0),
        "sphere_samples": int(round(16.0 * 16.0 ** u_samples)),
        "seed": int(rng.integers(2**31)),
    }


def gap_config(rng, u, d, candidate_kind):
    """Three unit balls on a triangle of side 2.1..4."""
    e1, e2 = _orthonormal_pair(rng, d)
    side = 2.1 + 1.9 * u
    centers = [np.zeros(d), side * e1, side * (0.5 * e1 + rng.uniform(0.5, 1.2) * e2)]
    return {
        "kind": "gap",
        "family": [_ball(c, 1.0) for c in centers],
        "start": rng.uniform(-3.0, 3.0, d).tolist(),
        "candidate_kind": candidate_kind,
        "solver": {"cycle_tol": CYCLE_TOL, "fixpoint_tol": FIXPOINT_TOL},
    }


def _witness_slots():
    slots = []
    for j in range(4):
        slots.append(lambda rng, phase, j=j: spiral_config(rng, _stratum(phase, j, 4), 2 + j % 3))
    # m and sample strata run in opposite directions, so the O(m^2 * samples)
    # cost of the pairwise candidate never lands all on one slot.
    for c, candidate in enumerate(CANDIDATES):
        for j in range(3):
            slots.append(
                lambda rng, phase, j=j, c=c, candidate=candidate: falsify_config(
                    rng, _stratum(phase, j, 3), _stratum(phase, 2 - j, 3), 2 + (j + c) % 3, candidate
                )
            )
    for j in range(4):
        slots.append(lambda rng, phase, j=j: gap_config(rng, _stratum(phase, j, 4), 2 + j % 3, ("pairwise2", "cyclic2")[j % 2]))
    return slots


def _stratum(phase, j, k):
    """The point at ``phase`` in the j-th of k equal strata of [0, 1)."""
    return (j + phase) / k


_SLOTS = {"sweep": _sweep_slots, "product": _product_slots, "witness": _witness_slots}


def generate(workload: str, seed: int, least: int):
    """The workload's experiment configs for ``seed``: whole rounds, at
    least ``least`` of them.  The same seed gives the same configs."""
    slots = _SLOTS[workload]()
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    rounds = max(1, -(-least // len(slots)))
    phases = (rng.permutation(rounds) + 0.5) / rounds
    configs = []
    for phase in phases:
        round_ = [slot(rng, phase) for slot in slots]
        configs.extend(round_[i] for i in rng.permutation(len(round_)))
    return configs
