"""Deterministic generators for test families, plus the frozen figure
fixtures with their machine-checkable relation lists.

Generators draw from ``random.Random(seed)`` (stable integer sequences) on an
integer grid, then nudge coordinates by tiny distinct rationals until the
family passes validation; everything is a pure function of the GenSpec.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from .errors import FamilyValidationError, GenerationFailure
from .geom import CurveFamily, GroundedCurve, family_from_dict, validate_family


@dataclass(frozen=True)
class GenSpec:
    kind: str = "segments"      # segments | polylines | figure
    n: int = 4
    bends: int = 3              # max vertices per curve
    seed: int = 0
    grid: int = 12              # coordinate range before rational perturbation

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n >= 1 required")
        if self.bends < 2:
            raise ValueError("bends >= 2 required")
        # Segments draw basepoints from range(grid), polylines first heights
        # from range(2, grid + 1).
        least = {"segments": 1, "polylines": 2}.get(self.kind, 0)
        if self.grid < least:
            raise ValueError(f"grid >= {least} required for {self.kind}")


_MAX_ROUNDS = 24


def _perturber(seed: int, n: int):
    """Per-attempt source of small distinct rational offsets.

    Attempt 0 uses the plain (i+1)/(n+1) * 1e-6 ladder; later attempts draw
    random numerators so that proportional degeneracies (which a uniform
    rescaling would preserve) break.  Deterministic in the seed.
    """
    rng = random.Random(seed ^ 0x5EED)

    def offset(i: int, attempt: int) -> Fraction:
        if attempt == 0:
            return Fraction(i + 1, n + 1) * Fraction(1, 10 ** 6)
        return Fraction(rng.randrange(1, 10 ** 6), 10 ** 11) * (attempt + 1)

    return offset


def _settle(raw_builder, n: int) -> CurveFamily:
    """Retry the builder with fresh perturbations until validation passes."""
    for attempt in range(_MAX_ROUNDS):
        try:
            return validate_family(raw_builder(attempt))
        except FamilyValidationError:
            pass
    raise GenerationFailure(f"no valid configuration within {_MAX_ROUNDS} rounds")


def random_grounded_segments(spec: GenSpec) -> CurveFamily:
    """n straight segments with distinct integer basepoints and random tops."""
    if spec.kind != "segments":
        raise ValueError("spec.kind must be 'segments'")
    rng = random.Random(spec.seed)
    bases = rng.sample(range(spec.grid), min(spec.n, spec.grid))
    while len(bases) < spec.n:
        bases.append(bases[-1] + spec.grid)
    tops = [(rng.randrange(spec.grid), rng.randrange(1, spec.grid + 1))
            for _ in range(spec.n)]
    offset = _perturber(spec.seed, spec.n)

    def build(attempt):
        curves = []
        for i in range(spec.n):
            dx, dy = offset(i, attempt), offset(i, attempt)
            tx, ty = tops[i]
            curves.append(GroundedCurve(
                f"c{i}", ((Fraction(bases[i]), Fraction(0)),
                          (tx + dx, ty + 2 * dy))))
        return curves

    return _settle(build, spec.n)


def random_grounded_polylines(spec: GenSpec) -> CurveFamily:
    """n polylines: an upward first segment, then random bends above the
    baseline, at most spec.bends vertices per curve."""
    if spec.kind != "polylines":
        raise ValueError("spec.kind must be 'polylines'")
    rng = random.Random(spec.seed)
    bases = rng.sample(range(spec.grid), min(spec.n, spec.grid))
    while len(bases) < spec.n:
        bases.append(bases[-1] + spec.grid)
    shapes = []
    for i in range(spec.n):
        nverts = rng.randrange(2, spec.bends + 1)
        first = (bases[i] + rng.choice((-1, 0, 1)), rng.randrange(2, spec.grid + 1))
        rest = [(rng.randrange(-1, spec.grid + 2), rng.randrange(1, spec.grid + 1))
                for _ in range(nverts - 2)]
        shapes.append([first] + rest)
    offset = _perturber(spec.seed, spec.n)

    def build(attempt):
        curves = []
        for i in range(spec.n):
            verts = [(Fraction(bases[i]), Fraction(0))]
            for vi, (x, y) in enumerate(shapes[i]):
                verts.append((x + offset(i * 7 + vi, attempt),
                              y + offset(i * 11 + vi, attempt)))
            curves.append(GroundedCurve(f"c{i}", tuple(verts)))
        return curves

    return _settle(build, spec.n)


def generate(spec: GenSpec) -> CurveFamily:
    if spec.kind == "segments":
        return random_grounded_segments(spec)
    if spec.kind == "polylines":
        return random_grounded_polylines(spec)
    raise ValueError(f"unknown generator kind {spec.kind!r}")


def _load_fixture_json(name: str) -> dict:
    ref = resources.files("outerstring").joinpath("fixtures", name)
    return json.loads(ref.read_text(encoding="utf-8"))


def figure_fixture(which: int):
    """The frozen polyline transcription of drawing 1..4 plus its relation
    list (support assignments, supported/unsupported sets, first-hit map and
    region samples, anchors/sides/signature, depending on the figure).

    Coordinates are frozen data files certified by scripts/calibrate_figures.py,
    which recomputes every relation with this package and refuses to freeze a
    transcription that fails any of them.
    """
    if which not in (1, 2, 3, 4):
        raise ValueError("figure_fixture(which) needs which in 1..4")
    family = family_from_dict(_load_fixture_json(f"figure{which}.json"))
    relations = _load_fixture_json(f"figure{which}.relations.json")
    return family, relations
