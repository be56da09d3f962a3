"""Family file format.

A family file is a JSON object ``{"curves": [{"id": ..., "vertices": ...}]}``
where each id is a string, each vertex a pair ``[x, y]``, and each coordinate
an integer, a decimal string such as ``"2.5"``, or a fraction string
``"p/q"``.  Decimal strings convert exactly; JSON floats are rejected because
they cannot be trusted to mean what they say.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .curves import CurveFamily, GroundedCurve
from .validate import validate_family


def _coord_from_json(v) -> Fraction:
    if isinstance(v, int) and not isinstance(v, bool):
        return Fraction(v)
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(
        f"invalid coordinate {v!r}: use an integer, a decimal string, or 'p/q'")


def _coord_to_json(v: Fraction):
    if v.denominator == 1:
        return int(v)
    return f"{v.numerator}/{v.denominator}"


def curves_from_dict(data) -> list[GroundedCurve]:
    """The curves of family file data, in file order, not validated.  A
    ValueError names the first part that does not fit the format."""
    if not isinstance(data, dict) or not isinstance(data.get("curves"), list):
        raise ValueError('a family is an object {"curves": [...]}')
    curves = []
    for k, entry in enumerate(data["curves"]):
        if not (isinstance(entry, dict) and isinstance(entry.get("id"), str)
                and isinstance(entry.get("vertices"), (list, tuple))
                and all(isinstance(v, (list, tuple)) and len(v) == 2
                        for v in entry["vertices"])):
            raise ValueError(f"curve {k} needs a string id and a list of [x, y] vertices")
        curves.append(GroundedCurve(entry["id"], tuple(
            (_coord_from_json(x), _coord_from_json(y)) for x, y in entry["vertices"])))
    return curves


def family_from_dict(data) -> CurveFamily:
    return validate_family(curves_from_dict(data))


def family_to_dict(fam: CurveFamily) -> dict:
    return {"curves": [
        {"id": c.id,
         "vertices": [[_coord_to_json(x), _coord_to_json(y)] for x, y in c.vertices]}
        for c in fam.curves]}


def load_family(path) -> CurveFamily:
    with open(path, "r", encoding="utf-8") as fh:
        return family_from_dict(json.load(fh))


def loads_family(text: str) -> CurveFamily:
    return family_from_dict(json.loads(text))


def dump_family(fam: CurveFamily, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(family_to_dict(fam), fh, indent=1)
        fh.write("\n")


def dumps_family(fam: CurveFamily) -> str:
    return json.dumps(family_to_dict(fam), indent=1) + "\n"
