"""The committed corpus: JSON encoding of inputs and answers, seed relabelings, digests.

Every number is an exact rational written as a string ("3/7"). The corpus
holds base instances, each round trip's interior prior, and the answers the
library gave for them when the corpus was made (see make_corpus.py). From
its seed a run orders the round trips and draws a relabeling of states,
actions and signals for each valuation; the committed answers are carried
through the relabeling exactly, so the checks never call the library.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from random import Random

CORPUS_PATH = Path(__file__).with_name("corpus.json")

Row = tuple[Fraction, ...]


def load_corpus() -> dict:
    with open(CORPUS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def enc_row(values) -> list[str]:
    return [str(v) for v in values]


def dec_row(values) -> Row:
    return tuple(Fraction(v) for v in values)


def dec_rows(rows) -> tuple[Row, ...]:
    return tuple(dec_row(row) for row in rows)


# ---------------------------------------------------------------------------
# library objects <-> JSON
# ---------------------------------------------------------------------------


def encode_dist(dist) -> list:
    return [[enc_row(b.coords), str(p)] for b, p in dist.atoms]


def encode_tag(tag) -> list:
    if hasattr(tag, "cell"):
        return ["cell", tag.cell]
    return ["pair", tag.i, tag.j]


def encode_data(data) -> dict:
    """IdentificationData as JSON, keeping the library's canonical order."""
    return {
        "prior": enc_row(data.prior.coords),
        "ordinal": [
            {
                "lhs": encode_dist(s.lhs),
                "rhs": encode_dist(s.rhs),
                "relation": s.relation,
                "tag": encode_tag(s.tag),
            }
            for s in data.ordinal
        ],
        "cardinal": [
            {
                "lhs": encode_dist(d.lhs),
                "rhs": encode_dist(d.rhs),
                "gap": str(d.gap),
                "edge": list(d.edge),
            }
            for d in data.cardinal
        ],
        "root": data.root_cell,
    }


def _halfspace(h) -> list:
    return [enc_row(h.normal), str(h.offset)]


def encode_value_fn(fn) -> dict:
    """PiecewiseAffineFn as JSON: cells, adjacency and pieces, in library order."""
    sub = fn.subdivision
    return {
        "cells": [
            {
                "action": cell.action_index,
                "halfspaces": [_halfspace(h) for h in cell.geometry.halfspaces],
                "vertices": [enc_row(v.coords) for v in cell.geometry.vertices],
            }
            for cell in sub.cells
        ],
        "adjacency": [
            {
                "i": pair.i,
                "j": pair.j,
                "shared": [enc_row(v.coords) for v in pair.shared.vertices],
                "halfspace": _halfspace(pair.halfspace),
            }
            for pair in sub.adjacency
        ],
        "pieces": [enc_row(piece.coeffs) for piece in fn.pieces],
    }


def decode_dist(mods, atoms):
    belief = mods.geometry.Belief
    return mods.information.PosteriorDistribution(
        [(belief(dec_row(coords)), Fraction(p)) for coords, p in atoms]
    )


def decode_data(mods, obj):
    """Build IdentificationData from its JSON form with the given modules."""
    ident = mods.identification

    def tag(item):
        return ident.CellAffine(item[1]) if item[0] == "cell" else ident.PairNonAffine(item[1], item[2])

    ordinal = [
        ident.OrderedExpectation(
            decode_dist(mods, s["lhs"]), decode_dist(mods, s["rhs"]), s["relation"], tag(s["tag"])
        )
        for s in obj["ordinal"]
    ]
    cardinal = [
        ident.UtilityDifference(
            decode_dist(mods, d["lhs"]), decode_dist(mods, d["rhs"]), Fraction(d["gap"]), tuple(d["edge"])
        )
        for d in obj["cardinal"]
    ]
    prior = mods.geometry.Belief(dec_row(obj["prior"]))
    return ident.IdentificationData(prior, tuple(ordinal), tuple(cardinal), root_cell=obj["root"])


def digest(obj) -> str:
    """Short hash of a JSON-encodable output; any change of value or order changes it."""
    text = json.dumps(obj, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


# ---------------------------------------------------------------------------
# seed relabelings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Relabeling:
    """Positions of the old states and actions in the relabeled instance.

    states[t] is the old state shown at new position t, and likewise for
    actions; a belief or likelihood row is relabeled by the same state map.
    """

    states: tuple[int, ...]
    actions: tuple[int, ...]

    @classmethod
    def draw(cls, rng: Random, n: int, k: int) -> "Relabeling":
        states = list(range(n))
        actions = list(range(k))
        rng.shuffle(states)
        rng.shuffle(actions)
        return cls(tuple(states), tuple(actions))

    def point(self, coords) -> tuple:
        return tuple(coords[t] for t in self.states)

    def utility(self, rows) -> tuple[Row, ...]:
        return tuple(self.point(rows[a]) for a in self.actions)


def instance_rng(seed: int, key: str) -> Random:
    """Per-instance generator, so one instance's draw does not depend on the others."""
    return Random(f"{seed}:{key}")


def draw_prior(rng: Random, n: int) -> Row:
    weights = [rng.randint(1, 12) for _ in range(n)]
    total = sum(weights)
    return tuple(Fraction(w, total) for w in weights)
