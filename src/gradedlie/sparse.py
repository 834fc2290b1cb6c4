"""Sparse vectors: dicts from keys to nonzero coefficients.

One accumulator adds into them in place, so no zero is ever stored; sparse
combinations of words (tuples) share one product; and a fraction-free
echelon basis of sparse integer vectors decides span membership by
reduction, with no dense row built.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple


def _accumulate(acc: dict, key, c) -> None:
    """acc[key] += c in place, dropping the key when the sum is zero."""
    s = acc.get(key, 0) + c
    if s == 0:
        acc.pop(key, None)
    else:
        acc[key] = s


def _sparse_add(x: dict, y: dict) -> dict:
    out = dict(x)
    for key, c in y.items():
        _accumulate(out, key, c)
    return out


def _sparse_scale(c, x: dict) -> dict:
    return {key: c * v for key, v in x.items()} if c != 0 else {}


def _sparse_reduce(basis: Sequence[Tuple[object, dict]], vec: dict) -> dict:
    """vec, times a nonzero integer, minus the integer combination of the
    basis rows that clears their pivots; empty iff vec is in their span.
    basis is _sparse_echelon's: (pivot, row) pairs of integer rows, each
    row zero at the pivots of the rows before it, so clearing the pivots
    in order leaves each one cleared."""
    v = dict(vec)
    for p, row in basis:
        f = v.get(p)
        if f:
            pv = row[p]
            g = math.gcd(f, pv)
            f, pv = f // g, pv // g
            if pv != 1:
                v = {k: pv * x for k, x in v.items()}
            for k, x in row.items():
                y = v.get(k, 0) - f * x
                if y:
                    v[k] = y
                else:
                    del v[k]
    return v


def _sparse_echelon(vectors: Sequence[dict]) -> List[Tuple[object, dict]]:
    """A fraction-free echelon basis of the span of sparse integer vectors,
    as (pivot, row) pairs for _sparse_reduce: each vector is reduced by the
    rows before it and, if anything is left, kept with its least key as
    pivot, divided by the gcd of its entries."""
    basis: List[Tuple[object, dict]] = []
    for vec in vectors:
        v = _sparse_reduce(basis, vec)
        if v:
            g = math.gcd(*v.values())
            if g > 1:
                v = {k: x // g for k, x in v.items()}
            basis.append((min(v), v))
    return basis


def _concat(a: dict, b: dict) -> dict:
    """The product of two sparse combinations of words (tuples): every pair
    of words concatenated, coefficients multiplied and accumulated."""
    out: dict = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            _accumulate(out, wa + wb, ca * cb)
    return out
