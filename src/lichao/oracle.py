"""Brute-force envelope ground truth.

A flat append-only list of lines and segments; every query is answered by
evaluating all entries whose range covers x and taking the minimum.  This
is the independent oracle the real structures are differentially tested
against: it shares no code path with them, only the definition of the
answer.

O(N) per query, vectorized over the entry list; workloads are expected to
stay small (<= ~10^4 entries).  Coefficients, bounds and x are converted
with `operator.index`, as the engines convert them, so a float raises
TypeError.  Any coefficient that fits int64 is accepted and every answer
is exact: a query evaluates in int64 when the running maxima of |k| and
|b| bound every value at x inside int64 (as they do for every line inside
the engines' contract, `lichao.core`), and in Python ints otherwise.
Single-threaded use only.
"""

from operator import index
from typing import Optional

import numpy as np

from .core import I64_MAX, I64_MIN, InvalidSegmentError


class NaiveSet:
    """Append-only set of lines / segments with linear-scan minimum queries."""

    def __init__(self):
        cap = 16
        self._ks = np.empty(cap, dtype=np.int64)
        self._bs = np.empty(cap, dtype=np.int64)
        self._xls = np.empty(cap, dtype=np.int64)
        self._xrs = np.empty(cap, dtype=np.int64)
        self._n = 0
        self._kmax = 0  # running maxima of |k| and |b|
        self._bmax = 0

    def __len__(self) -> int:
        return self._n

    def _append(self, k: int, b: int, xl: int, xr: int) -> None:
        n = self._n
        if n == len(self._ks):
            for name in ("_ks", "_bs", "_xls", "_xrs"):
                old = getattr(self, name)
                grown = np.empty(2 * n, dtype=np.int64)
                grown[:n] = old
                setattr(self, name, grown)
        k, b = index(k), index(b)
        self._ks[n] = k
        self._bs[n] = b
        self._xls[n] = xl
        self._xrs[n] = xr
        self._n = n + 1
        self._kmax = max(self._kmax, abs(k))
        self._bmax = max(self._bmax, abs(b))

    def add_line(self, line) -> None:
        """Append a full line (valid at every coordinate)."""
        k, b = line
        self._append(k, b, I64_MIN, I64_MAX)

    def add_segment(self, line, xl: int, xr: int) -> None:
        """Append a line valid only on [xl, xr]."""
        xl = index(xl)
        xr = index(xr)
        if xl > xr:
            raise InvalidSegmentError(f"segment bounds reversed: [{xl}, {xr}]")
        k, b = line
        self._append(k, b, xl, xr)

    def query(self, x: int) -> Optional[int]:
        """Minimum over all entries covering x; None if none apply."""
        x = index(x)
        n = self._n
        if n == 0:
            return None
        mask = (self._xls[:n] <= x) & (x <= self._xrs[:n])
        if not mask.any():
            return None
        ks = self._ks[:n][mask]
        bs = self._bs[:n][mask]
        if self._kmax * abs(x) + self._bmax > I64_MAX:
            return min(k * x + b for k, b in zip(ks.tolist(), bs.tolist()))
        return int((ks * x + bs).min())
