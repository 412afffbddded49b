"""Vectorized progressive-filling max-min solver (CSR incidence).

# repro-lint: hot-kernel

This is the large-component / large-round allocation kernel: the same
progressive-filling algorithm as :func:`repro.sim.oracle.maxmin_allocate`
(the scalar reference oracle), evaluated with whole-array numpy
operations over a link×flow incidence in CSR form so a 65k-rank round
costs a handful of array passes instead of a Python scan per
saturation round.  ``FlowNetwork`` dispatches components of
``_VEC_FLOWS`` (64) flows or more here; the analytic round model
solves every phase here.

Bit-identity argument
---------------------
The kernel reproduces the oracle's rates ``float.hex``-exactly, not
approximately.  Per saturation round the oracle computes

* ``share = residual[l] / count[l]`` per link and the minimum share —
  elementwise IEEE-754 float64 division and an exact minimum, both of
  which numpy evaluates with the identical operations (no fast-math,
  no reassociation);
* a saturation scan ``residual[l]/count <= bottleneck * (1 + 1e-12)``
  over links **in first-touch order with live counts**: fixing the
  members of an earlier saturated link shrinks a later link's count,
  which *raises* its share (the residual is frozen during the scan),
  so a later tie candidate can drop back out.  Counts only shrink, so
  the set of links saturated under round-start counts is a superset
  of the truly saturated ones: the kernel computes that candidate set
  with one vectorized pass and replays only those few links
  sequentially, recomputing the live count per link — the exact
  divisions the oracle performs, in the exact order.
* per newly-fixed flow, ``residual[l] = max(0.0, residual[l] - b)``
  for every link on its route.  Every subtraction of a round uses the
  *same* ``b``, so a link's residual after the round depends only on
  the **count** of subtractions applied to it (the clamp makes the
  identical op idempotent at zero), not on the flow order.  The kernel
  therefore applies ``max(0.0, residual - b)`` whole-array once per
  multiplicity level — the same number of identical operations per
  link, in a different (irrelevant) order across links.

Summation never occurs on the float path (member counts are integer
``bincount``\\ s), so there is no accumulation-order hazard at all.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np
from numpy.typing import NDArray

FloatArray = NDArray[np.float64]
IntArray = NDArray[np.int64]
BoolArray = NDArray[np.bool_]


class RouteIncidence:
    """Link×flow incidence of a set of routes, in CSR form.

    Built once (per memoised phase plan, or per solved component) and
    reused across solver invocations: the arrays are the *structure*,
    link capacities vary per call.  Duplicate link ids within a route
    are preserved — the oracle counts them with multiplicity, so the
    kernel must too.  ``caps[i]``, when given and not ``None``, adds
    flow ``i``'s rate cap as a pseudo column right after its route's
    links, exactly where :func:`~repro.sim.oracle.maxmin_allocate`
    puts it.  Columns are numbered in first-touch order, pseudo ones
    included, so column order *is* the oracle's saturation-scan order.
    """

    __slots__ = (
        "n_flows",
        "n_links",
        "n_cols",
        "link_ids",
        "flow_cols",
        "flow_rows",
        "link_ptr",
        "link_rows",
        "empty",
        "_link_cols",
        "_cap_cols",
        "_cap_vals",
    )

    def __init__(
        self,
        routes: Sequence[tuple[int, ...]],
        caps: Sequence[float | None] | None = None,
    ) -> None:
        col_of: dict[int, int] = {}
        entries: list[int] = []
        lengths: list[int] = []
        cap_cols: list[int] = []
        cap_vals: list[float] = []
        for i, route in enumerate(routes):
            for link in route:
                col = col_of.get(link)
                if col is None:
                    col = col_of[link] = len(col_of) + len(cap_cols)
                entries.append(col)
            cap = caps[i] if caps is not None else None
            if cap is not None:
                cap_cols.append(len(col_of) + len(cap_cols))
                cap_vals.append(cap)
                entries.append(cap_cols[-1])
            lengths.append(len(route) + (cap is not None))
        #: the real links, in first-touch order: what ``solve`` takes
        #: capacities for
        self.link_ids: list[int] = list(col_of)
        self.n_flows = len(routes)
        self.n_links = len(col_of)
        self.n_cols = len(col_of) + len(cap_cols)
        self._link_cols: IntArray = np.fromiter(
            col_of.values(), dtype=np.int64, count=self.n_links
        )
        self._cap_cols: IntArray = np.asarray(cap_cols, dtype=np.int64)
        self._cap_vals: FloatArray = np.asarray(cap_vals, dtype=np.float64)
        lens = np.asarray(lengths, dtype=np.int64)
        #: column per incidence entry, flows concatenated in order
        self.flow_cols: IntArray = np.asarray(entries, dtype=np.int64)
        #: row (flow) index per incidence entry, aligned with flow_cols
        self.flow_rows: IntArray = np.repeat(
            np.arange(self.n_flows, dtype=np.int64), lens
        )
        #: column -> member flow indices (CSR over columns, dups preserved)
        order = np.argsort(self.flow_cols, kind="stable")
        self.link_rows: IntArray = self.flow_rows[order]
        ptr = np.zeros(self.n_cols + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.flow_cols, minlength=self.n_cols), out=ptr[1:])
        self.link_ptr: IntArray = ptr
        #: flows with no links and no cap (rate = inf, excluded from filling)
        self.empty: BoolArray = lens == 0

    def solve(self, capacities: FloatArray) -> FloatArray:
        """Max-min rates, bit-identical to :func:`~repro.sim.oracle.maxmin_allocate`.

        ``capacities`` is aligned with :attr:`link_ids`; the caps given
        at construction fill the pseudo columns.
        """
        n_cols = self.n_cols
        rates = np.zeros(self.n_flows, dtype=np.float64)
        rates[self.empty] = math.inf
        unfixed = ~self.empty
        if not bool(unfixed.any()):
            return rates

        rows, cols = self.flow_rows, self.flow_cols
        residual = np.empty(n_cols, dtype=np.float64)
        residual[self._link_cols] = capacities
        residual[self._cap_cols] = self._cap_vals
        counts: IntArray = np.diff(self.link_ptr)
        shares = np.empty(n_cols, dtype=np.float64)
        while True:
            in_play = counts > 0
            if not bool(in_play.any()):  # pragma: no cover - defensive
                rates[unfixed] = math.inf
                break
            shares.fill(math.inf)
            np.divide(residual, counts, out=shares, where=in_play)
            bottleneck = float(shares.min())
            if math.isinf(bottleneck):  # pragma: no cover - defensive
                rates[unfixed] = math.inf
                break
            tol = bottleneck * (1.0 + 1e-12)
            candidates = in_play & (shares <= tol)
            newly = self._live_scan(candidates, unfixed, residual, tol)
            rates[newly] = bottleneck
            # per-column subtraction multiplicity: how many times the
            # oracle's per-flow loop hits each column this round
            mult: IntArray = np.bincount(cols[newly[rows]], minlength=n_cols)
            counts = counts - mult
            pending = mult > 0
            while bool(pending.any()):
                residual[pending] = np.maximum(0.0, residual[pending] - bottleneck)
                mult[pending] -= 1
                pending = mult > 0
            unfixed &= ~newly
            if not bool(unfixed.any()):
                break
        return rates

    def _live_scan(
        self,
        candidates: BoolArray,
        unfixed: BoolArray,
        residual: FloatArray,
        tol: float,
    ) -> BoolArray:
        """The oracle's sequential saturation scan over the candidates.

        Counts only shrink while the scan fixes flows, so shares only
        grow: columns outside the round-start candidate set can never
        saturate mid-round, and the scan needs to replay *only* the
        candidates (usually a handful), in column (= first-touch)
        order, testing the live count exactly as the oracle does.
        """
        before = unfixed.copy()
        ptr, link_rows = self.link_ptr, self.link_rows
        for col in np.nonzero(candidates)[0].tolist():
            members = link_rows[ptr[col]:ptr[col + 1]]
            live = int(np.count_nonzero(unfixed[members]))
            if live == 0:
                continue
            if float(residual[col]) / live <= tol:
                unfixed[members] = False
        newly = before & ~unfixed
        # the caller subtracts via `unfixed &= ~newly`; restore here so
        # that update sees the pre-scan mask it expects
        unfixed |= before
        return newly
