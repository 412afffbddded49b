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

_NEVER = 1 << 62


class RouteIncidence:
    """Link×flow incidence of a set of routes, in CSR form.

    Built once (per memoised round model, or per solved component) and
    reused across solver invocations: the arrays are the *structure*;
    capacities and active-flow subsets vary per call.  Duplicate link
    ids within a route are preserved — the oracles count them with
    multiplicity, so the kernel must too.
    """

    __slots__ = (
        "n_flows",
        "n_links",
        "link_ids",
        "flow_cols",
        "flow_rows",
        "flow_ptr",
        "link_ptr",
        "link_rows",
        "empty",
    )

    def __init__(
        self,
        routes: Sequence[tuple[int, ...]],
        link_ids: Sequence[int] | None = None,
    ) -> None:
        #: column order: caller-supplied link universe, or first-touch
        if link_ids is None:
            seen: dict[int, None] = {}
            for route in routes:
                for link in route:
                    if link not in seen:
                        seen[link] = None
            link_ids = list(seen)
        self.link_ids: list[int] = list(link_ids)
        col_of = {link: col for col, link in enumerate(self.link_ids)}
        self.n_flows = len(routes)
        self.n_links = len(self.link_ids)
        lengths = np.asarray([len(route) for route in routes], dtype=np.int64)
        #: dense column per incidence entry, flows concatenated in order
        self.flow_cols: IntArray = np.asarray(
            [col_of[link] for route in routes for link in route], dtype=np.int64
        )
        #: row (flow) index per incidence entry, aligned with flow_cols
        self.flow_rows: IntArray = np.repeat(
            np.arange(self.n_flows, dtype=np.int64), lengths
        )
        #: flow -> its slice of flow_cols (CSR over rows, route order)
        fptr = np.zeros(self.n_flows + 1, dtype=np.int64)
        np.cumsum(lengths, out=fptr[1:])
        self.flow_ptr: IntArray = fptr
        #: link -> member flow indices (CSR over columns, dups preserved)
        order = np.argsort(self.flow_cols, kind="stable")
        self.link_rows: IntArray = self.flow_rows[order]
        ptr = np.zeros(self.n_links + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.flow_cols, minlength=self.n_links), out=ptr[1:])
        self.link_ptr: IntArray = ptr
        #: flows with no links (rate = inf, excluded from filling)
        self.empty: BoolArray = lengths == 0

    def solve(
        self,
        capacities: FloatArray,
        active: BoolArray | None = None,
    ) -> FloatArray:
        """Max-min rates, bit-identical to :func:`~repro.sim.oracle.maxmin_allocate`.

        ``capacities`` is indexed by column (aligned with
        :attr:`link_ids`).  ``active`` restricts the computation to a
        flow subset — exactly as if the oracle were called on the
        sub-list — with inactive flows reported at rate 0.0 (callers
        ignore those slots).
        """
        n_flows, n_links = self.n_flows, self.n_links
        rates = np.zeros(n_flows, dtype=np.float64)
        if active is None:
            unfixed = ~self.empty
        else:
            unfixed = active & ~self.empty
            rates[active & self.empty] = math.inf
        if active is None:
            rates[self.empty] = math.inf
        if n_links == 0 or not bool(unfixed.any()):
            return rates

        rows, cols = self.flow_rows, self.flow_cols
        residual = capacities.astype(np.float64, copy=True)
        counts: IntArray = np.bincount(cols[unfixed[rows]], minlength=n_links)
        scan_rank = self._scan_rank(unfixed)
        shares = np.empty(n_links, dtype=np.float64)
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
            newly = self._live_scan(candidates, unfixed, residual, tol, scan_rank)
            rates[newly] = bottleneck
            # per-link subtraction multiplicity: how many times the
            # oracle's per-flow loop hits each link this round
            mult: IntArray = np.bincount(cols[newly[rows]], minlength=n_links)
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

    def _scan_rank(self, unfixed: BoolArray) -> IntArray:
        """Per-column scan position: first touch over the active flows.

        The oracle's saturation scan walks ``link_members`` in dict
        insertion order — the order links are first seen while
        enumerating the (active) routes.  Restricting to the active
        flows matters: the oracle is invoked on the sub-list, so its
        insertion order is the sub-list's.
        """
        vals = self.flow_cols[unfixed[self.flow_rows]]
        uniq, first = np.unique(vals, return_index=True)
        rank = np.full(self.n_links, _NEVER, dtype=np.int64)
        rank[uniq] = first
        return rank

    def _live_scan(
        self,
        candidates: BoolArray,
        unfixed: BoolArray,
        residual: FloatArray,
        tol: float,
        scan_rank: IntArray,
    ) -> BoolArray:
        """The oracle's sequential saturation scan over the candidates.

        Counts only shrink while the scan fixes flows, so shares only
        grow: links outside the round-start candidate set can never
        saturate mid-round, and the scan needs to replay *only* the
        candidates (usually a handful), in first-touch order, testing
        the live count exactly as the oracle does.
        """
        before = unfixed.copy()
        cand_cols = np.nonzero(candidates)[0]
        if len(cand_cols) > 1:
            cand_cols = cand_cols[np.argsort(scan_rank[cand_cols], kind="stable")]
        ptr, link_rows = self.link_ptr, self.link_rows
        for col in cand_cols.tolist():
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

