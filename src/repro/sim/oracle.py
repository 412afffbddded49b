"""Scalar reference solver for max-min fair allocation.

The one home of the pure-Python progressive-filling oracle.  The
production solvers — ``FlowNetwork._solve_component`` (small
components), :class:`repro.sim.kernel.RouteIncidence` (large ones and
the analytic round model) — compute exactly these rates, ``float.hex``
for ``float.hex``; the property tests pin them here.

One semantics throughout: per saturation round, the minimum share
``residual / count`` is the bottleneck, and links are scanned in
first-touch order testing their *live* count — fixing the members of
an earlier saturated link shrinks a later link's count (its residual
is frozen until the round's subtractions), so a later tie candidate
can drop back out.  A per-flow rate cap is a pseudo-link whose only
member is that flow, placed right after the flow's route links: its
first-touch position, which decides how ties fall.  The DES, the
kernel and the analytic round model all treat a cap this way.
"""

from __future__ import annotations

import math
from collections.abc import Hashable


def maxmin_allocate(
    capacities: dict[int, float],
    routes: list[tuple[int, ...]],
    caps: list[float | None] | None = None,
) -> list[float]:
    """Progressive-filling max-min fair rates for ``routes``.

    ``capacities`` maps link id -> bytes/s; each route is the tuple of
    link ids one flow crosses (a link crossed twice counts twice).
    ``caps[i]``, when given and not ``None``, bounds flow ``i``'s rate
    as a pseudo-link of that capacity after its route (see the module
    docstring).  Returns one rate per route.  An uncapped flow with an
    empty route gets ``math.inf``.  ``FlowNetwork(mode="reference")``
    runs this over every active flow on each membership change.
    """
    rates = [0.0] * len(routes)
    residual: dict[Hashable, float] = {}
    link_members: dict[Hashable, list[int]] = {}
    unfixed: set[int] = set()
    key_routes: list[tuple[Hashable, ...]] = []
    for idx, route in enumerate(routes):
        key_route: tuple[Hashable, ...] = route
        for link_id in route:
            residual[link_id] = capacities[link_id]
            link_members.setdefault(link_id, []).append(idx)
        cap = caps[idx] if caps is not None else None
        if cap is not None:
            pseudo = ("cap", idx)
            residual[pseudo] = cap
            link_members[pseudo] = [idx]
            key_route = (*route, pseudo)
        key_routes.append(key_route)
        if key_route:
            unfixed.add(idx)
        else:
            rates[idx] = math.inf

    while unfixed:
        bottleneck = math.inf
        for link_id, members in link_members.items():
            count = sum(1 for i in members if i in unfixed)
            if count == 0:
                continue
            share = residual[link_id] / count
            if share < bottleneck:
                bottleneck = share
        if math.isinf(bottleneck):  # pragma: no cover - defensive
            for i in sorted(unfixed):
                rates[i] = math.inf
            break
        tol = bottleneck * (1.0 + 1e-12)
        newly_fixed: list[int] = []
        for link_id, members in link_members.items():
            count = sum(1 for i in members if i in unfixed)
            if count == 0:
                continue
            if residual[link_id] / count <= tol:
                for i in members:
                    if i in unfixed:
                        newly_fixed.append(i)
                        unfixed.discard(i)
        for i in newly_fixed:
            rates[i] = bottleneck
            for link_id in key_routes[i]:
                residual[link_id] = max(0.0, residual[link_id] - bottleneck)
    return rates
