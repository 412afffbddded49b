"""Scalar reference solvers for max-min fair allocation.

The one home of the pure-Python progressive-filling oracles.  The
production solvers — ``FlowNetwork._solve_component`` (small
components), :class:`repro.sim.kernel.RouteIncidence` (large ones and
the analytic round model) — compute exactly these rates, ``float.hex``
for ``float.hex``; the property tests pin them here.

One semantics throughout: per saturation round, the minimum share
``residual / count`` is the bottleneck, and links are scanned in
first-touch order testing their *live* count — fixing the members of
an earlier saturated link shrinks a later link's count (its residual
is frozen until the round's subtractions), so a later tie candidate
can drop back out.
"""

from __future__ import annotations

import math


def maxmin_allocate(
    capacities: dict[int, float],
    routes: list[tuple[int, ...]],
) -> list[float]:
    """Progressive-filling max-min fair rates for ``routes``.

    ``capacities`` maps link id -> bytes/s; each route is the tuple of
    link ids one flow crosses (a link crossed twice counts twice).
    Returns one rate per route.  A flow with an empty route gets
    ``math.inf``.  ``FlowNetwork(mode="reference")`` runs this over
    every active flow on each membership change.
    """
    rates = [0.0] * len(routes)
    residual: dict[int, float] = {}
    link_members: dict[int, list[int]] = {}
    unfixed: set[int] = set()
    for idx, route in enumerate(routes):
        if not route:
            rates[idx] = math.inf
            continue
        unfixed.add(idx)
        for link_id in route:
            residual[link_id] = capacities[link_id]
            link_members.setdefault(link_id, []).append(idx)

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
            for link_id in routes[i]:
                residual[link_id] = max(0.0, residual[link_id] - bottleneck)
    return rates


def capped_maxmin(
    capacities: dict[int, float],
    routes: list[tuple[int, ...]],
    caps: list[float | None],
) -> list[float]:
    """Max-min rates where flow i may not exceed ``caps[i]``.

    Iterated fixing: allocate, clamp violators to their cap, charge
    their usage to the links, repeat on the rest — the standard way to
    fold per-flow rate limits into progressive filling.  The analytic
    b_eff round model (``RoundModel.phase_time``) prices phases with it.
    """
    n = len(routes)
    rates: list[float | None] = [None] * n
    residual = dict(capacities)
    active = list(range(n))
    while active:
        alloc = maxmin_allocate(residual, [routes[i] for i in active])
        violators = [
            (idx, i)
            for idx, i in enumerate(active)
            if caps[i] is not None and alloc[idx] > caps[i]
        ]
        if not violators:
            for idx, i in enumerate(active):
                rates[i] = alloc[idx]
            break
        for _idx, i in violators:
            rates[i] = caps[i]
            for link_id in routes[i]:
                residual[link_id] = max(1e-12, residual[link_id] - caps[i])
        fixed = {i for _idx, i in violators}
        active = [i for i in active if i not in fixed]
    return [r if r is not None else 0.0 for r in rates]
