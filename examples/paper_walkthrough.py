#!/usr/bin/env python3
"""Walk through the paper's worked examples (Figures 1, 2, 4 and 5) with this library.

Each section prints the quantities the paper discusses -- best-path first-hop sets, the
selected ANS, the loop of Figure 4 with and without the identifier guard -- so the output can
be read side by side with the paper.

Run with:  python examples/paper_walkthrough.py
"""

from __future__ import annotations

from repro import BandwidthMetric, FnbpSelector, LocalView, covering_relays
from repro.core import LoopGuardPolicy
from repro.localview import enumerate_best_paths, first_hops_to
from repro.papergraphs import (
    FIGURE2_OWNER,
    figure1_network,
    figure2_network,
    figure4_network,
    figure5_selections,
)
from repro.papergraphs.figure1 import V1, V3, best_two_hop_bandwidth
from repro.papergraphs.figure4 import A, B, D, E
from repro.routing import HopByHopRouter, advertise, optimal_route

BANDWIDTH = BandwidthMetric()


def section(title: str) -> None:
    print("\n" + "=" * 72)
    print(title)
    print("=" * 72)


def figure1() -> None:
    section("Figure 1 -- QOLSR misses the widest path")
    network = figure1_network()
    optimum = optimal_route(network, V1, V3, BANDWIDTH)
    print(f"Widest v1 -> v3 path: {' -> '.join(f'v{n}' for n in optimum.path)} "
          f"(bandwidth {optimum.value:g})")
    print(f"Best path of at most two hops (what QOLSR's heuristic considers): "
          f"bandwidth {best_two_hop_bandwidth(network, V1, V3):g}")
    fnbp_router = HopByHopRouter(network, advertise(network, FnbpSelector(), BANDWIDTH), BANDWIDTH)
    outcome = fnbp_router.link_state_route(V1, V3)
    print(f"Routing over the FNBP advertisements: bandwidth {outcome.value:g} "
          f"via {' -> '.join(f'v{n}' for n in outcome.path)}")


def figure2() -> None:
    section("Figure 2 -- FNBP's running example around node u")
    network = figure2_network()
    view = LocalView.from_network(network, FIGURE2_OWNER)
    fp_v3 = first_hops_to(view, 3, BANDWIDTH)
    print(f"fP_BW(u, v3) = {{{', '.join(f'v{n}' for n in sorted(fp_v3.first_hops))}}} "
          f"with B~W(u, v3) = {fp_v3.best_value:g}")
    print("Optimal paths to v3 inside G_u:",
          [" -> ".join("u" if n == FIGURE2_OWNER else f"v{n}" for n in path)
           for path in enumerate_best_paths(view.links, FIGURE2_OWNER, 3, BANDWIDTH)])
    fp_v4 = first_hops_to(view, 4, BANDWIDTH)
    print(f"Reaching v4: direct bandwidth {view.direct_link_value(4, BANDWIDTH):g}, "
          f"best path value {fp_v4.best_value:g} starting at v{min(fp_v4.first_hops)}")
    fp_v9 = first_hops_to(view, 9, BANDWIDTH)
    global_v9 = optimal_route(network, FIGURE2_OWNER, 9, BANDWIDTH)
    print(f"Reaching v9: u's best localized value {fp_v9.best_value:g} "
          f"(u cannot see the link v8-v9), global optimum {global_v9.value:g}")
    selection = FnbpSelector().explain(view, BANDWIDTH)
    print(f"Final ANS(u) = {{{', '.join(f'v{n}' for n in sorted(selection.selected))}}}")
    print(selection.explain())


def figure4() -> None:
    section("Figure 4 -- the limiting last link and the identifier guard")
    network = figure4_network()
    names = {A: "A", B: "B", D: "D", E: "E"}
    for policy in (LoopGuardPolicy.OFF, LoopGuardPolicy.ADJACENT_TO_TARGET):
        selector = FnbpSelector(loop_guard=policy)
        relays_a = covering_relays(selector.explain(LocalView.from_network(network, A), BANDWIDTH))
        relays_b = covering_relays(selector.explain(LocalView.from_network(network, B), BANDWIDTH))
        print(f"loop_guard={policy.value}: "
              f"A covers E through {names.get(relays_a[E], relays_a[E])}, "
              f"B covers E through {names.get(relays_b[E], relays_b[E])}")
    print("Without the guard A and B defer to each other and D is advertised by nobody; "
          "with the guard A (the smallest identifier) selects D, restoring E's reachability.")


def figure5() -> None:
    section("Figure 5 -- the three subset selections side by side")
    for name, result in figure5_selections().items():
        print(f"{name:>20}: {sorted(result.selected)} ({len(result.selected)} neighbors)")


def main() -> None:
    figure1()
    figure2()
    figure4()
    figure5()


if __name__ == "__main__":
    main()
