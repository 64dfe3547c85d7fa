"""The benchmark's workloads: seed -> list of scenario configs.

Each workload is a list of grid points. A point is a plain
``ScenarioConfig`` plus the labels written beside it in the CSV. Every
point gets its own scenario seed, drawn from ``--seed``: points that
share one seed share one traffic pattern, and the total work of such a
grid swings with that single draw (measured at seed state: the F1
quick grid on one shared seed varied 38% IQR/median in event count
across 20 seeds).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

#: The five contenders of the paper, in the order a rep runs them.
PROTOCOLS = ("dsdv", "dsr", "aodv", "paodv", "cbrp")


@dataclass(frozen=True)
class Workload:
    #: Sweep executor worker count (1 runs inline in the benchmark process).
    processes: int
    #: Run one flight-recorder check on a point of this workload.
    flight_check: bool
    #: Fresh measuring processes per timed run; each runs at least one rep.
    children: int


WORKLOADS = {
    "paper_cell": Workload(processes=1, flight_check=True, children=3),
    "saturated_cell": Workload(processes=1, flight_check=True, children=3),
    # One cold sweep takes 8-15 s, so two processes fill a 30 s run.
    "f1_sweep": Workload(processes=2, flight_check=False, children=2),
}

#: Sub-scenarios per protocol in one ``paper_cell`` / ``saturated_cell`` rep.
_PAPER_DRAWS = 3
_SATURATED_DRAWS = 2
#: Replications of each (protocol, pause) cell of the F1 grid.
_F1_REPLICATIONS = 3


def _seeds(workload: str, seed: int, n: int) -> List[int]:
    """*n* scenario seeds drawn from the benchmark seed (str-seeded, so
    independent of hash randomisation)."""
    rng = random.Random(f"{workload}:{seed}")
    return [rng.randrange(1, 2**31) for _ in range(n)]


def points(workload: str, seed: int) -> List[Tuple[dict, "ScenarioConfig"]]:
    """The workload's grid for *seed*: ``[(labels, config), ...]``."""
    from repro.analysis.experiments import QUICK, base_config
    from repro.scenario import ScenarioConfig

    out = []
    if workload == "paper_cell":
        seeds = iter(_seeds(workload, seed, len(PROTOCOLS) * _PAPER_DRAWS))
        for proto in PROTOCOLS:
            for _ in range(_PAPER_DRAWS):
                s = next(seeds)
                cfg = ScenarioConfig(
                    protocol=proto,
                    seed=s,
                    n_nodes=50,
                    field_size=(1500.0, 300.0),
                    mobility="waypoint",
                    min_speed=0.0,
                    max_speed=20.0,
                    pause_time=0.0,
                    n_connections=20,
                    rate=4.0,
                    packet_size=64,
                    traffic_start_window=(0.0, 0.5),
                    duration=3.0,
                    propagation="tworay",
                    mac="dcf",
                    use_rtscts=True,
                )
                out.append(({"protocol": proto, "pause_time": 0.0, "scenario_seed": s}, cfg))
    elif workload == "saturated_cell":
        for s in _seeds(workload, seed, _SATURATED_DRAWS):
            cfg = ScenarioConfig(
                protocol="aodv",
                seed=s,
                n_nodes=20,
                field_size=(200.0, 200.0),
                mobility="static",
                n_connections=20,
                rate=80.0,
                packet_size=256,
                traffic_start_window=(0.0, 0.5),
                duration=2.5,
            )
            out.append(({"protocol": "aodv", "pause_time": 0.0, "scenario_seed": s}, cfg))
    elif workload == "f1_sweep":
        n = len(PROTOCOLS) * len(QUICK.pause_values) * _F1_REPLICATIONS
        seeds = iter(_seeds(workload, seed, n))
        for proto in PROTOCOLS:
            for pause in QUICK.pause_values:
                for _ in range(_F1_REPLICATIONS):
                    s = next(seeds)
                    cfg = base_config(QUICK, protocol=proto, pause_time=pause, seed=s)
                    out.append(({"protocol": proto, "pause_time": pause, "scenario_seed": s}, cfg))
    else:
        raise KeyError(workload)
    return out
