"""Golden corpus: one ``MetricsSummary`` digest per pinned scenario.

The corpus (``corpus.json`` beside this file) pins the simulator's
results: each entry is a full scenario config and the SHA-256 of the
summary it produces, with the non-result fields (``perf``, ``profile``,
``flight``) left out. ``test_golden.py`` re-runs every entry and
compares digests, so any change to a seeded result fails the suite.

The entries are the five paper protocols, each in six cells: the
50-node paper cell, a faulted cell, a short 1000-node static cell and
three fixed random topologies.

Run from the repository root::

    # compare every entry with the committed corpus
    PYTHONPATH=src python -m tests.golden.generate
    # rewrite corpus.json (only when a result is meant to change)
    PYTHONPATH=src python -m tests.golden.generate --write
    # also check every entry under each on/off combination of the
    # named environment variables (each combination in a fresh process)
    PYTHONPATH=src python -m tests.golden.generate --vary-env NAME [NAME ...]

The check exits 1 if any entry differs, naming the entry and the
environment it differed under.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple

from repro.faults.plan import FaultPlanConfig
from repro.scenario import ScenarioConfig, run_scenario
from repro.scenario.io import config_from_dict, config_to_dict
from repro.stats.metrics import MetricsSummary

CORPUS = Path(__file__).with_name("corpus.json")

PROTOCOLS = ("dsdv", "dsr", "aodv", "paodv", "cbrp")

#: Summary fields that are not results (engine counters, wall time,
#: recorder output); the dataclass already leaves them out of ``==``.
EXCLUDED = ("perf", "profile", "flight")

#: Cell name -> config fields on top of the defaults.
CELLS: Dict[str, dict] = {
    # The paper's base cell: 50 nodes, 1500 m x 300 m, random waypoint
    # at up to 20 m/s with pause 0, 20 CBR sources.
    "paper": dict(
        n_nodes=50, n_connections=20, pause_time=0.0,
        traffic_start_window=(0.0, 2.0), duration=10.0,
    ),
    # Node churn plus link loss: crashes tear radios out mid-frame.
    "faulted": dict(
        n_nodes=20, field_size=(800.0, 300.0), n_connections=5,
        traffic_start_window=(0.0, 2.0), duration=15.0,
        faults=FaultPlanConfig(churn_rate=0.04, mean_downtime=3.0, link_loss=0.08),
    ),
    # A large static field: fan-outs of tens of receivers per frame.
    "static1000": dict(
        n_nodes=1000, field_size=(4000.0, 4000.0), mobility="static",
        n_connections=6, traffic_start_window=(0.0, 0.2), duration=0.5,
    ),
}
#: Three fixed small random topologies: (node count, seed).
TOPOLOGIES: Tuple[Tuple[int, int], ...] = ((6, 101), (10, 2024), (14, 65537))


def entries() -> List[Tuple[str, ScenarioConfig]]:
    """Every corpus entry as ``(name, config)``, in corpus order."""
    out = []
    for protocol in PROTOCOLS:
        for cell, fields in CELLS.items():
            out.append((f"{cell}/{protocol}",
                        ScenarioConfig(protocol=protocol, seed=7, **fields)))
        for n_nodes, seed in TOPOLOGIES:
            out.append((
                f"topo{n_nodes}-{seed}/{protocol}",
                ScenarioConfig(
                    protocol=protocol, seed=seed, n_nodes=n_nodes,
                    field_size=(500.0, 300.0), duration=8.0,
                    n_connections=min(3, n_nodes - 1),
                    traffic_start_window=(0.0, 2.0),
                ),
            ))
    return out


def digest(summary: MetricsSummary) -> str:
    """SHA-256 of the summary's result fields as canonical JSON.

    Floats serialise through ``repr`` (shortest round-trip form), so
    the digest is exact: any changed bit of any metric or per-flow
    delay changes it.
    """
    data = dataclasses.asdict(summary)
    for key in EXCLUDED:
        del data[key]
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def load() -> List[dict]:
    """The committed corpus entries."""
    return json.loads(CORPUS.read_text())["entries"]


def compute(corpus: List[dict]) -> Dict[str, str]:
    """Run every corpus entry here; name -> digest."""
    return {e["name"]: digest(run_scenario(config_from_dict(e["config"])))
            for e in corpus}


def write() -> None:
    out = []
    for name, cfg in entries():
        summary = run_scenario(cfg)
        out.append({
            "name": name,
            "config": config_to_dict(cfg),
            "digest": digest(summary),
            "data_sent": summary.data_sent,
            "data_received": summary.data_received,
        })
        print(f"{name:24s} {out[-1]['digest'][:16]}  "
              f"{summary.data_received}/{summary.data_sent}", flush=True)
    CORPUS.write_text(json.dumps({"entries": out}, indent=1) + "\n")
    print(f"wrote {len(out)} entries to {CORPUS}")


def _env_combos(names: List[str]) -> List[Dict[str, str]]:
    """Every on/off assignment of *names* ("1" or unset)."""
    return [{n: "1" for n, on in zip(names, bits) if on}
            for bits in itertools.product((False, True), repeat=len(names))]


def check(vary: List[str]) -> int:
    corpus = load()
    expected = {e["name"]: e["digest"] for e in corpus}
    base = {k: v for k, v in os.environ.items() if k not in vary}
    bad = 0
    for combo in _env_combos(vary):
        label = " ".join(f"{k}=1" for k in combo) or "default settings"
        proc = subprocess.run(
            [sys.executable, "-m", "tests.golden.generate", "--emit"],
            env={**base, **combo}, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(f"[{label}] run failed:\n{proc.stderr}")
            return 1
        got = json.loads(proc.stdout)
        diff = sorted(n for n in expected if got.get(n) != expected[n])
        bad += len(diff)
        print(f"[{label}] {len(expected) - len(diff)}/{len(expected)} entries identical"
              + "".join(f"\n  differs: {n}" for n in diff), flush=True)
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--write", action="store_true",
                      help="regenerate corpus.json from the entries")
    mode.add_argument("--emit", action="store_true",
                      help="print this process's digests as JSON")
    ap.add_argument("--vary-env", nargs="+", default=[], metavar="NAME",
                    help="check under every on/off combination of these "
                         "environment variables")
    args = ap.parse_args(argv)
    if args.write:
        write()
        return 0
    if args.emit:
        json.dump(compute(load()), sys.stdout)
        return 0
    return check(args.vary_env)


if __name__ == "__main__":
    sys.exit(main())
