"""Cold set-up of a workload: import + resolve_catalog + expand + init_shock_tube.

Run as its own process so that the import and the package's caches start
cold.  Prints the seconds taken:

    python3 bench/setup_probe.py SRC_DIR SETUP_JSON
"""
from __future__ import annotations

import json
import sys
import time


def set_up(spec: dict) -> None:
    """Resolve the models, expand the equilibria and initialise the tubes
    that `spec` names (the "setup" entry of a workload config)."""
    from thermolb import ExpansionSpec, ShockTubeConfig, expand, init_shock_tube, resolve_catalog

    def parse(label: str) -> ExpansionSpec:
        kind, order = label.split(":")
        return ExpansionSpec(kind, int(order))

    models = {name: resolve_catalog(name) for name in spec["models"]}
    for label in spec["expansions"]:
        expand(parse(label))
    for tube in spec["tubes"]:
        init_shock_tube(ShockTubeConfig(
            model=models[tube["model"]], expansion=parse(tube["expansion"]),
            rho_bar=tube["rho_bar"], nodes=tube["nodes"],
            interface=tube["interface"], high_side=tube["high_side"]))


if __name__ == "__main__":
    start = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    set_up(json.loads(sys.argv[2]))
    print(repr(time.perf_counter() - start))
