"""Every experiment's report at its default config, byte for byte.

``report_digests.json`` holds, for each experiment at its default params
(the stochastic ones at seeds 0-3), the sha256 of report.json with its
timestamp value blanked, the sha256 of data.csv and the exit code of
``seqot run``, next to the numpy, scipy and BLAS builds that wrote them.  A
change that moves a report regenerates the table and declares each moved
entry:

    PYTHONPATH=src python tests/test_report_digests.py

One more entry runs ``gibbs_cauchy`` through its Sinkhorn branch (the
weak-coupling, 600-point config), whose maps read the row barycenters.
"""

import hashlib
import json
import re
import sys
from pathlib import Path

import numpy as np
import scipy

from seqot.cli import EXPERIMENTS, main

TABLE = Path(__file__).with_name("report_digests.json")
SEEDS = range(4)
# gibbs_cauchy past LP_THRESHOLD map points: its maps come from Sinkhorn plans
SINKHORN_PARAMS = {"coupling": 0.1, "n": 2, "m_list": [1], "ot_points": 600,
                   "samples": 1800, "replicates": 3}


def configs():
    """(key, config) for every entry, in table order."""
    for name in sorted(EXPERIMENTS):
        if EXPERIMENTS[name].stochastic:
            for seed in SEEDS:
                yield f"{name}@{seed}", {"experiment": name, "seed": seed}
        else:
            yield name, {"experiment": name}
    yield "gibbs_cauchy_sinkhorn@1", {"experiment": "gibbs_cauchy", "seed": 1,
                                      "params": SINKHORN_PARAMS}


def digest_run(config: dict, workdir: Path) -> dict:
    """Run one config through ``seqot run`` in process and digest its output."""
    out = workdir / "out"
    path = workdir / "config.json"
    path.write_text(json.dumps({**config, "output_dir": str(out)}))
    code = main(["run", str(path)])
    report = re.sub(rb'"timestamp": "[^"]*"', b'"timestamp": ""',
                    (out / "report.json").read_bytes())
    return {"report_sha256": hashlib.sha256(report).hexdigest(),
            "data_sha256": hashlib.sha256((out / "data.csv").read_bytes()).hexdigest(),
            "exit_code": code}


def builds() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}"}


def test_default_reports_match_the_table(tmp_path):
    table = json.loads(TABLE.read_text())
    entries = table["entries"]
    assert list(entries) == [key for key, _ in configs()]
    # the default gibbs_cauchy fails its 3-SE assertion by chance at seed 0
    assert [key for key, e in entries.items() if e["exit_code"]] == ["gibbs_cauchy@0"]
    moved = []
    for key, config in configs():
        workdir = tmp_path / key
        workdir.mkdir()
        if digest_run(config, workdir) != entries[key]:
            moved.append(key)
    assert moved == [], f"reports moved (table written with {table['builds']}, " \
                        f"run with {builds()})"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        entries = {}
        for key, config in configs():
            (Path(scratch) / key).mkdir()
            entries[key] = digest_run(config, Path(scratch) / key)
    TABLE.write_text(json.dumps({"builds": builds(), "entries": entries}, indent=2) + "\n")
    print(f"{len(entries)} entries written to {TABLE}")
