"""Every CLI output's bytes, pinned: SHA-256 digests of a fixed run list against golden.json.

Each run calls ``cli.main`` in-process and hashes every file it writes, the
provenance ``version`` field included: it is the package version, the same
in every checkout and install.  A change that moves output bytes on purpose
regenerates the manifest with

    PYTHONPATH=src python tests/test_golden.py --regenerate

and lists every moved file, and why, in CHANGES.md.  The manifest also
records the numpy version and the platform it was made on, so a mismatch
can tell a library's drift from the program's.
"""

import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np

from dealerlab.cli import main

MANIFEST = Path(__file__).with_name("golden.json")

# the benchmark's segmented `equilibrium` market (one dealer, one client without access)
SEGMENTED_INI = """\
[market]
T = 1.0
impact_cost = 1e-6
steps = 200000

[noise]
process = zero

[agent dealer]
mass = 0.5
risk_tolerance = 0.1
open_cost = 0

[agent client]
mass = 0.5
risk_tolerance = 0.1
open_cost = inf
target = constant:-1
"""

# OU noise demand, and a client whose target is smooth with a Brownian rate
OU_SMOOTH_INI = """\
[market]
T = 1.0
impact_cost = 0.05
steps = 800

[noise]
process = ou:0.2,1.5,-0.1,0.6

[agent dealer]
mass = 0.5
risk_tolerance = 0.1
open_cost = 0

[agent client]
mass = 0.5
risk_tolerance = 0.2
open_cost = inf
target = smooth:brownian:-1,0.8
"""

# at the default --workers 1, and again at 3: the worker count sets the chunking only
SCALING_DIFFUSIVE = ("scaling-diffusive", "--paths", "300", "--lambda", "1e-2,1e-3",
                     "--seed", "5")

# (run name, argv without --out, INI files the run reads)
RUNS = (
    ("liquidation", ("liquidation",), {}),
    ("diffusive", ("diffusive",), {}),
    ("welfare", ("welfare",), {}),
    ("scaling-smooth", ("scaling-smooth",), {}),
    ("scaling-diffusive", SCALING_DIFFUSIVE, {}),
    ("oracle-check", ("oracle-check",), {}),
    ("equilibrium-segmented",
     ("equilibrium", "--config", "segmented.ini", "--steps", "5000"),
     {"segmented.ini": SEGMENTED_INI}),
    ("equilibrium-ou-smooth",
     ("equilibrium", "--config", "ou_smooth.ini", "--seed", "13"),
     {"ou_smooth.ini": OU_SMOOTH_INI}),
    ("scaling-diffusive-workers-3", SCALING_DIFFUSIVE + ("--workers", "3"), {}),
)


def _versions() -> dict:
    return {"numpy": np.__version__, "python": platform.python_version(),
            "platform": platform.platform()}


def output_digests(root: Path) -> dict:
    """SHA-256 of every file each run writes, keyed ``run/file``."""
    digests = {}
    for name, argv, inputs in RUNS:
        for file_name, text in inputs.items():
            (root / file_name).write_text(text)
        argv = [root / a if a in inputs else a for a in argv]
        out = root / name
        assert main([str(a) for a in argv] + ["--out", str(out)]) == 0, name
        for path in sorted(out.iterdir()):
            digests[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def test_output_bytes_match_the_manifest(tmp_path):
    golden = json.loads(MANIFEST.read_text())
    digests = output_digests(tmp_path)
    moved = sorted(k for k in golden["digests"].keys() | digests.keys()
                   if golden["digests"].get(k) != digests.get(k))
    assert not moved, (
        f"{len(moved)} output file(s) moved: {', '.join(moved)}; "
        f"manifest made with {golden['versions']}, this run with {_versions()}"
    )
    for file_name in ("scaling_report.json", "scaling_report.csv"):
        assert (digests[f"scaling-diffusive/{file_name}"]
                == digests[f"scaling-diffusive-workers-3/{file_name}"])


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(f"usage: {sys.argv[0]} --regenerate  (rewrites {MANIFEST.name})")
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        manifest = {"versions": _versions(), "digests": output_digests(Path(tmp))}
    MANIFEST.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    print(f"wrote {len(manifest['digests'])} digests to {MANIFEST}")
