"""Serving processes never load fit-only packages.

A gateway, router or fleet replica runs only Phase 2 (validate and
repair). ``scipy.stats`` (feature-graph inference, confidence-bounded
thresholds) and ``networkx`` (feature-graph interop) belong to the fit,
so ``repro`` imports them inside the functions that use them. A
module-scope import of either anywhere on the serving path would cost
every serving process about a second and some 80 MiB at start. The
experiment harness (``repro.experiments``) with its dataset simulators
(``repro.datasets``) and error injectors (``repro.errors``) is for
offline runs only; ``repro.api.protocol`` binds its ``ResultTable``
inside the ``result_table`` codec. No serving process imports
``multiprocessing`` either: fleet replicas are plain ``repro-serve``
subprocesses, so no gateway, router or replica starts a
``resource_tracker``. This test serves every endpoint from a fresh
interpreter and asserts that none of these was loaded — also with
networkx not installed at all.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.serve.cli import fit_demo_pipeline

#: Run in a fresh interpreter: argv[1] is the archive, argv[2] whether
#: networkx is blocked. Prints the loaded modules of the packages a
#: serving process must not load, as JSON.
_CHILD = """
import json
import sys

if sys.argv[2] == "blocked":
    sys.modules["networkx"] = None  # as if networkx were not installed

import repro.serve.cli  # the ``python -m repro.serve`` entry
import repro.serve.fleet
from repro.data import Table
from repro.runtime import ValidationService
from repro.serve import AsyncGateway, Client, RouterGateway

archive = sys.argv[1]
services, gateways = [], []
for _ in range(2):
    service = ValidationService(capacity=1)
    service.register("demo", archive)
    services.append(service)
    gateways.append(AsyncGateway(service, port=0).start())
router = RouterGateway(
    [(f"replica-{i}", "127.0.0.1", gateway.port) for i, gateway in enumerate(gateways)],
    port=0, health_interval=0,
).start()

schema = services[0].get("demo").preprocessor.schema
table = Table.from_records(schema, [repro.serve.cli.DEMO_RECORD] * 8)
client = Client(port=gateways[0].port)
client.validate("demo", table.to_records())
Client(port=gateways[0].port, wire="frame").validate("demo", table)
client.repair("demo", table.to_records())
summary = Client(port=router.port).validate_stream("demo", [table, table])
assert summary.n_chunks == 2 and router._counters["streams_scattered"] == 1
client.monitor("demo")
client.metrics()
Client(port=router.port).metrics()

router.close()
for gateway in gateways:
    gateway.close()
for service in services:
    service.close()
not_served = (
    "scipy", "networkx", "repro.experiments", "repro.datasets", "repro.errors",
    "multiprocessing",
)
print(json.dumps(sorted(
    name for name, module in sys.modules.items()
    if module is not None
    and any(name == package or name.startswith(package + ".") for package in not_served)
)))
"""


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    path = tmp_path_factory.mktemp("serving-imports") / "demo.npz"
    fit_demo_pipeline().save(path)
    return path


@pytest.mark.parametrize("networkx", ["installed", "blocked"])
def test_serving_process_never_imports_fit_only_packages(archive, networkx):
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _CHILD, str(archive), networkx],
        capture_output=True, text=True, env=env, timeout=180,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == []
