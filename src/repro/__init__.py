"""repro — reproduction of DQuaG (EDBT 2025).

Automated data-quality validation and repair for tabular data with an
end-to-end GNN framework: a GAT+GIN encoder over a feature graph and a
dual decoder (validation + repair) trained with multi-task learning.

Public entry points::

    from repro import DQuaG, DQuaGConfig
    from repro.datasets import load_dataset
    from repro.errors import MissingValueInjector, NumericAnomalyInjector

The heavy subpackages are imported lazily through their own namespaces
(``repro.core``, ``repro.datasets``, ...); this root module re-exports
the high-level facade once those modules exist.
"""

from __future__ import annotations

__version__ = "1.1.0"

__all__ = ["__version__"]


def __getattr__(name: str):
    # Lazy re-exports so that `import repro` stays cheap and the nn
    # substrate can be used standalone.
    if name in {"DQuaG", "DQuaGConfig"}:
        from repro.core import DQuaG, DQuaGConfig

        return {"DQuaG": DQuaG, "DQuaGConfig": DQuaGConfig}[name]
    if name in {"InferenceEngine", "StreamingValidator", "ValidationService"}:
        import repro.runtime as runtime

        return getattr(runtime, name)
    if name in {"SCHEMA_VERSION", "ValidateRequest", "RepairRequest"}:
        import repro.api as api

        return getattr(api, name)
    if name == "Client":
        from repro.serve import Client

        return Client
    if name in {"DriftMonitor", "MonitorSnapshot", "DriftAlert", "MonitorBaseline"}:
        import repro.monitor as monitor

        return getattr(monitor, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
