"""Serving-layer tour: compiled engine, streaming, multi-pipeline service.

Phase 2 is the hot path of the paper's framework — this example shows
the three runtime pieces added on top of the training stack::

    python examples/runtime_serving.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.core import DQuaG, DQuaGConfig
from repro.datasets import get_generator
from repro.errors import NumericAnomalyInjector
from repro.runtime import ValidationService
from repro.utils.logging import configure_demo_logging
from repro.utils.timing import Timer


def fit_pipeline(dataset: str, rows: int = 3000) -> tuple[DQuaG, object]:
    generator = get_generator(dataset)
    clean = generator.generate_clean(rows, rng=0)
    train, holdout = clean.split(0.6, rng=1)
    config = DQuaGConfig(epochs=8, hidden_dim=32)
    pipeline = DQuaG(config).fit(train, rng=0, knowledge_edges=generator.knowledge_edges())
    return pipeline, holdout


def main() -> None:
    configure_demo_logging()

    # 1. Train two independent pipelines (two "tenants").
    hotel, hotel_holdout = fit_pipeline("hotel")
    taxi, taxi_holdout = fit_pipeline("taxi")

    # 2. The compiled engine is wired in automatically: validate() runs
    #    pure-NumPy kernels, no autograd graph.
    print(f"\nhotel serving engine: {hotel.engine!r}")
    with Timer() as timer:
        report = hotel.validate(hotel_holdout)
    print(f"one-shot validate: {report.summary()}  ({timer.elapsed * 1000:.0f} ms)")

    # 3. Streaming: bounded-memory validation in chunks. On a 1M-row
    #    table the dense error matrix never materializes.
    streaming = hotel.streaming_validator(chunk_size=256)
    summary = streaming.validate_table(hotel_holdout)
    print(f"streaming validate: {summary.summary()}")

    # 4. A ValidationService fronts many saved pipelines with an LRU
    #    cache; each call runs on the caller's thread. Archives are
    #    self-contained — loading needs no clean table.
    with tempfile.TemporaryDirectory() as tmp:
        hotel.save(Path(tmp) / "hotel.npz")
        taxi.save(Path(tmp) / "taxi.npz")

        dirty_hotel, _ = NumericAnomalyInjector(["adr"], fraction=0.3).inject(hotel_holdout, rng=2)
        with ValidationService(capacity=2) as service:
            service.register("hotel", Path(tmp) / "hotel.npz")
            service.register("taxi", Path(tmp) / "taxi.npz")
            reports = [
                service.validate(name, batch)
                for name, batch in [
                    ("hotel", hotel_holdout),
                    ("hotel", dirty_hotel),
                    ("taxi", taxi_holdout),
                ]
            ]
            print("\nservice verdicts:")
            for label, rep in zip(["hotel clean", "hotel dirty", "taxi clean"], reports):
                print(f"  {label:12s} → {rep.summary()}")
            print(f"service stats: {service.stats()}")


if __name__ == "__main__":
    main()
