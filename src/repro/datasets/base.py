"""Dataset simulator framework.

Each generator synthesizes one of the paper's six public datasets
(the offline substitute for Kaggle/NYC-OpenData CSVs, see
README.md#offline-substitutes): same schema, realistic marginal
distributions, and — crucially — the inter-feature dependencies that
DQuaG is supposed to learn.

Two families mirror §4.1.1:

* *real-world-error* datasets (Airbnb, Bicycle, Play Store) implement
  :meth:`DatasetGenerator.generate_dirty`, producing an organic error
  mixture with ground truth;
* *clean-source* datasets (Taxi, Hotel, Credit) produce only clean data;
  experiments inject the §4.1.2 synthetic errors themselves.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from repro.data.table import Table
from repro.errors.base import InjectionReport
from repro.utils.rng import ensure_rng

__all__ = ["DatasetBundle", "DatasetGenerator"]


@dataclass
class DatasetBundle:
    """A generated dataset: clean table, optional dirty twin, ground truth."""

    name: str
    clean: Table
    dirty: Table | None = None
    dirty_report: InjectionReport | None = None
    knowledge_edges: list[tuple[str, str]] = field(default_factory=list)

    @property
    def has_dirty(self) -> bool:
        return self.dirty is not None


class DatasetGenerator(abc.ABC):
    """Base class for the six dataset simulators."""

    #: registry key, e.g. ``"airbnb"``
    name: str = ""
    #: rows generated when the caller does not override
    default_rows: int = 8000

    @abc.abstractmethod
    def schema(self):
        """The dataset's :class:`~repro.data.schema.TableSchema`."""

    @abc.abstractmethod
    def generate_clean(self, n_rows: int, rng: int | np.random.Generator | None = None) -> Table:
        """Synthesize a clean table of ``n_rows``."""

    def knowledge_edges(self) -> list[tuple[str, str]]:
        """Semantic feature relationships an expert/LLM would state.

        Used to seed :class:`~repro.graph.llm.KnowledgeBaseProvider`;
        default is empty (statistics-only graph construction).
        """
        return []

    def generate_dirty(
        self, clean: Table, rng: int | np.random.Generator | None = None
    ) -> tuple[Table, InjectionReport]:
        """Real-world error mixture over ``clean`` (where supported)."""
        raise NotImplementedError(f"{self.name} has no real-world dirty variant")

    @property
    def has_real_world_errors(self) -> bool:
        return type(self).generate_dirty is not DatasetGenerator.generate_dirty

    # -- convenience -----------------------------------------------------
    def load(self, n_rows: int | None = None, seed: int = 0, with_dirty: bool = False) -> DatasetBundle:
        """Generate a full bundle with derived, independent RNG streams."""
        n_rows = n_rows or self.default_rows
        generator = ensure_rng(seed)
        from repro.utils.rng import derive_rng  # local import avoids cycle at module load

        clean = self.generate_clean(n_rows, derive_rng(generator, self.name, "clean"))
        dirty = None
        report = None
        if with_dirty:
            if not self.has_real_world_errors:
                raise NotImplementedError(
                    f"{self.name} ships clean data only; inject synthetic errors instead (§4.1.2)"
                )
            dirty, report = self.generate_dirty(clean, derive_rng(generator, self.name, "dirty"))
        return DatasetBundle(
            name=self.name,
            clean=clean,
            dirty=dirty,
            dirty_report=report,
            knowledge_edges=self.knowledge_edges(),
        )
