"""Compiled pure-NumPy inference engine for fitted DQuaG models.

Training needs the autograd graph; serving does not. Every ``validate()``
on the seed implementation still ran through :class:`~repro.nn.tensor.Tensor`,
allocating per-op graph nodes it immediately threw away. The
:class:`InferenceEngine` instead *compiles* a fitted model once — each
GNN layer exports its weights into a closure over raw ``np.ndarray`` ops
(see ``export_kernel()`` on the layers in :mod:`repro.gnn`) — and is the
one carrier of a fitted pipeline's calibration context (preprocessor,
threshold calibration, dataset rule, feature scales and thresholds):
:meth:`InferenceEngine.assemble` is the only caller of
:func:`~repro.core.validator.assemble_report`, and
:class:`~repro.runtime.streaming.StreamingValidator` drives every
validate path through it. It runs Phase 2 with:

* zero ``Tensor`` bookkeeping (plain arrays end to end),
* one shared encoder pass feeding both decoders (``forward``),
* thread-local :class:`~repro.nn.kernels.Workspace` scratch — a few
  blocks per thread, faulted in once and handed out again as soon as no
  live array references them, so a thread holds only what one chunk
  needs at once and a single engine can serve concurrent requests,
* constant folding: the per-feature identity embeddings are baked into
  the decoder's first affine layer — and, where the first encoder layer
  allows it (GCN, GAT, graph2vec — every paper architecture), into the
  encoder's first affine too, so the ``(b, F, 1+e)`` node-input slab is
  never materialized. Architectures that cannot fold (SAGE) keep the
  slab path, whose constant embedding region is written once per chunk,
* reconstruction-error / repair-value computation fused into the kernel,
* cache-sized row chunks: by default a chunk holds
  ``CHUNK_BYTES // (8 · n_features · hidden)`` rows (see
  :func:`cache_sized_chunk`), so the widest ``(rows, F, hidden)``
  float64 activation a layer writes stays near 1 MiB and every workspace
  slab stays in a 2 MiB per-core L2 cache. Measured on the hotel table
  (12 features, hidden 64; validate + repair passes over 10k rows, one
  BLAS thread, 2-vCPU x86 host, best of 9), chunks of 64–170 rows were
  within 3% of the best, 256 rows 1.10x slower and the former fixed 512
  rows — 3 MiB slabs — 1.24x slower,
* row-parallel calls: an input of two or more chunks runs on ``width``
  threads, the caller plus an engine-owned pool. ``width`` is derived,
  not tuned: the CPUs the process may run on (:func:`usable_cpus`),
  capped per call at the chunk count, so one-chunk calls (small online
  requests) and 1-CPU processes keep the plain serial loop and start no
  thread. NumPy releases the GIL inside the kernels, so the threads run
  on separate cores, each in its own workspace. They claim chunks one at
  a time from a shared cursor instead of taking fixed shares, because a
  VM's cores do not run at a steady speed and a thread done with its
  share early would idle. Measured through ``ValidationService``
  (validate + repair of 10k-row hotel tables, one BLAS thread, 2-vCPU
  x86 host, 29 interleaved cycles per mode): validate medians 549 ms
  serial, 317 ms with fixed halves, 293 ms with claimed chunks; whole
  cycles 639, 377 and 341 ms.

Rows are independent through the model and every kernel is a per-row
batched op, so results are bit-identical at every chunk size and width
(``tests/test_runtime.py`` pins this). Numerics agree with the autograd
forward to floating-point roundoff (summation orders differ where
constant terms were folded); the parity suite pins engine-vs-autograd
agreement to 1e-10 across all encoder architectures.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from repro.core.model import DQuaGModel
from repro.core.thresholds import DatasetDecisionRule, ThresholdCalibration
from repro.core.validator import ValidationReport, assemble_report
from repro.data.preprocess import TablePreprocessor
from repro.exceptions import NotFittedError
from repro.nn.kernels import Workspace, buffer
from repro.nn.layers import MLP, NUMPY_ACTIVATIONS

__all__ = ["InferenceEngine"]

#: bytes of the widest per-chunk activation; about half a 2 MiB L2 cache,
#: leaving room for the layer's input slab and weights
CHUNK_BYTES = 1 << 20


def cache_sized_chunk(n_features: int, hidden: int) -> int:
    """Rows per engine chunk whose ``(rows, n_features, hidden)`` float64
    activation fits in :data:`CHUNK_BYTES` (at least one row)."""
    return max(1, CHUNK_BYTES // (8 * n_features * hidden))


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS
    reports one, else the machine's CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class InferenceEngine:
    """A fitted :class:`DQuaGModel` compiled to pure-NumPy kernels.

    Construction snapshots all weights (training the model afterwards
    does not affect the engine — recompile to pick up new weights).
    :class:`~repro.core.pipeline.DQuaG` attaches the calibration context
    (``preprocessor``, ``calibration``, ``feature_scales``,
    ``feature_thresholds``) once it has calibrated through the kernels;
    :meth:`assemble` and :meth:`validate_matrix` need it, while
    ``reconstruction_errors`` / ``repair_values`` serve without it.

    ``chunk_size`` defaults to :func:`cache_sized_chunk` of the model's
    shape and ``width`` — how many threads one call may run its chunks
    on — to :func:`usable_cpus`; results depend on neither.
    """

    def __init__(
        self,
        model: DQuaGModel,
        chunk_size: int | None = None,
        width: int | None = None,
    ) -> None:
        if chunk_size is None:
            chunk_size = cache_sized_chunk(model.n_features, model.config.hidden_dim)
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        self.chunk_size = chunk_size
        self.width = usable_cpus() if width is None else width
        if self.width < 1:
            raise ValueError(f"width must be positive, got {self.width}")
        self.n_features = model.n_features
        self.embed_dim = model.config.feature_embedding_dim
        self.architecture = model.config.architecture
        self._embeddings = model.feature_embeddings.data.copy()

        # -- compiled kernels (weight snapshots) -------------------------
        # Encoder-side constant folding: where the first layer exposes a
        # folded export (GCN/GAT/graph2vec — all paper architectures),
        # the identity embeddings are baked into its affine and the
        # (b, F, 1+e) node-input slab is never built; otherwise (SAGE)
        # the slab path below writes it on every chunk.
        self._encoder_folded = bool(
            self.embed_dim
            and getattr(model.encoder, "can_fold_embeddings", None) is not None
            and model.encoder.can_fold_embeddings(self._embeddings)
        )
        self._encoder = (
            model.encoder.export_kernel(model.ctx, fold_embeddings=self._embeddings)
            if self._encoder_folded
            else model.encoder.export_kernel(model.ctx)
        )
        self._validation_decoder = self._compile_decoder(model.validation_decoder)
        self._repair_decoder = self._compile_decoder(model.repair_decoder)

        # -- calibration context, attached by DQuaG ----------------------
        self.config = model.config
        self.rule = DatasetDecisionRule(
            percentile=self.config.threshold_percentile,
            n_multiplier=self.config.dataset_rule_n,
        )
        self.preprocessor: TablePreprocessor | None = None
        self.calibration: ThresholdCalibration | None = None
        self.feature_scales: np.ndarray | None = None
        self.feature_thresholds: np.ndarray | None = None

        # Workspaces are kept thread-local: one engine may serve
        # concurrent validations from a thread pool, and each fan-out
        # thread runs its chunks in its own.
        self._local = threading.local()
        # Fan-out helpers (width - 1 threads), started on the first
        # multi-chunk call.
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()

    # -- kernel compilation ------------------------------------------------
    def _compile_decoder(self, mlp: MLP):
        """Compile ``[Z ⊕ E] → MLP → (B, F)`` with the constant identity
        embeddings folded into the first affine layer.

        ``concat([Z, E]) @ W + b == Z @ W[:h] + (E @ W[h:] + b)`` — the
        parenthesized term is batch-independent and precomputed here, so
        serving never materializes the concatenated decoder input.
        """
        base = mlp.export_kernel()  # validates exportability; generic fallback
        if self.embed_dim == 0:
            return base
        layers = getattr(mlp, "_layers", None)
        activation_name = getattr(mlp, "_activation_name", None)
        splittable = (
            layers
            and activation_name in NUMPY_ACTIVATIONS
            and getattr(mlp, "_final_activation", None) is None
        )
        if not splittable:
            embeddings = self._embeddings

            def concat_kernel(z: np.ndarray, ws: Workspace | None = None) -> np.ndarray:
                identity = np.broadcast_to(embeddings, z.shape[:-1] + (embeddings.shape[1],))
                return base(np.concatenate([z, identity], axis=-1), ws)

            return concat_kernel

        first = layers[0]
        hidden = first.weight.data.shape[0] - self.embed_dim
        weight_top = first.weight.data[:hidden].copy()
        constant = self._embeddings @ first.weight.data[hidden:]
        if first.bias is not None:
            constant = constant + first.bias.data
        rest = [layer.export_kernel() for layer in layers[1:]]
        activation = NUMPY_ACTIVATIONS[activation_name]
        key = (id(mlp), "decoder")

        def kernel(z: np.ndarray, ws: Workspace | None = None) -> np.ndarray:
            out_shape = z.shape[:-1] + (weight_top.shape[1],)
            x = np.matmul(z, weight_top, out=buffer(ws, key, out_shape))
            x += constant
            for linear in rest:
                x = activation(x)  # in place on kernel-owned scratch
                x = linear(x, ws)
            return x

        return kernel

    # -- kernel plumbing --------------------------------------------------
    def _workspace(self) -> Workspace:
        ws = getattr(self._local, "workspace", None)
        if ws is None:
            ws = Workspace()
            self._local.workspace = ws
        return ws

    def _node_inputs(self, chunk: np.ndarray, ws: Workspace) -> np.ndarray:
        """(b, F) value chunk → (b, F, 1+e) node inputs, buffer-backed."""
        view = ws.get("node_inputs", (chunk.shape[0], self.n_features, 1 + self.embed_dim))
        view[:, :, 0] = chunk
        if self.embed_dim:
            # A recycled block holds whatever its last user wrote.
            view[:, :, 1:] = self._embeddings
        return view

    def _encode(self, chunk: np.ndarray, ws: Workspace) -> np.ndarray:
        """Run the compiled encoder on a (b, F) value chunk."""
        if self._encoder_folded:
            return self._encoder(chunk, ws)
        return self._encoder(self._node_inputs(chunk, ws), ws)

    def _check_matrix(self, matrix: np.ndarray) -> np.ndarray:
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] != self.n_features:
            raise ValueError(f"expected (batch, {self.n_features}) input, got {matrix.shape}")
        return matrix

    def _for_each_chunk(
        self, matrix: np.ndarray, run: Callable[[np.ndarray, slice, Workspace], None]
    ) -> None:
        """Call ``run(chunk, rows, ws)`` on every row chunk of ``matrix``.

        ``rows`` is the chunk's row slice and ``ws`` the running thread's
        workspace, so ``run`` may only write its own rows of the output.
        A single chunk (or ``width`` 1) runs on the calling thread. Wider
        inputs fan out: the caller and up to ``width - 1`` pool threads
        claim chunks from one cursor until none remain. Helpers still
        queued behind other callers' work are cancelled once the cursor
        runs dry, so a call never waits on them, and every exception
        reaches the caller.
        """
        size = self.chunk_size
        n_chunks = -(-matrix.shape[0] // size)
        width = min(self.width, n_chunks)
        if width < 2:
            ws = self._workspace()
            for start in range(0, matrix.shape[0], size):
                rows = slice(start, start + size)
                run(matrix[rows], rows, ws)
            return

        lock = threading.Lock()
        cursor = 0

        def claim() -> None:
            nonlocal cursor
            ws = self._workspace()
            try:
                while True:
                    with lock:
                        index, cursor = cursor, cursor + 1
                    if index >= n_chunks:
                        return
                    rows = slice(index * size, (index + 1) * size)
                    run(matrix[rows], rows, ws)
            except BaseException:
                with lock:
                    cursor = n_chunks  # nobody claims another chunk
                raise

        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.width - 1, thread_name_prefix="repro-engine"
                )
            pool = self._pool
        helpers = []
        try:
            for _ in range(width - 1):
                helpers.append(pool.submit(claim))
        except RuntimeError:
            pass  # interpreter shutdown: the caller claims what helpers would have
        try:
            claim()
        finally:
            started = [future for future in helpers if not future.cancel()]
            wait(started)
        for future in started:
            future.result()

    # -- inference --------------------------------------------------------
    def forward(self, matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(reconstruction, repair)`` of shape (B, F) each.

        One encoder pass feeds both decoders — the autograd model pays
        for that too, but here nothing else is computed or recorded.
        """
        matrix = self._check_matrix(matrix)
        reconstruction = np.empty_like(matrix)
        repair = np.empty_like(matrix)

        def run(chunk: np.ndarray, rows: slice, ws: Workspace) -> None:
            embeddings = self._encode(chunk, ws)
            reconstruction[rows] = np.squeeze(self._validation_decoder(embeddings, ws), axis=-1)
            repair[rows] = np.squeeze(self._repair_decoder(embeddings, ws), axis=-1)

        self._for_each_chunk(matrix, run)
        return reconstruction, repair

    def reconstruction_errors(self, matrix: np.ndarray) -> np.ndarray:
        """Per-cell squared reconstruction errors, shape (B, F).

        Drop-in replacement for
        :meth:`~repro.core.model.DQuaGModel.reconstruction_errors`, minus
        the graph bookkeeping and the wasted repair-decoder pass.
        """
        matrix = self._check_matrix(matrix)
        out = np.empty_like(matrix)

        def run(chunk: np.ndarray, rows: slice, ws: Workspace) -> None:
            recon = np.squeeze(self._validation_decoder(self._encode(chunk, ws), ws), axis=-1)
            # Fused error computation: (x̂ - x)² written straight into the
            # output slab, no intermediate full-size allocation.
            slab = out[rows]
            np.subtract(recon, chunk, out=slab)
            np.multiply(slab, slab, out=slab)

        self._for_each_chunk(matrix, run)
        return out

    def repair_values(self, matrix: np.ndarray) -> np.ndarray:
        """Repair-decoder proposals in model space, shape (B, F)."""
        matrix = self._check_matrix(matrix)
        out = np.empty_like(matrix)

        def run(chunk: np.ndarray, rows: slice, ws: Workspace) -> None:
            out[rows] = np.squeeze(self._repair_decoder(self._encode(chunk, ws), ws), axis=-1)

        self._for_each_chunk(matrix, run)
        return out

    # -- the §3.2.1 report ------------------------------------------------
    def assemble(self, cell_errors: np.ndarray) -> ValidationReport:
        """The full §3.2.1 report for raw per-cell errors."""
        if self.calibration is None:
            raise NotFittedError(
                "engine has no calibration context; use the engine of a fitted "
                "DQuaG pipeline (DQuaG.engine)"
            )
        return assemble_report(
            cell_errors,
            calibration=self.calibration,
            rule=self.rule,
            feature_sigma=self.config.feature_sigma,
            feature_scales=self.feature_scales,
            feature_thresholds=self.feature_thresholds,
            feature_names=list(self.preprocessor.schema.names) if self.preprocessor else None,
        )

    def validate_matrix(self, matrix: np.ndarray) -> ValidationReport:
        """Full §3.2.1 report for an already-preprocessed matrix."""
        return self.assemble(self.reconstruction_errors(matrix))

    def __repr__(self) -> str:
        context = "with context" if self.calibration is not None else "kernels only"
        return (
            f"InferenceEngine({self.architecture}, features={self.n_features}, "
            f"chunk={self.chunk_size}, width={self.width}, {context})"
        )
