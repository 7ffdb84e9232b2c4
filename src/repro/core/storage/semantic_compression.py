"""Model-based ("true") semantic compression.

§4.1: "If we use the user-supplied model as a compression model, we can
expect high compression rates ... A straightforward compression method would
be to store only the differences between the predicted and observed values.
Using the model and trained parameters, we can then recompute the original
dataset without loss of information."

:class:`ModelCompressor` implements exactly that scheme for a table with a
captured (possibly grouped) model:

* the model's parameter table is stored once (the paper's Table 1),
* the non-modelled columns (group keys and inputs) are kept as-is — they are
  needed to re-evaluate the model,
* the modelled output column is replaced by residuals, which are optionally
  quantised to a caller-chosen absolute tolerance (lossless when the
  tolerance is zero — residuals stored at full precision).

The compression *ratio the paper reports* (parameters ≈ 5% of the data) is
the **lossy** variant where residuals are dropped entirely and answers come
from the model; :meth:`CompressedTable.stats` reports both.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.captured_model import CapturedModel
from repro.db.column import Column
from repro.db.schema import ColumnDef, Schema
from repro.db.table import Table
from repro.db.types import DataType
from repro.errors import CompressionError

__all__ = ["CompressionStats", "CompressedTable", "ModelCompressor"]


@dataclass(frozen=True)
class CompressionStats:
    """Byte accounting for one compressed table."""

    raw_bytes: int
    parameter_bytes: int
    residual_bytes: int
    carried_column_bytes: int
    quantisation_step: float

    @property
    def lossless_bytes(self) -> int:
        """Total bytes for exact reconstruction (parameters + residuals + carried columns)."""
        return self.parameter_bytes + self.residual_bytes + self.carried_column_bytes

    @property
    def model_only_bytes(self) -> int:
        """Bytes if only the model parameters are kept (the paper's 5% figure)."""
        return self.parameter_bytes

    @property
    def lossless_ratio(self) -> float:
        return self.lossless_bytes / self.raw_bytes if self.raw_bytes else 0.0

    @property
    def model_only_ratio(self) -> float:
        return self.model_only_bytes / self.raw_bytes if self.raw_bytes else 0.0

    def summary(self) -> str:
        return (
            f"raw={self.raw_bytes}B, lossless={self.lossless_bytes}B "
            f"({self.lossless_ratio:.1%}), model-only={self.model_only_bytes}B "
            f"({self.model_only_ratio:.2%})"
        )


@dataclass
class CompressedTable:
    """A table stored as (carried columns, residuals, model parameters)."""

    name: str
    model: CapturedModel
    #: The original table minus the modelled output column.
    carried: Table
    #: Quantised residuals for the modelled output (int64 steps), or raw floats.
    residual_steps: np.ndarray
    quantisation_step: float
    #: Validity of the output column (NULLs survive compression).
    output_validity: np.ndarray
    original_schema: Schema
    stats: CompressionStats = field(init=False)

    def __post_init__(self) -> None:
        raw_bytes = self.original_schema.row_byte_width() * self.carried.num_rows
        if self.quantisation_step > 0:
            # Quantised residual steps are small integers; account them at the
            # byte width a simple varint/bit-packing scheme would achieve.
            max_step = int(np.max(np.abs(self.residual_steps))) if len(self.residual_steps) else 0
            bits = max(1, int(np.ceil(np.log2(max_step + 1))) + 1)
            residual_bytes = (bits * len(self.residual_steps) + 7) // 8
        else:
            residual_bytes = len(self.residual_steps) * 8
        self.stats = CompressionStats(
            raw_bytes=raw_bytes,
            parameter_bytes=self.model.stored_byte_size(),
            residual_bytes=residual_bytes,
            carried_column_bytes=self.carried.byte_size(),
            quantisation_step=self.quantisation_step,
        )

    # -- reconstruction ----------------------------------------------------------

    def decompress(self) -> Table:
        """Rebuild the original table (exactly, when quantisation_step == 0)."""
        predictions = self._predictions()
        if self.quantisation_step > 0:
            residuals = self.residual_steps.astype(np.float64) * self.quantisation_step
        else:
            residuals = self.residual_steps.astype(np.float64)
        values = predictions + residuals
        output_column = Column(DataType.FLOAT64, values, self.output_validity.copy())

        columns = self.carried.columns()
        columns[self.model.output_column] = output_column
        return Table(self.name, self.original_schema, columns)

    def reconstruct_lossy(self) -> Table:
        """Rebuild the table from the model alone (residuals discarded)."""
        predictions = self._predictions()
        output_column = Column(DataType.FLOAT64, predictions, self.output_validity.copy())
        columns = self.carried.columns()
        columns[self.model.output_column] = output_column
        return Table(self.name, self.original_schema, columns)

    def _predictions(self) -> np.ndarray:
        model = self.model
        inputs = {
            name: self.carried.column(name).to_numpy().astype(np.float64) for name in model.input_columns
        }
        if not model.is_grouped:
            return np.asarray(model.fit.predict(inputs), dtype=np.float64)
        # Groups the model could not fit keep their residuals relative to a
        # zero prediction, so reconstruction is still exact.
        return model.fit.predict_rows(  # type: ignore[union-attr]
            inputs, [self.carried.column(name) for name in model.group_columns], fill=0.0
        )


class ModelCompressor:
    """Compresses and reconstructs tables using a captured model."""

    def __init__(self, quantisation_step: float = 0.0) -> None:
        if quantisation_step < 0:
            raise CompressionError("quantisation_step must be >= 0")
        self.quantisation_step = quantisation_step

    def compress(self, table: Table, model: CapturedModel) -> CompressedTable:
        """Compress ``table`` by replacing the modelled column with residuals."""
        if model.table_name != table.name:
            raise CompressionError(
                f"model {model.model_id} was captured for table {model.table_name!r}, not {table.name!r}"
            )
        if model.output_column not in table.schema:
            raise CompressionError(
                f"table {table.name!r} has no column {model.output_column!r} to compress"
            )
        for column in (*model.group_columns, *model.input_columns):
            if column not in table.schema:
                raise CompressionError(f"table {table.name!r} is missing model column {column!r}")

        carried_names = [name for name in table.schema.names if name != model.output_column]
        carried = table.select(carried_names)

        output = table.column(model.output_column)
        observed = output.to_numpy().astype(np.float64)
        validity = output.validity.copy()

        compressed = CompressedTable(
            name=table.name,
            model=model,
            carried=carried,
            residual_steps=np.zeros(len(observed)),
            quantisation_step=self.quantisation_step,
            output_validity=validity,
            original_schema=table.schema,
        )
        predictions = compressed._predictions()
        residuals = np.where(validity, observed - predictions, 0.0)
        if self.quantisation_step > 0:
            steps = np.round(residuals / self.quantisation_step).astype(np.int64)
        else:
            steps = residuals
        compressed.residual_steps = steps
        compressed.__post_init__()  # refresh stats with the real residuals
        return compressed

    def verify_roundtrip(self, table: Table, compressed: CompressedTable, tolerance: float | None = None) -> bool:
        """Check that decompression reproduces the original output column.

        Exact (bit-for-bit up to float noise) when the step is 0; within
        ``quantisation_step / 2`` otherwise.
        """
        if tolerance is None:
            tolerance = (self.quantisation_step / 2.0) + 1e-9
        original = table.column(compressed.model.output_column).to_numpy().astype(np.float64)
        rebuilt_table = compressed.decompress()
        rebuilt = rebuilt_table.column(compressed.model.output_column).to_numpy().astype(np.float64)
        validity = compressed.output_validity
        return bool(np.all(np.abs(original[validity] - rebuilt[validity]) <= tolerance))
