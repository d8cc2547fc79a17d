"""Correspondence Analysis of a contingency table.

Writing N for the grand total, f_ij = n_ij / N, and f_i, f_j for the
row and column masses (marginals), the analysis decomposes the
standardized departure from independence

    s_ij = (f_ij - f_i f_j) / sqrt(f_i f_j)

by singular value decomposition. Squared singular values are the axis
eigenvalues; their sum is the total inertia, which equals the table's
chi-squared statistic divided by N. Row and column factor coordinates
are principal coordinates on both sides (symmetric map):

    psi_ik = u_ik sigma_k / sqrt(f_i)      phi_jk = v_jk sigma_k / sqrt(f_j)

so the transition formulas hold exactly: sqrt(lambda_k) psi_ik equals
the f_ij/f_i - weighted average of the phi_jk, and dually. Supplementary
rows or columns are projected post hoc through those formulas using
their own conditional profile.

The SVD is LAPACK's, through ``numpy.linalg.svd`` on the thin
(economy) factorization. Axes whose eigenvalue falls below 1e-12 are
dropped. Per-axis signs are canonicalized by flipping so the row
coordinate of largest magnitude is negative; magnitudes within a
relative 1e-9 of the largest count as tied, and ties go to the
alphabetically first row label.

The CSV writers render every number with ``%.12g`` (12 significant
digits) and format each row with one ``%`` string built once per file,
so a row costs one C call however many axes it has; labels are quoted
exactly as ``csv.writer`` quotes them (:func:`corpus.csv_field`).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import ContingencyTable, csv_field
from .errors import DataError

EIGENVALUE_TOL = 1e-12
SIGN_TIE_RTOL = 1e-9


class SupplementaryError(DataError):
    """A supplementary row or column that cannot be projected: misshapen,
    negative, not finite or all zero."""


@dataclass(frozen=True)
class CaResult:
    """Fitted factors: eigenvalues descending, principal coordinates for
    rows (psi) and columns (phi), masses, and the total inertia."""

    row_labels: tuple[str, ...]
    col_labels: tuple
    eigenvalues: np.ndarray
    row_coords: np.ndarray
    col_coords: np.ndarray
    row_masses: np.ndarray
    col_masses: np.ndarray
    total_inertia: float

    @property
    def n_axes(self) -> int:
        return len(self.eigenvalues)

    @property
    def inertia_percentages(self) -> np.ndarray:
        total = self.eigenvalues.sum()
        if total == 0.0:
            return np.zeros(0)
        return 100.0 * self.eigenvalues / total


def ca_fit(table: ContingencyTable) -> CaResult:
    """Fit the correspondence analysis of a contingency table.

    Requires at least two rows and two columns and strictly positive
    masses. A table exactly at independence comes back with zero axes,
    which is a valid (empty) result, not an error.
    """
    if len(table.row_labels) < 2 or len(table.col_labels) < 2:
        raise DataError("need at least a 2x2 table")
    f = table.frequencies
    fi = f.sum(axis=1)
    fj = f.sum(axis=0)
    for kind, labels, masses in (("row", table.row_labels, fi), ("column", table.col_labels, fj)):
        for label, mass in zip(labels, masses):
            if mass == 0.0:
                raise DataError(f"{kind} {label!r} has zero mass")

    expected = np.outer(fi, fj)
    residuals = (f - expected) / np.sqrt(expected)
    u, sigma, vt = np.linalg.svd(residuals, full_matrices=False)

    keep = sigma * sigma >= EIGENVALUE_TOL
    sigma = sigma[keep]
    eigenvalues = sigma * sigma
    psi = u[:, keep] * sigma / np.sqrt(fi)[:, None]
    phi = vt[keep].T * sigma / np.sqrt(fj)[:, None]
    _canonicalize_signs(psi, phi, table.row_labels)

    return CaResult(
        row_labels=table.row_labels,
        col_labels=table.col_labels,
        eigenvalues=eigenvalues,
        row_coords=psi,
        col_coords=phi,
        row_masses=fi,
        col_masses=fj,
        total_inertia=float((residuals * residuals).sum()),
    )


def _canonicalize_signs(psi: np.ndarray, phi: np.ndarray, row_labels) -> None:
    for k in range(psi.shape[1]):
        magnitudes = np.abs(psi[:, k])
        # Rows that tie in exact arithmetic can come out of the SVD a few
        # ulp apart, so near-equal magnitudes count as tied.
        tied = np.flatnonzero(magnitudes >= magnitudes.max() * (1.0 - SIGN_TIE_RTOL))
        lead = min(tied, key=lambda i: row_labels[i])
        if psi[lead, k] > 0.0:
            psi[:, k] *= -1.0
            phi[:, k] *= -1.0


def project_supplementary_row(counts, result: CaResult) -> np.ndarray:
    """Project a row of counts over the fitted columns into factor space.

    Uses the transition formula with the row's own conditional profile:
    psi_k = (1/sqrt(lambda_k)) * sum_j (f_j|row) phi_jk. Only the
    retained axes are reported, so no division by a vanishing eigenvalue
    ever happens.
    """
    return _project(counts, result.col_coords, result.eigenvalues, "row", "column")


def project_supplementary_col(counts, result: CaResult) -> np.ndarray:
    """Dual of :func:`project_supplementary_row` for a column of counts."""
    return _project(counts, result.row_coords, result.eigenvalues, "column", "row")


def _project(counts, coords: np.ndarray, eigenvalues: np.ndarray, kind: str,
             over: str) -> np.ndarray:
    """Transition formula for a supplementary ``kind`` of counts over the
    fitted ``over`` points, whose principal coordinates are ``coords``."""
    counts = np.asarray(counts, dtype=float)
    if counts.shape != (len(coords),):
        raise SupplementaryError(f"expected {len(coords)} {over} counts, got {counts.shape}")
    total = counts.sum()
    # a NaN fails both tests; with none negative, a finite total leaves none infinite
    if not (counts.min() >= 0.0 and total < np.inf):
        raise SupplementaryError(f"supplementary {kind} counts must be finite and not negative")
    if total <= 0.0:
        raise SupplementaryError(f"supplementary {kind} has no incidences")
    profile = counts / total
    return (profile @ coords) / np.sqrt(eigenvalues)


def inertia_report(result: CaResult) -> list[tuple[int, float, float, float]]:
    """Rows of (axis, eigenvalue, percentage, cumulative percentage);
    empty when the table carries no inertia."""
    report = []
    cumulative = 0.0
    percentages = result.inertia_percentages
    for k, (lam, pct) in enumerate(zip(result.eigenvalues.tolist(), percentages.tolist()), 1):
        cumulative += pct
        report.append((k, lam, pct, cumulative))
    return report


def write_coordinates_csv(
    result: CaResult,
    supplementary: list[tuple[str, np.ndarray]] = (),
    axes: int | None = None,
) -> str:
    """Coordinates as CSV rows (label, kind, axis1..axisK) covering the
    fitted rows, the fitted columns, and any supplementary projections."""
    if axes is not None and axes < 0:
        raise DataError(f"axes must not be negative, got {axes}")
    k = result.n_axes if axes is None else min(axes, result.n_axes)
    axis = ",%.12g" * k
    lines = ["label,kind" + "".join(f",axis{i}" for i in range(1, k + 1))]
    blocks = [("row", result.row_labels, result.row_coords[:, :k].tolist()),
              ("col", result.col_labels, result.col_coords[:, :k].tolist()),
              ("sup", [label for label, _ in supplementary],
               [coords[:k].tolist() for _, coords in supplementary])]
    for kind, labels, coords in blocks:
        row = f",{kind}{axis}"
        lines += [csv_field(label) + row % tuple(c) for label, c in zip(labels, coords)]
    return "\n".join(lines) + "\n"


def write_inertia_csv(result: CaResult) -> str:
    lines = ["axis,eigenvalue,percentage,cumulative"]
    lines += ["%d,%.12g,%.12g,%.12g" % row for row in inertia_report(result)]
    return "\n".join(lines) + "\n"
