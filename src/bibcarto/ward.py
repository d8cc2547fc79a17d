"""Ward minimum-variance hierarchical clustering in full factor space.

Points are the row, column and supplementary factor coordinates of a
fitted correspondence analysis, taken in every retained dimension and
equiweighted. Each agglomeration step merges the pair of clusters whose
fusion least increases the within-cluster inertia,

    delta = (m_a m_b / (m_a + m_b)) * ||c_a - c_b||^2,

and records that increase as the merge height. Leaves are numbered
0..n-1 in input order and each merge creates cluster id n, n+1, ...

The increases live in one dense symmetric n x n matrix with a fixed
slot per leaf and infinity on the diagonal. It is filled in place, each
pair once: row i's differences to the later points go into one reused
buffer, at the rows those points would take in a full fill, and an
``einsum`` of their squares is written into row i past the diagonal and
mirrored into column i. A full fill would square c_i - c_j for cell
(j, i), the exact negation of c_j - c_i, and ``einsum`` sums each row in
the same order, so the mirror has the same bits. The whole matrix is
then scaled once by the equal-mass factor m m / (m + m), which gives
the same bits as scaling each row. A merge gives the merged cluster the
slot of its smaller-id part and refills that slot's row in place by the
Lance-Williams recurrence for Ward, computed in two reused buffers, then
copies it into the column; the other part's slot dies and its column
becomes infinity. Nothing is reallocated. The recurrence agrees with
direct centroid recomputation to within 1e-9, not bit for bit.

Each slot caches its row minimum and a column that attains it, after
Müllner's "generic" algorithm (arXiv:1109.2378, section 3.1). After a
merge, only the merged slot and the rows whose cached column was one of
the two parts are rescanned; every other row compares its cached
minimum with its one new value. The least cached minimum is then the
matrix minimum, and a NaN anywhere in the matrix is the cached minimum
of its row, so a non-finite criterion raises at the same merge as a
scan of the whole matrix would.

Each step merges the lexicographically least (smaller id, larger id)
pair among the cells that equal the minimum exactly. By symmetry a cell
at the minimum lies in two rows whose cached minimum is the minimum. So
when only two slots cache it, they are the pair; otherwise the pair is
the least id among those slots and its least-id partner at the minimum.

A dendrogram can be cut into k clusters by undoing the last k-1 merges,
and exported in Newick form, whose branch lengths halve the merge
heights so that the leaf-to-leaf path length through a node equals the
node's merge height.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .ca import CaResult
from .corpus import csv_field
from .errors import DataError, is_int


class ClusterCountError(DataError):
    """A cut into fewer than one cluster or more clusters than leaves."""


@dataclass(frozen=True)
class PointSet:
    labels: tuple[str, ...]
    coords: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        coords = np.ascontiguousarray(self.coords, dtype=float)
        masses = np.ascontiguousarray(self.masses, dtype=float)
        if coords.ndim != 2 or coords.shape[0] != len(self.labels):
            raise DataError("coords must be one row per label")
        if masses.shape != (len(self.labels),):
            raise DataError("one mass per label required")
        if not np.isfinite(coords).all():
            raise DataError("non-finite coordinates")
        repeated = [label for label, count in Counter(self.labels).items() if count > 1]
        if repeated:
            raise DataError(f"duplicate point label {repeated[0]!r}")
        if not (np.isfinite(masses) & (masses > 0)).all():
            raise DataError("masses must be positive and finite")
        if masses.size and not (masses == masses[0]).all():
            raise DataError("points must be equiweighted")
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "labels", tuple(self.labels))

    def __len__(self) -> int:
        return len(self.labels)


class Merge(NamedTuple):
    a: int
    b: int
    height: float
    new_id: int


@dataclass(frozen=True)
class Dendrogram:
    leaf_labels: tuple[str, ...]
    merges: tuple[Merge, ...]


@dataclass(frozen=True)
class Partition:
    k: int
    assignment: dict[str, int]


def embed_for_clustering(
    result: CaResult, supplementary: list[tuple[str, np.ndarray]] = ()
) -> PointSet:
    """One unit-mass point per fitted row, fitted column, and
    supplementary projection, in all retained dimensions."""
    d = result.n_axes
    labels = list(result.row_labels) + [str(c) for c in result.col_labels]
    blocks = [result.row_coords, result.col_coords]
    for label, coords in supplementary:
        coords = np.asarray(coords, dtype=float)
        if coords.shape != (d,):
            raise DataError(
                f"supplementary point {label!r} has {coords.shape} coordinates, "
                f"expected ({d},)"
            )
        labels.append(label)
        blocks.append(coords[None, :])
    return PointSet(tuple(labels), np.vstack(blocks), np.ones(len(labels)))


def ward_hac(points: PointSet) -> Dendrogram:
    """Agglomerate all points into a dendrogram of n-1 recorded merges."""
    n = len(points)
    if n < 2:
        raise DataError(f"need at least 2 points, got {n}")

    coords = points.coords
    mass = points.masses.copy()
    delta = np.empty((n, n))
    diff = np.empty_like(coords)
    for i in range(n - 1):
        d = np.subtract(coords[i + 1:], coords[i], out=diff[i + 1:])
        delta[i + 1:, i] = np.einsum("ij,ij->i", d, d, out=delta[i, i + 1:])
    np.fill_diagonal(delta, 0.0)  # defined before scaling: np.empty left it unset
    delta *= mass[0] * mass[0] / (mass[0] + mass[0])  # one factor: masses are equal
    np.fill_diagonal(delta, np.inf)
    ids = np.arange(n)
    dead = np.zeros(n, dtype=bool)
    stale, better = np.empty(n, dtype=bool), np.empty(n, dtype=bool)
    lw, scratch = np.empty(n), np.empty(n)  # the Lance-Williams terms
    nn = delta.argmin(1)
    nnd = delta[ids, nn]  # the value at argmin: NaN wherever min is NaN

    merges = []
    for new_id in range(n, 2 * n - 1):
        s = int(nnd.argmin())
        least = nnd[s]
        if not math.isfinite(least):
            raise ArithmeticError(f"Ward criterion is not finite ({least})")
        t = int(nn[s])
        tied = (nnd == least).nonzero()[0]
        if len(tied) > 2:
            s = tied[ids[tied].argmin()]
            partners = tied[delta[s, tied] == least]
            t = partners[ids[partners].argmin()]
        sa, sb = (s, t) if ids[s] < ids[t] else (t, s)
        height = delta[sa, sb]
        m_new = mass[sa] + mass[sb]
        # ((m_a + m) d_a + (m_b + m) d_b - m h) / (m_new + m), step by step
        np.multiply(np.add(mass[sa], mass, out=lw), delta[sa], out=lw)
        lw += np.multiply(np.add(mass[sb], mass, out=scratch), delta[sb], out=scratch)
        lw -= np.multiply(mass, height, out=scratch)
        merged = np.divide(lw, np.add(m_new, mass, out=scratch), out=delta[sa])
        dead[sb] = True
        merged[dead] = np.inf
        merged[sa] = np.inf
        delta[:, sa] = merged
        delta[:, sb] = np.inf
        mass[sa] = m_new
        merges.append(Merge(int(ids[sa]), int(ids[sb]), float(height), new_id))
        ids[sa] = new_id

        nn[sb], nnd[sb] = -1, np.inf  # a dead slot is never stale again
        np.equal(nn, sa, out=stale)
        stale |= np.equal(nn, sb, out=better)  # better is refilled below
        stale[sa] = True
        # true where the new value is smaller or NaN
        np.logical_not(np.greater_equal(merged, nnd, out=better), out=better)
        nn[better] = sa
        np.copyto(nnd, merged, where=better)
        rows = stale.nonzero()[0]
        scan = delta[rows]
        nn[rows] = col = scan.argmin(1)
        nnd[rows] = scan[np.arange(len(rows)), col]
    return Dendrogram(points.labels, tuple(merges))


def cut(dendrogram: Dendrogram, k: int) -> Partition:
    """Partition into k clusters by undoing the last k-1 merges.

    Cluster indices run 1..k in order of first leaf appearance.
    """
    n = len(dendrogram.leaf_labels)
    if not (is_int(k) and 1 <= k <= n):
        raise ClusterCountError(f"k must be in 1..{n}, got {k!r}")
    parent = {}
    for merge in dendrogram.merges[: n - k]:
        parent[merge.a] = merge.new_id
        parent[merge.b] = merge.new_id

    def root(i: int) -> int:
        while i in parent:
            i = parent[i]
        return i

    cluster_of_root: dict[int, int] = {}
    assignment = {}
    for i, label in enumerate(dendrogram.leaf_labels):
        r = root(i)
        if r not in cluster_of_root:
            cluster_of_root[r] = len(cluster_of_root) + 1
        assignment[label] = cluster_of_root[r]
    return Partition(k, assignment)


_NEWICK_SPECIAL = frozenset(",():;'[]")


def _quote_newick(label: str) -> str:
    """Quote a label holding whitespace (as ``str.isspace`` defines it) or
    Newick punctuation; a quote inside doubles."""
    if not _NEWICK_SPECIAL.isdisjoint(label) or any(map(str.isspace, label)):
        return "'" + label.replace("'", "''") + "'"
    return label


def export_dendrogram(dendrogram: Dendrogram) -> str:
    """Render the merge tree in Newick form.

    The tree is walked with an explicit stack of nodes and literal text,
    so a chain-shaped tree as deep as it has leaves renders without
    reaching the interpreter's recursion limit.
    """
    labels = dendrogram.leaf_labels
    children = {}
    heights = dict.fromkeys(range(len(labels)), 0.0)
    for merge in dendrogram.merges:
        children[merge.new_id] = (merge.a, merge.b)
        heights[merge.new_id] = merge.height
    out = []
    stack: list[int | str] = [dendrogram.merges[-1].new_id if dendrogram.merges else 0]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif item not in children:
            out.append(_quote_newick(labels[item]))
        else:
            a, b = children[item]
            la, lb = ((heights[item] - heights[child]) / 2.0 for child in (a, b))
            stack += [f":{format(lb, '.12g')})", b, f":{format(la, '.12g')},", a, "("]
    return "".join(out) + ";"


def write_partition_csv(partition: Partition) -> str:
    lines = ["label,cluster"]
    lines += [f"{csv_field(label)},{cluster}" for label, cluster in partition.assignment.items()]
    return "\n".join(lines) + "\n"
