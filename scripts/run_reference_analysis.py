#!/usr/bin/env python3
"""Run the full semantic-map pipeline on the bundled reference tables.

Fits the correspondence analysis of the discipline-by-year table,
projects the 82 profile publications in as supplementary points, writes
the four artifacts of ``bibcarto analyze --fixture Table2 --supplementary
Table1 --k 5`` (coordinates.csv, inertia.csv, dendrogram.nwk and the
5-class partition.csv), and prints a summary of the axis structure, the
2-class cut of the years and disciplines alone, and the 5-class cut.

Usage:
    python scripts/run_reference_analysis.py [OUTDIR]
"""
import sys
from collections import defaultdict
from pathlib import Path

from bibcarto import ca, corpus
from bibcarto.cli import run_analysis


def main(outdir=None) -> int:
    disciplines = corpus.load_fixture("Table2")
    full = run_analysis(disciplines, corpus.load_fixture("Table1"), k=5, axes=None)
    outdir = full.write(outdir or "reference_analysis")

    result = full.result
    report = ca.inertia_report(result)
    print(f"{result.n_axes} axes, total inertia {result.total_inertia:.6f}")
    for axis, lam, pct, cum in report[:4]:
        print(f"  axis {axis}: eigenvalue {lam:.6f}  {pct:5.2f}%  (cum {cum:5.2f}%)")

    hum = result.row_coords[disciplines.row_labels.index("Hum")]
    print(f"Hum factor-plane position: ({hum[0]:+.3f}, {hum[1]:+.3f})")

    years_only = run_analysis(disciplines, None, k=2, axes=None)
    print("\nyears-and-disciplines 2-cut:")
    _print_clusters(years_only.partition)

    print("\nfull 114-point 5-cut:")
    _print_clusters(full.partition, max_labels=12)

    print(f"\nartifacts written to {outdir}/")
    return 0


def _print_clusters(partition, max_labels=40):
    clusters = defaultdict(list)
    for label, c in partition.assignment.items():
        clusters[c].append(label)
    for c in sorted(clusters):
        labels = clusters[c]
        shown = ", ".join(labels[:max_labels])
        extra = "" if len(labels) <= max_labels else f", ... ({len(labels)} total)"
        print(f"  cluster {c}: {shown}{extra}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else None))
