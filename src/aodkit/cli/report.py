"""Deterministic artifact writers: CSV tables, SVG plots and the JSON run report.

Command handlers declare their artifacts as :class:`Table` and
:class:`Plot` values; :func:`write_artifacts` is the one place that puts
them on disk.  Artifact bytes must be identical across runs with the
same configuration and seed, so floats are formatted with a fixed rule,
JSON keys are sorted, and wall time is kept out of the files (it goes to
stdout).
"""

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

from . import svgplot


@dataclass(frozen=True)
class Table:
    """A CSV file: ``rows`` is an iterable of rows of mixed scalars, read once."""
    name: str
    header: list
    rows: object


@dataclass(frozen=True)
class Plot:
    """An SVG line plot: ``series`` maps label -> y values over ``x``."""
    name: str
    x: object
    series: dict
    xlabel: str = ""
    ylabel: str = ""
    title: str = ""
    ylog: bool = False


def format_value(v):
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v) + 0.0:.12g}"  # +0.0 folds negative zero
    return str(v)


def write_csv(outdir, name, header, rows):
    """Write rows of mixed scalars; returns the file path."""
    path = os.path.join(outdir, name)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def write_artifacts(outdir, artifacts):
    """Write each declared artifact into ``outdir`` in order; returns the paths."""
    paths = []
    for art in artifacts:
        if isinstance(art, Table):
            paths.append(write_csv(outdir, art.name, art.header, art.rows))
        else:
            paths.append(svgplot.line_plot(
                os.path.join(outdir, art.name), art.x, art.series, xlabel=art.xlabel,
                ylabel=art.ylabel, title=art.title, ylog=art.ylog))
    return paths


def jsonable(obj):
    """Recursively convert numpy scalars/arrays for json.dumps."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj) + 0.0
    return obj


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            h.update(block)
    return h.hexdigest()


def write_run_report(outdir, slug, command, config_digest, seed, results, artifact_paths):
    """Assemble and write ``<slug>_report.json``; returns its path.

    The manifest lists every other emitted file with size and digest.
    Wall time is deliberately not recorded here (it would break
    byte-identical reruns); the caller prints it instead.
    """
    manifest = [
        {
            "name": os.path.basename(p),
            "bytes": os.path.getsize(p),
            "sha256": sha256_file(p),
        }
        for p in artifact_paths
    ]
    payload = {
        "command": command,
        "config_digest": config_digest,
        "seed": seed,
        "results": jsonable(results),
        "artifacts": manifest,
    }
    path = os.path.join(outdir, f"{slug}_report.json")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
