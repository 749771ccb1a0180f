"""Markdown report generation (the body of EXPERIMENTS.md)."""

from __future__ import annotations

import difflib
import re
from typing import List, Optional, Tuple

from .experiments import all_experiment_ids, run_experiment

#: The checked-in report: a hand-written preface, then the rendered body.
EXPERIMENTS_MD = "EXPERIMENTS.md"

#: Paper order for the report body.
DEFAULT_ORDER = [
    "table1", "table2", "table3", "fig01", "fig02", "fig03", "fig05",
    "fig06", "fig08", "fig14", "fig15", "fig16", "fig17", "fig18",
    "fig19", "fig20", "fig21", "fig22", "fig23", "fig24", "fig25",
    "fig26",
]


def experiments_markdown(ids: Optional[List[str]] = None) -> str:
    """Render every experiment as a markdown section with a code block."""
    ids = ids or DEFAULT_ORDER
    missing = [exp_id for exp_id in ids if exp_id not in all_experiment_ids()]
    if missing:
        raise KeyError(f"unknown experiments: {missing}")
    sections = []
    for exp_id in ids:
        experiment = run_experiment(exp_id)
        sections.append(
            f"## {exp_id}: {experiment.title}\n\n"
            f"```\n{experiment.render()}\n```\n")
    return "\n".join(sections)


def split_report(text: str) -> Tuple[str, str]:
    """``(preface, body)`` of a report: the body starts at the first
    ``## <experiment id>:`` heading."""
    ids = "|".join(re.escape(exp_id) for exp_id in all_experiment_ids())
    match = re.search(rf"^## (?:{ids}):", text, flags=re.MULTILINE)
    at = match.start() if match else len(text)
    return text[:at], text[at:]


def write_experiments_body(path: str,
                           ids: Optional[List[str]] = None) -> None:
    """Render the body into ``path``, keeping the file's preface."""
    body = experiments_markdown(ids)
    try:
        with open(path) as handle:
            preface = split_report(handle.read())[0]
    except FileNotFoundError:
        preface = ""
    with open(path, "w") as handle:
        handle.write(preface + body)


def experiments_drift(path: str = EXPERIMENTS_MD) -> List[str]:
    """Unified-diff lines from ``path``'s body to a fresh render; empty
    when the checked-in numbers are the ones the harness computes."""
    with open(path) as handle:
        on_disk = split_report(handle.read())[1]
    return list(difflib.unified_diff(
        on_disk.splitlines(keepends=True),
        experiments_markdown().splitlines(keepends=True),
        fromfile=path, tofile="rendered"))
