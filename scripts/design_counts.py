"""Print the four design counts the roadmap tracks, each found by introspection.

    python scripts/design_counts.py

imports ``uqeval`` from this checkout's ``src`` and prints one ``name count``
line for each of:

* ``src_lines``: the lines of ``src/uqeval/*.py``, as ``wc -l`` counts them;
* ``cli_flags``: the options of every subcommand, ``-h`` aside;
* ``settable_values``: the ``init`` fields of ``DemoPreset``, ``EnsembleSpec``
  and ``SyntheticDataset``, plus the parameters of ``generate_dataset``,
  ``_stratified_split``, ``evaluate_demo`` and ``histogram_svg``;
* ``exports``: the public names of ``uqeval`` that are not modules.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import sys
import types
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import uqeval  # noqa: E402
from uqeval import cli, datasets, demo, models, svg  # noqa: E402

SETTABLE_CLASSES = (demo.DemoPreset, models.EnsembleSpec, datasets.SyntheticDataset)
SETTABLE_FUNCTIONS = (datasets.generate_dataset, datasets._stratified_split,
                      demo.evaluate_demo, svg.histogram_svg)


def src_lines() -> int:
    return sum(path.read_bytes().count(b"\n") for path in (SRC / "uqeval").glob("*.py"))


def cli_flags() -> int:
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sum(bool(action.option_strings) and action.dest != "help"
               for command in commands.choices.values() for action in command._actions)


def settable_values() -> int:
    fields = sum(field.init for cls in SETTABLE_CLASSES for field in dataclasses.fields(cls))
    return fields + sum(len(inspect.signature(fn).parameters) for fn in SETTABLE_FUNCTIONS)


def exports() -> int:
    return sum(not name.startswith("_") and not isinstance(value, types.ModuleType)
               for name, value in vars(uqeval).items())


def main() -> None:
    for count in (src_lines, cli_flags, settable_values, exports):
        print(count.__name__, count())


if __name__ == "__main__":
    main()
