"""The knob budget: every value a user can set, counted.

Three kinds of knob: the option flags of each ``jem`` subcommand, the
``REPRO_*`` environment variables named under ``src/``, and the fields of
the four configuration dataclasses.  Their total may not exceed
:data:`BUDGET`, so a new knob needs a visible edit here — and a CHANGES.md
line saying why it earns its place.
"""

from __future__ import annotations

import argparse
import dataclasses
import pathlib
import re

from repro.cli import build_parser
from repro.core.config import JEMConfig
from repro.core.engine import PipelineConfig
from repro.netserve import SupervisorConfig
from repro.service import ServiceConfig

#: 81 option flags + 7 environment variables + 23 config fields (`serve`
#: takes only a built index, `client` only connects to a `serve --listen`,
#: `chaos` draws its plans at their own bounds, the supervisor's history
#: length is a constant, and there is no `jem scaffold`)
BUDGET = 111

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


def option_flags() -> dict[str, int]:
    """Option actions per subcommand (``-p/--processes`` counts once)."""
    sub = next(
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    return {
        name: sum(
            1 for a in parser._actions
            if a.option_strings and not isinstance(a, argparse._HelpAction)
        )
        for name, parser in sub.choices.items()
    }


def env_vars() -> set[str]:
    return {
        name
        for path in SRC.rglob("*.py")
        for name in re.findall(r"\bREPRO_[A-Z0-9_]+", path.read_text("utf-8"))
    }


def config_fields() -> dict[str, int]:
    return {
        cls.__name__: len(dataclasses.fields(cls))
        for cls in (ServiceConfig, SupervisorConfig, JEMConfig, PipelineConfig)
    }


def test_knob_count_is_within_budget():
    flags, env, fields = option_flags(), env_vars(), config_fields()
    total = sum(flags.values()) + len(env) + sum(fields.values())
    assert total <= BUDGET, (
        f"{total} knobs > budget {BUDGET}: flags {flags}, "
        f"env {sorted(env)}, config fields {fields}"
    )
