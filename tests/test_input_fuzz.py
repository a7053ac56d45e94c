"""Fuzz the ``ccf`` input surface: every numeric flag and every numeric
field of a coflow file ends in a documented exit code, never a traceback.

* The parser sweep walks :func:`repro.cli.build_parser`'s subcommands
  and hands each numeric option ``nan``, ``-inf`` and ``inf``: the
  parser itself must refuse them (``SystemExit(2)``, the option named),
  except ``inf`` where the option documents what it means.  No handler
  runs.
* The coflow-file fuzz writes one coflow of at most 10 flows whose
  numeric fields are drawn from NaN, +-Infinity, 0, -1 and a valid
  value, and runs ``ccf simulate`` on it in-process: an out-of-domain
  field is a usage error (exit 2), an in-domain file simulates (exit 0).
"""

import argparse
import contextlib
import io
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import EXIT_CODES, EXIT_OK, EXIT_USAGE, build_parser, main

#: Options whose help says what ``inf`` means: a failure or repair time
#: that never comes, a watchdog budget that never fires.
INF_ALLOWED = {"--fail-at", "--recover-at", "--wall-clock-budget"}


def _numeric_options():
    """``(command, base argv, option)`` for every typed option."""
    parser = build_parser()
    (sub,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    found = []
    for command, subparser in sub.choices.items():
        base = [command]
        for action in subparser._actions:
            if not action.option_strings:  # a positional
                base.append(action.choices[0] if action.choices else "x")
            elif action.required:
                base += [action.option_strings[-1], "1"]
        for action in subparser._actions:
            if action.option_strings and action.type is not None:
                found.append((command, base, action.option_strings[-1]))
    return found


NUMERIC_OPTIONS = _numeric_options()


def test_the_sweep_sees_every_numeric_option():
    assert len(NUMERIC_OPTIONS) >= 74
    assert {c for c, _, _ in NUMERIC_OPTIONS} >= {
        "run", "sweep", "simulate", "serve", "capacity", "bench", "gantt",
    }


@pytest.mark.parametrize(
    "command, base, option", NUMERIC_OPTIONS,
    ids=[f"{c}{o}" for c, _, o in NUMERIC_OPTIONS],
)
def test_parser_refuses_non_finite_values(command, base, option, capsys):
    values = ["nan", "-inf"] + ([] if option in INF_ALLOWED else ["inf"])
    for value in values:
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([*base, f"{option}={value}"])
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"argument {option}:" in err, (value, err)
    if option in INF_ALLOWED:
        args = build_parser().parse_args([*base, f"{option}=inf"])
        assert getattr(args, option[2:].replace("-", "_")) == math.inf


_BAD = [math.nan, math.inf, -math.inf, 0, -1]


def _field(valid):
    return st.sampled_from(_BAD + [valid])


_flow = st.fixed_dictionaries(
    {"src": _field(1), "dst": _field(2), "volume": _field(5e6)}
)
_coflow = st.fixed_dictionaries(
    {"flows": st.lists(_flow, max_size=10)},
    optional={
        "arrival_time": _field(0.5),
        "deadline": _field(2.0),
        "weight": _field(3.0),
    },
)


def _in_domain(coflow):
    """Whether every value of a drawn coflow is one the model accepts."""
    def finite(x, low, strict):
        return math.isfinite(x) and (x > low if strict else x >= low)

    for f in coflow["flows"]:
        ports_ok = all(finite(f[k], 0, False) for k in ("src", "dst"))
        if not ports_ok or f["src"] == f["dst"] or not finite(
            f["volume"], 0, True
        ):
            return False
    return (
        finite(coflow.get("arrival_time", 0.0), 0, False)
        and finite(coflow.get("deadline", 1.0), 0, True)
        and finite(coflow.get("weight", 1.0), 0, True)
    )


@settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(coflow=_coflow)
def test_coflow_file_fuzz(coflow, tmp_path):
    path = tmp_path / "coflows.json"
    path.write_text(json.dumps({"coflows": [coflow]}))  # NaN -> NaN
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["simulate", str(path), "--max-epochs", "10000"])
    assert code in EXIT_CODES
    assert "Traceback" not in err.getvalue()
    assert code == (EXIT_OK if _in_domain(coflow) else EXIT_USAGE), (
        coflow, err.getvalue())
