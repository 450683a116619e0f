"""Property test of the exit-code contract: whatever scenario text and
command-line overrides come in, `ffsched` exits 0, 2, 3, 4, 5 or 6 and
prints no traceback. Exit 7 reports an unexpected exception, so here it is
a failure like any other code."""

import contextlib
import io
import os

import pytest

from ffsched.cli import main
from ffsched.scenario import _SECTION_KEYS

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

CONTRACT = {0, 2, 3, 4, 5, 6}

# Numbers that break a rule or sit at the edge of the number line, and text
# that is no number at all.
NUMERIC_EDGE = ("0", "-1", "nan", "inf", "-inf", "1e308", "-1e308", "1e-308", "1e-10", "2", "1")
EDGE = NUMERIC_EDGE + ("x", "1e", "0.0.1")

# Valid values per key, chosen so that a run that passes validation stays
# short: no period below 1 ms and no horizon above 0.2 s.
SANE = {
    "horizon": ("0.05", "0.1", "0.2"),
    "mode": ("fuzzy", "ideal", "open"),
    "target": ("0.5", "0.85", "0.95"),
    "period": ("0.001", "0.003", "0.004", "0.01", "0.02"),
    "exec": ("0.0001", "0.0005", "0.001", "0-0.05: 0.0004, 0.05-4: 0.0012", "0-1: 0.001, 2-3: 0.001"),
    "h_min": ("0.001", "0.002"),
    "h_max": ("0.007", "0.01"),
    "exec_std": ("0", "0.1", "0.5", "3"),
    "util_std": ("0", "0.1", "0.5"),
    "pole_rate": ("2", "0.5", "1e6"),
    "input_gain": ("2000", "1", "1e12"),
    "kp": ("1.3", "1e-200", "1e200"),
    "ki": ("3", "1e-200", "1e200"),
    "kd": ("0.035", "0", "1e200"),
    "deriv_filter": ("25", "1e-200", "1e200"),
    "duration": ("4", "0.1", "0.1000000004", "1e-300"),
    "kind": ("control", "load", "scheduler"),
    "priority": ("1", "2", "3", "4", "5"),
}
HORIZONS = SANE["horizon"] + ("0", "-1", "nan", "inf", "1e308", "1e-308", "0.02", "0.0200000001")


def _value(key):
    if key == "horizon":  # a valid horizon of 1e9 s would run for hours
        return st.sampled_from(HORIZONS)
    sane = st.sampled_from(SANE[key])
    return st.one_of(sane, sane, st.sampled_from(EDGE))


@st.composite
def _section(draw):
    name = draw(st.sampled_from(sorted(_SECTION_KEYS)))
    if name == "task":
        header = f"[task {draw(st.sampled_from(('tau1', 'tau2', 'a', 'b', 'sched')))}]"
    else:
        header = draw(st.sampled_from((f"[{name}]", f"[{name}]", f"[{name}", "[bogus]")))
    keys = draw(st.lists(st.sampled_from((*_SECTION_KEYS[name], "bogus")), max_size=4))
    lines = [header]
    for key in keys:
        value = draw(_value(key)) if key in SANE else draw(st.sampled_from(EDGE))
        lines.append(draw(st.sampled_from((f"{key} = {value}", f"{key}={value}  # note", f"{key} {value}"))))
    return "\n".join(lines)


@st.composite
def _argv(draw, scenario_path, out_dir):
    command = draw(st.sampled_from(("run", "run", "sweep")))
    argv = [command]
    if draw(st.booleans()):
        argv += ["--scenario", draw(st.sampled_from((scenario_path, scenario_path, scenario_path + ".missing")))]
    argv += ["--horizon", draw(st.sampled_from(HORIZONS + ("x",)))]  # never the 4 s default
    if draw(st.booleans()):
        argv += ["--mode", draw(st.sampled_from(SANE["mode"] + ("fast",)))]
    if draw(st.booleans()):
        argv += ["--target", draw(st.sampled_from(SANE["target"] + NUMERIC_EDGE))]
    if draw(st.booleans()):
        argv += ["--fs-period", draw(st.sampled_from(("0.01", "0.02") + NUMERIC_EDGE))]
    if command == "run":
        if draw(st.booleans()):
            argv += ["--seed", draw(st.sampled_from(("0", "7", "7", "-1")))]
        if draw(st.booleans()):
            argv += ["--out", out_dir]
    else:
        argv += ["--seeds", draw(st.sampled_from(("1", "1", "0", "x")))]
        argv += ["--noise", draw(st.sampled_from(("0", "0.1", "0,1e308", "0.1", "nan", "-1")))]
    return argv


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


def test_every_input_keeps_the_exit_code_contract(work_dir):
    scenario_path = os.path.join(work_dir, "scenario.cfg")
    out_dir = os.path.join(work_dir, "out")

    @hypothesis.settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @hypothesis.given(
        text=st.lists(_section(), max_size=3).map("\n\n".join),
        argv=_argv(scenario_path, out_dir),
    )
    def check(text, argv):
        with open(scenario_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        err = stderr.getvalue()
        assert code in CONTRACT, (code, err)
        assert "Traceback" not in err
        if code not in (0, 2):
            assert err.startswith("error[") and err.count("\n") == 1, err

    check()
