"""`run_experiment` held to `decision_model.run_model` on generated scenarios,
the checks that keep the model independent of the run, and the one seam
through which tests watch a run."""

import ast
import os

import decision_model
from corpus import cases
from ffsched.rtsim import NOISE_BLOCK
from ffsched.scenario import parse_scenario
from run_probe import assert_matches_model

CORPUS_CASES = 200


def test_generated_scenarios_match_the_model(monkeypatch):
    modes, refused, long_horizons = set(), 0, 0
    for text, seed in cases(CORPUS_CASES):
        cfg = parse_scenario(text)
        result, _ = assert_matches_model(monkeypatch, cfg, seed, text)
        modes.add(cfg.mode)
        refused += result is None
        long_horizons += cfg.horizon_s > 1.0
    # the corpus reaches every mode, a refused ideal load and the last-second mean past 1 s
    assert modes == {"fuzzy", "ideal", "open"}
    assert 0 < refused < CORPUS_CASES // 10
    assert long_horizons >= CORPUS_CASES // 20


def test_corpus_is_fixed_and_each_case_differs():
    # `same_outputs.py --cases N` and this suite take prefixes of one sequence
    first = cases(50)
    assert cases(50) == first and cases(60)[:50] == first
    assert len({text for text, _ in first}) == 50


def test_model_shares_no_machinery_with_the_run():
    with open(os.path.join(os.path.dirname(__file__), "decision_model.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.name for alias in node.names} | {alias.asname for alias in node.names}
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    shared = {"Kernel", "ExecDraws", "normal_blocks", "WindowData", "window_snapshot", "run_experiment"}
    assert not names & shared
    # the noise comes from Generators of the model's own, at another block
    # size than the run's, so no output may depend on the block size
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    assert "np.random.default_rng" in {ast.unparse(call.func) for call in calls}
    draws = [ast.unparse(call) for call in calls if ast.unparse(call.func).endswith("standard_normal")]
    assert draws == ["rng.standard_normal(BLOCK)"]
    assert decision_model.BLOCK != NOISE_BLOCK


def test_one_seam_watches_the_run():
    # only run_probe.py subclasses `Kernel`, puts anything in place of
    # `ffsched.experiment.Kernel` or builds a `Probe`; any test may build a
    # `Kernel`, hooks and all. No test module imports another
    tests = os.path.dirname(os.path.abspath(__file__))
    seams, imports = set(), set()
    replaced = ("Kernel", "ffsched.experiment.Kernel")  # as `setattr` and `monkeypatch.setattr` name it
    for name in sorted(n for n in os.listdir(tests) if n.endswith(".py")):
        with open(os.path.join(tests, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(ast.unparse(b).endswith(("Kernel", "Probe")) for b in node.bases):
                seams.add((name, f"class {node.name}"))
            elif isinstance(node, ast.Call) and (
                ast.unparse(node.func).endswith("Probe") or any(getattr(a, "value", 0) in replaced for a in node.args)
            ):
                seams.add((name, ast.unparse(node)))
            elif isinstance(node, ast.Assign) and any(getattr(t, "attr", None) == "Kernel" for t in node.targets):
                seams.add((name, ast.unparse(node)))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = [node.module or ""] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
                imports |= {(name, module) for module in modules if module.startswith("test_")}
    assert {name for name, _ in seams} == {"run_probe.py"}, seams
    assert not imports
