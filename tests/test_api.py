"""The public surface: every exported name resolves, the exported names and
the public attributes of a problem and a trace are pinned, a star import works,
the package imports nothing beyond the standard library and numpy, only the
spectral module computes recurrence coefficients, the README's library
example and shell examples run as written, its scenario table lists the
flags each scenario takes, and its config table lists each subcommand's keys
and defaults."""

import ast
import pathlib
import re
import shlex
import sys

import lyapcert
from lyapcert import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
PACKAGE = pathlib.Path(lyapcert.__file__).resolve().parent


def test_every_exported_name_resolves():
    assert [name for name in lyapcert.__all__ if not hasattr(lyapcert, name)] == []
    assert len(set(lyapcert.__all__)) == len(lyapcert.__all__)


def public(obj):
    return sorted(name for name in dir(obj) if not name.startswith("_"))


def test_public_surface_is_pinned():
    # a name added to or dropped from the API shows here, in the diff
    assert sorted(lyapcert.__all__) == [
        "DIVERGENCE_THRESHOLD", "HB", "KINDS",
        "MethodSpec", "MonotonicityReport", "NAG", "NAGGS", "Objective", "Panel",
        "QuadraticProblem", "SCENARIOS", "SUITABLE", "ScenarioConfig", "ScenarioResult",
        "Series", "SpectralCertificate", "TMM", "Trace", "__version__", "analyze",
        "certificate_csv_text", "certificate_report_text",
        "coefficient_arrays", "cosine_counterexample", "exp_norm_objective", "export_csv",
        "find_cosine_witness", "find_tmm_witness", "generate_quadratic", "load_problem",
        "optimal_hyperparams", "parse_config_file", "render_svg",
        "rosenbrock_objective", "run_scenario", "run_trace", "save_problem"]
    p = lyapcert.generate_quadratic(2, 1.0, 2.0, seed=0)
    assert public(p) == ["W", "constant", "dim", "eigvals", "eigvecs", "linear",
                         "lipschitz", "minimizer", "mu"]
    tr = lyapcert.run_trace(p, lyapcert.MethodSpec(lyapcert.HB, alpha=0.5), p.minimizer, 3)
    assert public(tr) == ["certificate", "distance", "diverged", "lyapunov", "objective_gap",
                          "report"]


def test_star_import():
    namespace = {}
    exec("from lyapcert import *", namespace)
    assert set(lyapcert.__all__) <= set(namespace)


def test_imports_are_numpy_and_the_standard_library():
    # scipy and others may be installed where the tests run, so no import
    # error would show a stray dependency; the sources are read instead
    allowed = set(sys.stdlib_module_names) | {"numpy", "lyapcert"}
    stray = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:  # relative imports stay inside the package
                continue
            stray += [f"{path.name}:{node.lineno}: {name}" for name in names
                      if name.split(".")[0] not in allowed]
    assert stray == []


def test_only_the_spectral_module_computes_coefficients():
    # the (a, b) a run steps and a certificate reports are one decision: a
    # trace steps its certificate's columns instead of computing its own
    calls = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name == "coefficient_arrays":
                    calls.append(path.name)
    assert calls == ["spectral.py"]


def test_readme_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.match(r"\s*```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("True ")
    assert lines[1].startswith("monotone decrease: yes")


def test_readme_shell_examples_run(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    examples = re.search(r"\nExamples:\n\n```\n(.*?)```", text, re.S).group(1)
    config = re.search(r"```\n# nag\.cfg\n(.*?)```\n+```\n(.*?)```", text, re.S)
    lines = [ln for ln in (examples + config.group(2)).splitlines()
             if ln.startswith("lyapcert ")]
    assert len(lines) == 7
    monkeypatch.chdir(tmp_path)
    (tmp_path / "nag.cfg").write_text(config.group(1), encoding="utf-8")
    for line in lines:
        assert cli.main(shlex.split(line, comments=True)[1:]) == 0, line
        capsys.readouterr()


def test_readme_scenario_flags_match_the_table():
    section = README.read_text(encoding="utf-8").split("\n## Scenarios\n", 1)[1]
    rows = re.findall(r"^\| `([\w-]+)` +\| ([^|]*)\|", section, re.M)
    listed = {name: set(re.findall(r"--([\w-]+)", flags)) for name, flags in rows}
    assert listed == {name: {key.replace("_", "-") for key in row}
                      for name, (_, row) in lyapcert.SCENARIOS.items()}


def test_readme_config_table_matches_the_commands():
    section = README.read_text(encoding="utf-8").split("\n### Config files\n", 1)[1]
    section = section.split("\n## Scenarios\n", 1)[0]
    rows = re.findall(r"^\| `([\w-]+)` \| (.*?) \| (.*?) \|$", section, re.M)
    listed = {name: (re.findall(r"`([\w-]+)`", positional), cells.split())
              for name, positional, cells in rows}
    assert listed == {
        name: ([positional] if positional else [],
               [f"`{key}`" if default is None else f"`{key}={default}`"
                for key, default in row.items()])
        for name, (_, positional, row) in cli.COMMANDS.items()}
