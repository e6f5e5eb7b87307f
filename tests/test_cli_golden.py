"""Golden stdout of ``boxchain run``, ``boxchain bounds`` and ``boxchain
inspect``, and golden images of ``boxchain render``.

Each case runs the CLI in-process and compares its stdout byte for byte
with a file under ``tests/data/cli/``.  The only machine-dependent
values, the wall-time line of the text table and ``total_wall_s`` of
the JSON record, are masked before the comparison.  Renders are pinned
as PPM, whose bytes are the pixels themselves and do not depend on the
zlib build the PNG encoder links against.
"""

import re
from pathlib import Path

import pytest

from boxchain import cli
from boxchain.pipeline import PRESETS

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "cli"

QUAD = ["--map", "quad_poly", "--c", "0", "--rprime", "2", "--schedule", "uniform*4", "--quiet"]

CASES = {
    "run_quad_uniform4.txt": ["run", *QUAD],
    "run_quad_uniform4.jsonl": ["run", *QUAD, "--json"],
    "run_per31_uniform3.txt": ["run", "--preset", "per31", "--schedule", "uniform*3", "--quiet"],
    "inspect_quad_uniform3.txt": ["inspect", "--model-in", str(DATA / "quad_uniform3.txt")],
}
for _name in sorted(PRESETS):
    CASES[f"bounds_{_name}.txt"] = ["bounds", "--preset", _name, "--epsilon", "0.03"]
    CASES[f"bounds_{_name}_exact.txt"] = ["bounds", "--preset", _name, "--epsilon", "0.03", "--exact"]


def masked(out: str) -> str:
    out = re.sub(r"(?m)^wall time: .* s$", "wall time: <masked> s", out)
    return re.sub(r'"total_wall_s": [^,}]+', '"total_wall_s": "<masked>"', out)


def cli_stdout(argv, capsys) -> str:
    assert cli.main(argv) == 0
    return masked(capsys.readouterr().out)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_stdout_matches_golden(name, capsys):
    assert cli_stdout(CASES[name], capsys) == (GOLDEN / name).read_text()


RENDER_CASES = {
    "render_altper2_uniform4.ppm": ("altper2", ["--resolution", "96"]),
    "render_altper2_uniform4_window.ppm": (
        "altper2", ["--resolution", "96", "--window", "0.003,0.002,0.6"]),
    "render_quad_uniform4.ppm": ("quad", ["--resolution", "64"]),
}


@pytest.fixture(scope="module")
def render_models(tmp_path_factory):
    out = tmp_path_factory.mktemp("render_models")
    argvs = {
        "altper2": ["--preset", "altper2", "--schedule", "uniform*4", "--quiet"],
        "quad": QUAD,
    }
    paths = {}
    for key, argv in argvs.items():
        paths[key] = out / f"{key}.txt"
        assert cli.main(["run", *argv, "--model-out", str(paths[key])]) == 0
    return paths


@pytest.mark.parametrize("name", sorted(RENDER_CASES))
def test_render_matches_golden(name, render_models, tmp_path, capsys):
    model, argv = RENDER_CASES[name]
    image = tmp_path / name
    argv = ["render", "--model-in", str(render_models[model]), "--image-out", str(image), *argv]
    assert cli.main(argv) == 0
    assert image.read_bytes() == (GOLDEN / name).read_bytes()
