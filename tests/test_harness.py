"""Experiment registry and report rendering."""

import pytest

from repro.harness import (
    EXPERIMENTS,
    PAPER,
    all_experiment_ids,
    paper_vs_measured,
    render_table,
    run_experiment,
)

#: Every evaluation table/figure of the paper must have an experiment.
_REQUIRED = {
    "table1", "table2", "table3",
    "fig01", "fig02", "fig03", "fig05", "fig06", "fig08",
    "fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "fig20",
    "fig21", "fig22", "fig23", "fig24", "fig25", "fig26",
}


def test_registry_covers_every_table_and_figure():
    assert _REQUIRED <= set(all_experiment_ids())


def test_unknown_experiment_raises():
    with pytest.raises(KeyError, match="unknown experiment"):
        run_experiment("fig99")


@pytest.mark.parametrize("argv, env, expect", [
    (["table3"], {"REPRO_JOBS": "two"}, "REPRO_JOBS='two'"),
    (["fig99"], {}, "unknown experiment(s) fig99"),
    # Never read by table3: caught by the startup check.
    (["table3"], {"REPRO_AUTOSCALE_PRICE": "x"}, "REPRO_AUTOSCALE_PRICE='x'"),
    (["--check", "table3"], {}, "--check renders every experiment"),
])
def test_harness_main_bad_input_exits_two_with_one_line(
        argv, env, expect, monkeypatch, capsys):
    from repro.harness.__main__ import main
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("python -m repro.harness: ")
    assert expect in captured.err


_PREFACE = "# EXPERIMENTS\n\n## Reading the numbers\n\nprose\n\n"
_BODY = "## table3: NPU-Tandem configuration\n\n```\nlanes 32\n```\n"


@pytest.fixture
def rendered_body(monkeypatch, tmp_path):
    """A report in ``tmp_path`` whose fresh render is :data:`_BODY`."""
    from repro.harness import markdown
    monkeypatch.setattr(markdown, "experiments_markdown",
                        lambda ids=None: _BODY)
    monkeypatch.chdir(tmp_path)
    return tmp_path / "EXPERIMENTS.md"


def test_harness_check_passes_on_an_up_to_date_report(rendered_body,
                                                       capsys):
    from repro.harness.__main__ import main
    rendered_body.write_text(_PREFACE + _BODY)
    assert main(["--check"]) == 0
    assert "up to date" in capsys.readouterr().out


def test_harness_check_fails_with_a_diff_on_drift(rendered_body, capsys):
    from repro.harness.__main__ import main
    rendered_body.write_text(_PREFACE + _BODY.replace("32", "16"))
    assert main(["--check"]) == 1
    err = capsys.readouterr().err
    assert "-lanes 16\n+lanes 32\n" in err
    assert "has drifted" in err


def test_write_experiments_body_keeps_the_preface(rendered_body):
    from repro.harness.markdown import split_report, write_experiments_body
    rendered_body.write_text(_PREFACE + "## table3: stale\n")
    write_experiments_body(str(rendered_body))
    assert split_report(rendered_body.read_text()) == (_PREFACE, _BODY)


def test_cheap_experiments_render():
    for exp_id in ("table3", "fig01", "fig02", "fig05", "fig26"):
        experiment = run_experiment(exp_id)
        text = experiment.render()
        assert exp_id in text
        assert "paper" in text
        assert experiment.summary


def test_paper_data_keys_match_registry():
    for exp_id in PAPER:
        assert exp_id in EXPERIMENTS, exp_id


def test_render_table_alignment():
    text = render_table(("name", "value"), [("a", 1.5), ("bb", 123456.0)],
                        title="t")
    lines = text.splitlines()
    assert lines[0] == "t"
    assert "name" in lines[1]
    assert len(lines) == 5


def test_paper_vs_measured_ratio_column():
    text = paper_vs_measured({"metric": (2.0, 3.0)})
    assert "1.50" in text


def test_paper_vs_measured_handles_non_numeric():
    text = paper_vs_measured({"who_wins": ("mobilenetv2", "mobilenetv2")})
    assert "mobilenetv2" in text
