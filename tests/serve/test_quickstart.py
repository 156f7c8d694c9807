"""The ``repro.serve`` module docstring's quickstart runs as written."""

import textwrap

import repro.serve


def test_docstring_quickstart_runs(capsys):
    _, _, block = repro.serve.__doc__.partition("Quickstart::")
    assert block.strip(), "repro.serve lost its Quickstart:: block"
    exec(compile(textwrap.dedent(block), "repro.serve quickstart", "exec"), {})
    assert "Live replay" in capsys.readouterr().out
