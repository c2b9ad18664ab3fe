"""tools/gen_api_index.py — --check mode and import-error hardening.

The drift check is only trustworthy if a broken module makes the tool
fail loudly instead of silently dropping the module from the index.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import textwrap

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
TOOL = REPO_ROOT / "tools" / "gen_api_index.py"


def _run(pythonpath: pathlib.Path, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(pythonpath)
    return subprocess.run(
        [sys.executable, str(TOOL), *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=env,
    )


def test_check_passes_on_current_tree():
    result = _run(REPO_ROOT / "src", "--check")
    assert result.returncode == 0, result.stdout + result.stderr
    assert "up to date" in result.stdout


def test_check_fails_loudly_on_import_error(tmp_path):
    """A repro submodule that raises on import must exit 2, not be skipped."""
    package = tmp_path / "repro"
    package.mkdir()
    (package / "__init__.py").write_text('"""Fake repro."""\n', encoding="utf-8")
    (package / "broken.py").write_text(
        textwrap.dedent(
            """\
            \"\"\"A module that cannot be imported.\"\"\"
            raise ImportError("deliberately broken for the drift-check test")
            """
        ),
        encoding="utf-8",
    )
    result = _run(tmp_path, "--check")
    assert result.returncode == 2, result.stdout + result.stderr
    assert "error importing" in result.stderr


def test_check_fails_on_undefined_export(tmp_path):
    """An ``__all__`` entry the module does not define must exit 2."""
    package = tmp_path / "repro"
    package.mkdir()
    (package / "__init__.py").write_text('"""Fake repro."""\n', encoding="utf-8")
    (package / "widget.py").write_text(
        '"""A module that exports a deleted name."""\n__all__ = ["Gone"]\n',
        encoding="utf-8",
    )
    result = _run(tmp_path, "--check")
    assert result.returncode == 2, result.stdout + result.stderr
    assert "undefined name 'Gone'" in result.stderr


def test_check_detects_stale_index(tmp_path):
    """A fake healthy repro package whose API differs from docs -> exit 1."""
    package = tmp_path / "repro"
    package.mkdir()
    (package / "__init__.py").write_text('"""Fake repro."""\n', encoding="utf-8")
    (package / "widget.py").write_text(
        textwrap.dedent(
            """\
            \"\"\"A module the real index has never heard of.\"\"\"

            def frobnicate():
                \"\"\"Do the frob.\"\"\"

            __all__ = ["frobnicate"]
            """
        ),
        encoding="utf-8",
    )
    result = _run(tmp_path, "--check")
    assert result.returncode == 1, result.stdout + result.stderr
    assert "stale" in result.stderr
