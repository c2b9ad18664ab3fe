"""The repository tooling must keep working (docs generation)."""

import importlib.util
import pathlib

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def load_tool(name: str):
    """Import ``tools/<name>.py`` as a module (tools are not a package)."""
    spec = importlib.util.spec_from_file_location(name, REPO_ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestApiIndexGenerator:
    def test_generates_index(self):
        # In-process and without writing: the committed docs/api_index.md
        # is only ever rewritten on purpose (CI runs it with --check).
        content = load_tool("gen_api_index").build_index()
        # Spot-check the load-bearing exports appear.
        for needle in (
            "repro.sim.engine",
            "repro.queueing.mva",
            "repro.model.system",
            "repro.policies.lert",
            "repro.codec",
            "`solve_mva`",
            "`DistributedDatabase`",
            "`from_dict`",
        ):
            assert needle in content, f"missing {needle} in API index"
