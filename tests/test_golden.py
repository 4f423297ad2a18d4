"""Golden outputs: the CLI's files are byte-identical to the recorded ones.

The data and its regeneration script live in ``tests/golden/``.  A rerun in
the same process must give the same bytes on any machine; the comparison
with the recorded bytes skips, naming both environments, where the numpy
version or the machine differs from the one the data was recorded under,
because the bytes depend on numpy's summation and sort kernels.
"""

from __future__ import annotations

import json
import math

import pytest

from golden import regenerate as golden


@pytest.fixture(scope="module")
def outputs(tmp_path_factory) -> dict[str, bytes]:
    return golden.run_cases(tmp_path_factory.mktemp("golden"))


def test_rerun_is_byte_identical(outputs, tmp_path):
    assert golden.sha256s(golden.run_cases(tmp_path)) == golden.sha256s(outputs)


def test_outputs_match_golden_data(outputs):
    manifest = json.loads(golden.MANIFEST.read_text(encoding="utf-8"))
    here = golden.environment()
    if manifest["environment"] != here:
        pytest.skip(f"golden data recorded under {manifest['environment']}, "
                    f"this run has {here}")
    for name in golden.VERBATIM:
        assert outputs[name].decode() == (golden.HERE / name).read_text(encoding="utf-8")
    assert golden.sha256s(outputs) == manifest["sha256"]


def test_largest_changes_reads_every_weight_and_stat_per_method():
    def comparison(taylor_weights, gd_stats) -> bytes:
        cells = {"taylor": {"weights": taylor_weights, "stats": {"mean": -0.25, "sd": 0.02}},
                 "gd": {"weights": [0.1, 0.2], "stats": gd_stats, "error": None}}
        return json.dumps({"results": {"5": cells}}).encode()

    old = comparison([0.5, 1.5], {"mean": -0.25, "sd": 0.02})
    assert golden.largest_changes(old, old) == {"taylor": 0.0, "gd": 0.0}
    moved = golden.largest_changes(old, comparison([0.5, 1.75], None))
    assert moved == {"taylor": 0.25, "gd": math.inf}
