"""Golden outputs: the CLI's files are byte-identical to the recorded ones.

The data and its regeneration script live in ``tests/golden/``.  A rerun in
the same process must give the same bytes on any machine; the comparison
with the recorded bytes skips, naming both environments, where the numpy
version or the machine differs from the one the data was recorded under,
because the bytes depend on numpy's summation and sort kernels.
"""

from __future__ import annotations

import json

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
