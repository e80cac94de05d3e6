"""Results stay bit-identical: fresh runs against golden_digests.json.

See tests/golden.py for the cases and for the script that rewrites the
digest file when a result changes on purpose.
"""

import json

import pytest

import golden


@pytest.fixture(scope="module")
def stored():
    return json.loads(golden.DIGEST_FILE.read_text())


@pytest.fixture(scope="module")
def fresh():
    return golden.compute()


def _platform_note(stored):
    return (
        f"digests taken with {stored['platform']}, running on {golden.platform()}; "
        "rewrite them with tests/golden.py only for a declared result change"
    )


@pytest.mark.parametrize("name", sorted(golden.CASES))
def test_cli_artifacts_and_stdout(name, stored, fresh):
    assert fresh["cases"][name] == stored["cases"][name], _platform_note(stored)


def test_library_values(stored, fresh):
    assert fresh["library"] == stored["library"], _platform_note(stored)


def test_every_case_is_stored(stored):
    assert sorted(stored["cases"]) == sorted(golden.CASES)
