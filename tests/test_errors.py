"""`errors.read_text` and `errors.read_json`: the one reader of files from
outside the process."""

import re
from pathlib import Path

import pytest

import ecgrecon
from ecgrecon.errors import ConfigError, DataError, read_json


def test_only_errors_reads_text_or_json():
    calls = re.compile(r"\.read_text\(|json\.loads?\(")
    package = Path(ecgrecon.__file__).parent
    found = [f"{path.name}:{n}" for path in sorted(package.glob("*.py"))
             if path.name != "errors.py"
             for n, line in enumerate(path.read_text().splitlines(), 1)
             if calls.search(line)]
    assert found == []


@pytest.mark.parametrize("content", [
    pytest.param(None, id="missing"),
    pytest.param(b"\xff{}", id="not-utf8"),
    pytest.param(b"{", id="not-json"),
    pytest.param(b"[]", id="list-not-object"),
])
@pytest.mark.parametrize("error", [ConfigError, DataError])
def test_read_json_raises_callers_error_naming_file(tmp_path, content, error):
    path = tmp_path / "in.json"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(error, match=re.escape(str(path))):
        read_json(path, dict, error)


def test_read_json_directory(tmp_path):
    with pytest.raises(ConfigError, match=re.escape(str(tmp_path))):
        read_json(tmp_path, dict, ConfigError)
