"""The fixture corpus is reproducible: ``fixtures/make_corpus.py`` rewrites it."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "fixtures" / "corpus"


def tree(directory: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(directory)): p.read_bytes()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


def test_make_corpus_rewrites_the_fixture_corpus_byte_for_byte(tmp_path):
    # run from a copy, so the script writes its corpus under tmp_path
    script = shutil.copy(ROOT / "fixtures" / "make_corpus.py", tmp_path)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, script], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    written, committed = tree(tmp_path / "corpus"), tree(CORPUS)
    assert sorted(written) == sorted(committed)
    for name, data in committed.items():
        assert written[name] == data, name
