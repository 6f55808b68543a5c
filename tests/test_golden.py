"""Byte-identical CLI output on the shipped scenarios.

The sha256 of stdout (and of the CSV, for ``simulate``) of every verb on
every shipped scenario it accepts, plus the ``reproduce`` and ``family``
reports. A refactor that changes one printed digit fails here; a change
that means to alter the output must update the hash and say why.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from harmonia.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"

STDOUT_SHA256 = {
    ("cc-check", "lagrange_newtonian.json"):
        "edd47d90dd27230e080a3756b747634bfca67b5e85d5d92010710dd7f8b1146e",
    ("cc-check", "theorem2_rhombus.json"):
        "1ee7c9f43830741ee5fdccbab2204bd8d37b020616a59dc72ff425e49c737dfa",
    ("cc-check", "two_body_harmonic.json"):
        "85d4fbbf3c5a35a04f03bf6d856940c7969824bb814c722aceac0cf2a9b764a0",
    ("cc-refine", "lagrange_newtonian.json"):
        "5f6c0a876a6ebf55d74fd4b27ccc25aa5e380d905e6320823d3a8d04342d8c4b",
    ("cc-refine", "theorem2_rhombus.json"):
        "143ed4e9318c3aee70e5967f7cfd94708ee5871780052f4041545ed6e146634d",
    ("cc-refine", "two_body_harmonic.json"):
        "0c7e58870bf15d5ce4fb17cab571189cd2414c6fd94451de52939609056aba17",
    ("saari", "theorem2_rhombus.json"):
        "a12844e1171820473c1ce6d45541605e5c9358d57f6c0736bf98d8227aec9a2c",
    ("saari", "two_body_harmonic.json"):
        "367b984b2138ebf72ac4bd9bc59a341cfec81ee02233cd2eccb177a96e86bebd",
    ("simulate", "theorem2_rhombus.json"):
        "ec76adc575e4e329f964698ea0190cf0370f8eace5f943c2a25fc246538300c9",
    ("simulate", "two_body_harmonic.json"):
        "474804fd0824831d25eed84a85616f87298bf5912df346824acbb47321154228",
    ("reproduce", "theorem1"):
        "fea9c32592f70b6cbd4eca89fd5e36393d8be8f846622aa88e97625d355c8f96",
    ("reproduce", "theorem2"):
        "8e176af1c0cf64714c4ac7e0471eaec2606c039f69f0faba80d65b1ff6189c87",
    ("family", "--k 1 --samples 128"):
        "8f30f791d361ede8e7008c2548b36c4a5a9c0853a9615166fc77b93f77fb066c",
}

CSV_SHA256 = {
    "theorem2_rhombus.json":
        "59c2837fc5249dea3ac5d3e21b72898e8060b5bf85c42c2d3ab9a2056edb28a2",
    "two_body_harmonic.json":
        "18894d650766a5bc95d91547c23484cc91035b33d81ba8a6c855623e140fafef",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def argv_for(verb, subject, tmp_path):
    if verb == "reproduce":
        return [verb, subject]
    if verb == "family":
        return [verb, *subject.split()]
    argv = [verb, str(SCENARIOS / subject)]
    if verb == "cc-refine":
        argv += ["--k", "1"]
    if verb == "simulate":
        argv += ["--out", str(tmp_path / "out.csv")]
    return argv


@pytest.mark.parametrize("verb, subject", sorted(STDOUT_SHA256),
                         ids=[" ".join(key) for key in sorted(STDOUT_SHA256)])
def test_stdout_is_byte_identical(tmp_path, capsys, verb, subject):
    code = main(argv_for(verb, subject, tmp_path))
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert sha256(out.encode()) == STDOUT_SHA256[verb, subject]
    if verb == "simulate":
        assert sha256((tmp_path / "out.csv").read_bytes()) == CSV_SHA256[subject]


def test_module_entry_point_is_byte_identical():
    # the real process: interpreter start-up, ``python -m`` and sys.exit(main())
    proc = subprocess.run([sys.executable, "-m", "harmonia.cli", "reproduce", "theorem2"],
                          cwd=ROOT, env=dict(os.environ, PYTHONPATH="src"),
                          capture_output=True, timeout=300)
    assert proc.returncode == EXIT_OK, proc.stderr.decode()
    assert proc.stderr == b""
    assert sha256(proc.stdout) == STDOUT_SHA256["reproduce", "theorem2"]
