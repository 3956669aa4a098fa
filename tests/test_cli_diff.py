"""The CLI comparison tool (tools/cli_diff.py), run on this checkout.

Its servers must run the plethax of the root they are given and no other,
so a checkout without `src/plethax` fails the comparison instead of
replaying an installed plethax against itself.
"""

import importlib.util
import site
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
VERIFY = ["verify", "--mu", "1", "--r", "2", "--m", "1", "--N", "3", "--mode", "process"]


def load_cli_diff():
    spec = importlib.util.spec_from_file_location("cli_diff", ROOT / "tools" / "cli_diff.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outcomes_report_passing_and_failing_verifies():
    reqs = [("verify", None, VERIFY), ("verify", "flip-first-sign", VERIFY)]
    codes = [code for code, _, _ in load_cli_diff().outcomes(ROOT, reqs)]
    assert codes == [0, 2]


@pytest.mark.skipif(not site.ENABLE_USER_SITE, reason="this interpreter reads no user site")
def test_outcomes_ignore_a_plethax_on_the_user_site(tmp_path, monkeypatch):
    userbase = tmp_path / "userbase"
    user_site = Path(
        sysconfig.get_path(
            "purelib", sysconfig.get_preferred_scheme("user"), vars={"userbase": str(userbase)}
        )
    )
    user_site.mkdir(parents=True)
    (user_site / "plethax.pth").write_text(f"{ROOT / 'src'}\n")
    monkeypatch.setenv("PYTHONUSERBASE", str(userbase))
    monkeypatch.delenv("PYTHONPATH", raising=False)
    # Without -S the user site makes this checkout's plethax importable.
    subprocess.run([sys.executable, "-c", "import plethax"], cwd=tmp_path, check=True)
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(subprocess.CalledProcessError):
        load_cli_diff().outcomes(empty, [("verify", None, VERIFY)])
