"""Every published number, pinned by the sha256 of the bytes that carry it.

The commands and demos print or write the paper's numbers: the five
experiments' artifacts, the table1 preset payments with their recommended
miss fine, the brute-force oracle's agreement table and each demo's
walkthrough.  A change that must move one of these hashes names it, with
its reason and its old and new value, in CHANGES.md.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import runpy
from pathlib import Path

import pytest

from storemkt.cli import main
from storemkt.experiments import SUITES

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _run(argv: list[str]) -> tuple[str, str]:
    """``main(argv)``'s stdout and stderr; the command must exit 0."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    assert status == 0, err.getvalue()
    return out.getvalue(), err.getvalue()


def experiment_digests(name: str, out_dir: Path) -> dict[str, str]:
    """sha256 of every file ``experiment name`` writes."""
    _run(["experiment", name, "--out", str(out_dir)])
    return {p.name: _sha(p.read_text()) for p in sorted(out_dir.iterdir())}


def payments_digests(n: int, out_dir: Path) -> dict[str, str]:
    """Per profile A-E of table1 with ``n`` EVs: sha256 of the payments
    CSV followed by the recommended-fine line.  Config warnings, which go
    to stderr once per process, are left out."""
    got = {}
    for profile in "ABCDE":
        csv = out_dir / f"n{n}{profile}.csv"
        _, err = _run(["payments", f"table1:n={n},profile={profile}", "--out", str(csv)])
        fine = [line for line in err.splitlines() if line.startswith("sampled")]
        got[profile] = _sha(csv.read_text() + "\n".join(fine))
    return got


def oracle_digest() -> str:
    return _sha(_run(["oracle", "--trials", "20", "--seed", "0"])[0])


def demo_digest(demo: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / demo), run_name="__main__")
    return _sha(out.getvalue())


EXPERIMENT_SHA256 = {
    "example1": {
        "example1_threshold.csv": "bcf5ef2e8b96254ecfac2a534978685941e24dd3ba3b570dcd9c2bd2704840ef",
        "report.json": "d3172250df2e197af8fd30702e66f60ac4d8f49252a831d0e12f5654e96cef89",
    },
    "fig2": {
        "fig2_qstar.csv": "ddf9a925efe911175d5936b9ab8b2740fda88a462c6ac6f91c8e6df0d4c90bc4",
        "report.json": "e5f366f6013b003e4a00b4ebf617c53e8bb04920712dab927f607b620ca06b9a",
    },
    "lemma-checks": {
        "lemma_checks.json": "e84f29db115d45bd5fc8fec186eda25c275c09fe17dc49c1d717b5a8f3b5b3a2",
        "report.json": "e84f29db115d45bd5fc8fec186eda25c275c09fe17dc49c1d717b5a8f3b5b3a2",
    },
    "table1": {
        "report.json": "a5ffd3df8b0f1f510d321891bfb9caee607cef28a291d17173bf989d31042282",
        "table1_payments.csv": "9aac6b9930f510400183f2a6b974dbeb24aa33c3a59d706a710313a66d1b37d8",
        "table1_solution.json": "8efde4b98ee21fcbfa51c5c6f92a01acfb5a5e18b992bd1cb1b691886774b60d",
    },
    "theorem1": {
        "report.json": "a46b2f28173e8258e010f94dd85893ccaae61d58ede6ac21a2c63292dadd7b75",
        "theorem1_report.json": "a46b2f28173e8258e010f94dd85893ccaae61d58ede6ac21a2c63292dadd7b75",
    },
}
# per profile: the CSV, then the recommended-fine line on stderr
PAYMENTS_SHA256 = {
    1: {
        "A": "c94188dd7b949eb0aaaed37f10c300d2babc48aa0aedef30cb486d2d5df14d2f",
        "B": "4d94cef7c90756705104e630af482d7db5871965a10b03c19bb35bb2eebd0367",
        "C": "c94188dd7b949eb0aaaed37f10c300d2babc48aa0aedef30cb486d2d5df14d2f",
        "D": "360b68256b6946c03151428dff1fb9e458398d5998b859876a95530e2245045c",
        "E": "360b68256b6946c03151428dff1fb9e458398d5998b859876a95530e2245045c",
    },
    2: {
        "A": "5b1e63a7ba0471c63050eafe3b45cd47c2772fcfa795aabdcdbbb75875d76979",
        "B": "47edf8893e963a0ed1090f3df68e88e108ca2adb6a593d6d901a6643d1ed5ce5",
        "C": "7144f8eec2765d07da64398aee4c1e18d2c1c155bec99a74583d48f25347a710",
        "D": "5b1e63a7ba0471c63050eafe3b45cd47c2772fcfa795aabdcdbbb75875d76979",
        "E": "5b1e63a7ba0471c63050eafe3b45cd47c2772fcfa795aabdcdbbb75875d76979",
    },
    3: {
        "A": "0b342b7ceb2f845d2ff540cf08884ca664d6f32a1b4c41154aef82e0fa6d23eb",
        "B": "8bd0cc1a0000233946e32c1a19d143519d1f85ce35009a8bf558072411fe8e3b",
        "C": "1600efb0eb4bfc04d8cfa03a5017d12c69e6f994d24e4f975d713ec6fc303be2",
        "D": "3baab6dc5d4d1b17805c6f7652ab94f0f96ab8d552367480c42e2dde9632f0d0",
        "E": "3baab6dc5d4d1b17805c6f7652ab94f0f96ab8d552367480c42e2dde9632f0d0",
    },
    4: {
        "A": "f58e723610cb5d4223d13d48399b7bda56bd640249d3c59d266638251afab2b3",
        "B": "cee20bd9cabce6455a100b89c2d669f59e248fa8b11a6651da42797d4ab1aa24",
        "C": "cc3f0542453a8d4ae13b7f9bfe905e139ed964f3b8a339b6d2b17695052f97a2",
        "D": "88448ac62759270a01f419f973998f7266c19f55b2fe09e11d77d419f4f66f8c",
        "E": "f58e723610cb5d4223d13d48399b7bda56bd640249d3c59d266638251afab2b3",
    },
}
ORACLE_SHA256 = "e6374a1d5ddfbeee1781d054109c28db718e4685b2ede480b8a3c206366897fc"
DEMO_SHA256 = {
    "01_deadline_distributions.py": "4270186a642bae4520023aef19703e71265aeeb75acefe3754157246a19c75a2",
    "02_two_slot_dispatch.py": "0f56b8cec01adb03d14d86f472f914c507fad0a515ce329eb00c2c662a3bc39a",
    "03_payments_five_slot.py": "8ef097c7ebafed57fa1a87a9caa3c93c229b3099f710ac0ee1126dbbdb93db0b",
    "04_market_days.py": "97893d5ba45d633c0d6941e1fa7f9e3f2088c778d92b1dd6d9bf133e40db216c",
    "05_incentive_checks.py": "9cb5a5b10579078bd2667b5b5f2535c242c4fafe3eaad90d67ef6ba031a876c8",
}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_experiment_artifacts_are_frozen(name, tmp_path):
    assert experiment_digests(name, tmp_path) == EXPERIMENT_SHA256[name]


@pytest.mark.parametrize("n", sorted(PAYMENTS_SHA256))
def test_table1_payments_are_frozen(n, tmp_path):
    assert payments_digests(n, tmp_path) == PAYMENTS_SHA256[n]


def test_oracle_table_is_frozen():
    assert oracle_digest() == ORACLE_SHA256


@pytest.mark.parametrize("demo", sorted(DEMO_SHA256))
def test_demo_stdout_is_frozen(demo):
    assert demo_digest(demo) == DEMO_SHA256[demo]
