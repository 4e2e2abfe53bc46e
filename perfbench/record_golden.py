"""Record golden.json: the outputs the benchmark checks its ops against.

    python3 perfbench/record_golden.py

For each workload, runs the ops the golden file covers (every clear-fleet4
profile; the first ``golden_ops`` ops at the default seed otherwise) with
BLAS pinned to one thread, and writes their ``q_star``, ``g_star`` and,
for simulations, the trace CSV sha256.  Run it only on a commit whose
outputs are known good; the benchmark then fails any op that differs.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from storemkt import config  # noqa: E402


def record(wl) -> dict:
    setups = [config.load_setup(c) for c in wl.configs()]
    out = {}
    # a workload without golden_ops checks every seed by input, and its
    # first cycle of ops visits every input
    for k in range(wl.golden_ops or len(setups)):
        idx, extra = wl.op_input(k)
        result = wl.run(setups[idx], extra)
        wl.check(result, setups[idx], idx)
        out[wl.golden_key(k, idx)] = wl.summary(result)
    return out


def main() -> int:
    golden = {}
    for name, cls in workloads.WORKLOADS.items():
        golden[name] = record(cls(workloads.DEFAULT_SEED))
        print(f"{name}: {len(golden[name])} outputs recorded", flush=True)
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
