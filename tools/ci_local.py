"""Run the `run:` steps of .github/workflows/tests.yml in order, each with
`bash -e`, in one temporary `git archive` copy of the tracked files (with
their uncommitted changes), and print one line per step. A package install is
skipped: the steps use this Python and its packages. Exits 1 if a step fails.

    python3 tools/ci_local.py
"""
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    tree = subprocess.run(["git", "stash", "create"], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip() or "HEAD"
    archive = subprocess.run(["git", "archive", tree], cwd=ROOT, capture_output=True,
                             check=True).stdout
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tests.yml").read_text())
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PATH"] = f"{Path(sys.executable).parent}{os.pathsep}{env['PATH']}"
    failed = 0
    with tempfile.TemporaryDirectory() as work:
        subprocess.run(["tar", "-x", "-C", work], input=archive, check=True)
        for step in workflow["jobs"]["tier1"]["steps"]:
            if "run" not in step:
                continue
            if "pip install" in step["run"]:
                print(f"skip  {step['name']}", flush=True)
                continue
            run = subprocess.run(["bash", "-e", "-c", step["run"]], cwd=work, env=env,
                                 capture_output=True, text=True)
            failed += run.returncode != 0
            print(f"{'FAIL' if run.returncode else 'pass'}  {step['name']}", flush=True)
            if run.returncode:
                print(run.stdout[-2000:] + run.stderr[-2000:], flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
