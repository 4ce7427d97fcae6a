"""Run the steps of the CI workflow here, under the shells a runner uses.

    python tools/ci_local.py

Each ``run:`` step of ``.github/workflows/tier1.yml`` runs from the root
of this checkout, in order, under the shell GitHub Actions selects for it
on Linux: ``bash -e {0}`` when the step names none, and ``bash
--noprofile --norc -eo pipefail {0}`` under ``shell: bash``.  So a
pipeline whose status needs pipefail fails here as it fails on a runner.
The first failing step ends the run, as it ends a job, and the script
exits with that step's status.

What a runner provides is stood in for: ``RUNNER_TEMP`` is a temporary
directory and ``GITHUB_STEP_SUMMARY`` a file in it; ``src/`` is on
``PYTHONPATH`` in place of ``pip install -e .``; and ``python`` and a
``fit`` console script (``tlsfit.cli:entry``), both this interpreter, come
first on ``PATH``.  The matrix is not expanded: the steps run once, on
this interpreter and its numpy.  Skipped: the Install step, ``uses:``
steps (checkout, setup-python) and steps that run only on pull requests.
Any other ``if:``, another shell, a ``${{ }}`` expression in a step that
runs, or a key this script does not follow (``env:``, ``defaults:``,
``working-directory:``, ...) is an error, not a silent pass.
"""
from __future__ import annotations

import os
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parents[1]
SHELLS = {None: "bash -e {0}",
          "bash": "bash --noprofile --norc -eo pipefail {0}"}
# The keys followed.  The matrix and the triggers (``on``, which YAML 1.1
# reads as True) need nothing here: the steps run once.
WORKFLOW_KEYS = {True, "name", "jobs"}
JOB_KEYS = {"runs-on", "timeout-minutes", "strategy", "steps"}
STEP_KEYS = {"name", "run", "shell"}  # of a step that runs


def skip_reason(step: dict) -> str | None:
    """Why ``step`` does not run here, or None when it does."""
    if "uses" in step:
        return "an action"
    if step.get("name") == "Install":
        return "src/ is on PYTHONPATH instead"
    condition = step.get("if")
    if condition is None:
        return None
    if "pull_request" in condition:
        return "pull requests only"
    raise SystemExit(f"ci_local: cannot evaluate if: {condition!r}")


def shims(directory: Path) -> None:
    """``python`` and ``fit`` in ``directory``, both this interpreter."""
    python = shlex.quote(sys.executable)
    for name, line in (
            ("python", f'exec {python} "$@"'),
            ("fit", f"exec {python} -c 'import sys; from tlsfit.cli import "
                    f"entry; sys.exit(entry())' \"$@\"")):
        script = directory / name
        script.write_text(f"#!/bin/sh\n{line}\n")
        script.chmod(0o755)


def check_keys(keys, followed: set, what: str) -> None:
    """Stop on a key of ``what`` that this script does not follow."""
    extra = sorted(map(str, set(keys) - followed))
    if extra:
        raise SystemExit(f"ci_local: cannot follow {extra} of {what}")


def main() -> int:
    path = ROOT / ".github/workflows/tier1.yml"
    workflow = yaml.safe_load(path.read_text())
    check_keys(workflow, WORKFLOW_KEYS, path.name)
    with tempfile.TemporaryDirectory(prefix="ci_local-") as temp:
        temp = Path(temp)
        (temp / "bin").mkdir()
        (temp / "runner").mkdir()
        shims(temp / "bin")
        env = dict(
            os.environ, RUNNER_TEMP=str(temp / "runner"),
            GITHUB_STEP_SUMMARY=str(temp / "summary.md"),
            PATH=os.pathsep.join([str(temp / "bin"), os.environ["PATH"]]),
            PYTHONPATH=os.pathsep.join(filter(None, [
                str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        for job_name, job in workflow["jobs"].items():
            check_keys(job, JOB_KEYS, f"job {job_name}")
            for number, step in enumerate(job["steps"]):
                name = (step.get("name") or step.get("uses")
                        or step["run"].splitlines()[0])
                reason = skip_reason(step)
                if reason:
                    print(f"ci_local: skip {name} ({reason})", flush=True)
                    continue
                check_keys(step, STEP_KEYS, f"step {name!r}")
                if step.get("shell") not in SHELLS or "${{" in step["run"]:
                    raise SystemExit(f"ci_local: cannot run step {name!r}: "
                                     "its shell or an expression")
                script = temp / "runner" / f"step{number}.sh"
                script.write_text(step["run"])
                command = [word.replace("{0}", str(script)) for word in
                           shlex.split(SHELLS[step.get("shell")])]
                print(f"ci_local: run {name} ({' '.join(command[:-1])})",
                      flush=True)
                start = time.perf_counter()
                code = subprocess.run(command, cwd=ROOT, env=env).returncode
                elapsed = time.perf_counter() - start
                print(f"ci_local: {name}: exit {code} in {elapsed:.1f} s",
                      flush=True)
                if code:
                    return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
