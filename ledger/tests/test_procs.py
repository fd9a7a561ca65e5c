"""Nothing the run starts may outlive it, orphaned grandchildren included."""

import os
import subprocess
import sys
import textwrap

from ledger import procs

# the child leaves a grandchild behind and exits at once, as ``jem map
# --backend process`` leaves its multiprocessing resource tracker
_ORPHANING_RUN = textwrap.dedent("""
    import subprocess, sys
    sys.path.insert(0, {root!r})
    from ledger import procs

    procs.adopt_orphans()
    subprocess.run([sys.executable, "-c",
        "import subprocess, sys;"
        "print(subprocess.Popen([sys.executable, '-c', {grandchild!r}]).pid, flush=True)"])
    print("killed" if procs.reap_descendants(grace_s={grace}) else "ended", flush=True)
""")


def _run(grandchild: str, grace: float) -> tuple[int, str]:
    script = _ORPHANING_RUN.format(root=procs.REPO_ROOT, grandchild=grandchild, grace=grace)
    done = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    pid, verdict = done.stdout.split()
    return int(pid), verdict


def test_an_orphan_that_ends_by_itself_is_waited_for():
    pid, verdict = _run("import time; time.sleep(0.3)", grace=10.0)
    assert verdict == "ended"
    assert not os.path.exists(f"/proc/{pid}")


def test_an_orphan_that_stays_is_killed_after_the_grace():
    pid, verdict = _run("import time; time.sleep(600)", grace=0.2)
    assert verdict == "killed"
    assert not os.path.exists(f"/proc/{pid}")
