"""What the simulate path imports, checked in fresh interpreters.

`import uavtrack.campaign` loads numpy, scipy's top-level package and
scipy's compiled LAPACK module, and not scipy.linalg, whose package init
would load about 300 more modules. Campaign workers are forked from the
parent, so everything a unit of work needs must already be loaded there:
a worker that imports a module pays for it on every pass.
"""

import os
import subprocess
import sys
import textwrap

from uavtrack import campaign
from uavtrack.blas import openblas_pools

# this process has loaded the simulate path too, so its pools are the yardstick
SRC = os.path.dirname(os.path.dirname(os.path.abspath(campaign.__file__)))


def _fresh(script: str) -> str:
    """stdout of a new interpreter running `script` on this checkout's package."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)], capture_output=True, text=True, env=env
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_campaign_import_loads_lapack_without_scipy_linalg():
    out = _fresh(
        """
        import sys
        import uavtrack.campaign
        from uavtrack import gpr
        from uavtrack.blas import one_blas_thread, openblas_pools

        print("scipy.linalg" in sys.modules, "scipy.linalg._flapack" in sys.modules)
        with one_blas_thread():
            print([pool.get() for pool in openblas_pools()])
        import scipy.linalg.lapack as lapack

        names = ("dpotrf", "dpotrs", "dtrtri", "dtrtrs")
        print(all(getattr(gpr, f) is getattr(lapack, f) for f in names))
        """
    )
    loaded, counts, same = out.splitlines()
    # neither scipy.linalg nor a stray entry for the module gpr loaded itself
    assert loaded == "False False"
    # scipy's OpenBLAS is mapped as in this process, and is set to one thread
    assert counts == repr([1] * len(openblas_pools()))
    # gpr calls the routines scipy.linalg.lapack exports, not copies of them
    assert same == "True"


def test_forked_worker_imports_nothing():
    # a parent that has run one forked campaign forks once more, as
    # run_campaign does, and the child runs an all-scheme unit whose SNR and
    # phase-bit points reach every branch of the pilot schemes
    out = _fresh(
        """
        import os
        import sys
        from uavtrack import campaign
        from uavtrack.blas import one_blas_thread
        from uavtrack.config import SCHEMES, ScenarioConfig

        cfg = ScenarioConfig(
            run_trials=1,
            run_blocks=5,
            run_schemes=SCHEMES,
            link_snr_db=(-5.0, 10.0),
            estimator_phase_bits=(4, 6, 7),
        )
        campaign._worker_count = lambda units: min(2, units)  # fork on any CPU count
        campaign.run_campaign(cfg.override(run_trials=2, run_blocks=1))
        before = set(sys.modules)
        r, w = os.pipe()
        with one_blas_thread():
            pid = os.fork()
            if pid == 0:
                try:
                    campaign._unit_rows(cfg, 0, range(cfg.run_blocks))
                    os.write(w, repr(sorted(set(sys.modules) - before)).encode())
                finally:
                    os._exit(0)
        os.close(w)
        with os.fdopen(r) as f:
            print(f.read())
        os.waitpid(pid, 0)
        """
    )
    assert out.strip() == "[]"
