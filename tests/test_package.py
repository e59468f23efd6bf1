import os
import subprocess
import sys
import types

import linksig


def test_all_lists_exactly_the_public_bindings():
    for name in linksig.__all__:  # each is bound on first access
        getattr(linksig, name)
    public = {
        name
        for name, value in vars(linksig).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(linksig.__all__) == len(set(linksig.__all__))
    assert set(linksig.__all__) == public
    for name in linksig.__all__:
        assert hasattr(linksig, name)


def run_fresh(code):
    """stdout of ``code`` in a fresh interpreter that imports this linksig."""
    home = os.path.dirname(os.path.dirname(linksig.__file__))
    path = os.pathsep.join(filter(None, [home, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
    return done.stdout


def test_bound_commands_and_the_catalog_gate_load_no_numpy():
    out = run_fresh(
        "import sys\n"
        "import linksig\n"
        "from linksig import catalog, cli\n"
        "cli.main(['bound', 'split-lt', 'L9a29'])\n"
        "cli.main(['bound', 'linking', '--lk', '1'])\n"
        "catalog.self_check()\n"
        "print('numpy' in sys.modules, catalog._validated.cache_info().currsize)\n"
    )
    assert out == (
        "name=L9a29 formula=split-lt value=3 omega=1/2,1/2 total_lk=-1 lk_parity=odd\n"
        "formula=linking value=1 total_lk=1 lk_parity=odd\n"
        "False 0\n"
    )


def test_sig_imports_numpy_when_it_runs():
    out = run_fresh(
        "import sys\n"
        "from linksig import cli\n"
        "cli.main(['sig', 'C(4,3,2)', '--omega', '1/2,1/2'])\n"
        "print('numpy' in sys.modules)\n"
    )
    assert out == "sigma=-2 eta=0\nTrue\n"
