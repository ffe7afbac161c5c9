"""Build and load the compiled CDCL core (``_cdcl.c``).

The extension is compiled with the interpreter's own C compiler and
headers (``sysconfig``: ``CC``, the include directory, ``EXT_SUFFIX``)
the first time :mod:`repro.sat.solver` is imported, and cached next to
the source in ``__pycache__`` under a name keyed by a hash of the C
source, the ABI tag and the compile flags; a changed source, another
interpreter or other flags build a new object.  The object is written
to a temporary name and renamed into place, so concurrent first imports
never load a half-written file.

:func:`load` raises on any failure; :mod:`repro.sat.solver` turns that
into one ``RuntimeWarning`` and the Python core.
"""

import hashlib
import importlib.util
import os
import shlex
import subprocess
import sys
import sysconfig

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.join(HERE, "_cdcl.c")
CACHE = os.path.join(HERE, "__pycache__")

#: Doubles must round exactly like Python floats: no fused multiply-add
#: contraction, no fast-math.
FLAGS = ["-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-strict-aliasing"]
if sys.platform == "darwin":
    FLAGS += ["-undefined", "dynamic_lookup"]


def _build(command, target):
    tmp = "%s.%d.tmp" % (target, os.getpid())
    try:
        done = subprocess.run(command + ["-o", tmp], capture_output=True,
                              text=True)
        if done.returncode != 0:
            raise RuntimeError("%s failed: %s" % (
                command[0], done.stderr.strip()[-2000:] or done.returncode))
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load():
    """Return the compiled ``_cdcl`` module, building it if needed."""
    with open(SOURCE, "rb") as handle:
        source = handle.read()
    config = sysconfig.get_config_vars()
    command = shlex.split(config.get("CC") or "cc") + FLAGS + [
        "-I", sysconfig.get_path("include"), SOURCE]
    suffix = config.get("EXT_SUFFIX") or ".so"
    key = hashlib.sha256(b"\0".join(
        [source, " ".join(command).encode(), suffix.encode(),
         sys.implementation.cache_tag.encode()])).hexdigest()[:16]
    target = os.path.join(CACHE, "_cdcl-%s%s" % (key, suffix))
    if not os.path.exists(target):
        os.makedirs(CACHE, exist_ok=True)
        _build(command, target)
    spec = importlib.util.spec_from_file_location("repro.sat._cdcl", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
