"""Build the C SAT kernel for the test run when a C compiler is present.

The extension is compiled from src/qexpand/_cdcl.c into a temporary
directory and registered as qexpand._cdcl before qexpand.sat is
imported, so the suite runs every kernel-parametrised test on both
kernels.  Nothing is written under src/, so outside the test run a
checkout keeps the pure kernel.  Without setuptools, a compiler or the
Python headers the suite runs on the pure kernel alone.
"""

import importlib.util
import os
import sys
import tempfile

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "src", "qexpand", "_cdcl.c")


def _build_and_register():
    """Return None once qexpand._cdcl is registered, else why it is not."""
    try:
        from setuptools import Distribution, Extension
        from setuptools.errors import CCompilerError, ExecError, PlatformError
    except ImportError as e:
        return "no setuptools: %s" % e
    with tempfile.TemporaryDirectory(prefix="qexpand-kernel-", ignore_cleanup_errors=True) as tmp:
        dist = Distribution({"ext_modules": [Extension("qexpand._cdcl", [SOURCE])]})
        cmd = dist.get_command_obj("build_ext")
        cmd.build_lib = cmd.build_temp = tmp
        cmd.ensure_finalized()
        try:
            cmd.run()
        except (CCompilerError, ExecError, PlatformError) as e:
            return "cannot build %s: %s" % (SOURCE, e)
        spec = importlib.util.spec_from_file_location(
            "qexpand._cdcl", cmd.get_ext_fullpath("qexpand._cdcl")
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules["qexpand._cdcl"] = module
    return None


_not_built = _build_and_register()


def pytest_report_header(config):
    if _not_built:
        return "qexpand kernels: pure only (%s)" % _not_built
    return "qexpand kernels: pure and compiled (built from %s)" % SOURCE
