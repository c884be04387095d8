from setuptools import Extension, setup

# optional: a host without a C compiler installs the pure-Python kernel only.
setup(
    ext_modules=[
        Extension("qexpand._cdcl", ["src/qexpand/_cdcl.c"], optional=True),
    ]
)
