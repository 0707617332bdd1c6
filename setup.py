"""Legacy shim so `pip install -e .` works without the `wheel` package.

The install is numpy-only.  The KERNELS registry's ``native`` backend
ships as C source (``repro/core/native/vc_kernels.c``, listed as package
data here) and is compiled on first use with the local C compiler, then
cached in ``$XDG_CACHE_HOME/repro``; without a compiler the backend is
unavailable and ``auto`` keeps the interpreted kernels.
"""
from setuptools import setup

setup(
    package_data={"repro.core.native": ["*.c"]},
)
