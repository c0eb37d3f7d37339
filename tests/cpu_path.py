"""Which of numpy's x86 loops run float64 ``exp`` and ``log`` in this process.

A few pinned digests depend on it.  numpy's AVX-512 loops (its ``X86_V4``
dispatch target) and its other x86 loops round some results 1-2 ulp apart,
so those digests are pinned once for each.  ARM paths are unverified.
"""

import platform

from numpy._core._multiarray_umath import __cpu_features__

# switches a child's numpy to its non-AVX-512 loops on an x86 host that has them
NON_AVX512 = "X86_V4 AVX512_SKX AVX512_CLX AVX512_CNL AVX512_ICL AVX512_SPR"

X86 = platform.machine() in ("x86_64", "AMD64")
OFF_AVX512 = X86 and not __cpu_features__.get("X86_V4", False)
