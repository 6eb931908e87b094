"""ConVGPU core: scheduler, wrapper module, and the assembled middleware.

Import from the subpackages (``repro.core.scheduler``,
``repro.core.wrapper``, ``repro.core.middleware``): this package re-exports
nothing, so the scheduler daemon loads no wrapper or middleware code.
"""
