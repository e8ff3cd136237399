"""The command line for callers in the same process, with every layer loaded.

``python -m evolink`` runs ``commands``, which loads a layer only in the
command that runs it. Importing this module instead loads every layer that
``perfbench/tracer.py`` times (``ingest``, ``ekg``, ``embed``, ``weights``,
``pipeline``, ``model_io``), and gives ``main`` and the three commands the
tracer times. The tracer runs ``from evolink import cli``, then wraps each
timed function at every attribute that holds it, in the evolink modules
loaded by then; a layer not yet loaded would be reported absent. The
commands call their layers by module attribute when they run, so they call
the wrappers. Every other name of ``commands`` is imported from there.
"""

from . import ekg, embed, ingest, model_io, pipeline, weights  # noqa: F401
from .commands import cmd_evaluate, cmd_predict, cmd_train, main  # noqa: F401
