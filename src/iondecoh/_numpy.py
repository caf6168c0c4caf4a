"""numpy, imported when code first reads one of its attributes.

densmat and vacuum take ``np`` from here, so importing them, and so the
package and its CLI, does not import numpy: of the subcommands only
``sim`` and ``bcs`` load it. Each ``np.<name>`` lookup runs a plain
``import numpy``, which holds the import lock the first time and is a
``sys.modules`` hit after that.
"""


class _Numpy:
    __slots__ = ()

    def __getattr__(self, name):
        import numpy

        return getattr(numpy, name)


np = _Numpy()
