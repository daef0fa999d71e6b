"""Exact combinatorics of parking sequences for cars of different sizes.

Simulation of the parking rule on linear and circular lots, closed-form
counts, the movable-divider decoder and exactly-uniform samplers, and a
brute-force verification oracle.

`import parkseq` loads no layer. Each public name is read from the module
that defines it, at every read (PEP 562), and the first read imports that
module and the layers it imports: `parkseq.SizeVector` loads
`parkseq.core` and nothing else. No value is kept here, so a function
patched where it is defined (`parkseq.bruteforce.verify`) is what
`parkseq.verify` gives.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the module that defines it, in `__all__` order.
_HOME = {
    "BudgetExceededError": "parkseq.bruteforce",
    "CarOption": "parkseq.divider",
    "Collision": "parkseq.core",
    "Cruise": "parkseq.divider",
    "Direct": "parkseq.divider",
    "EnumerationReport": "parkseq.bruteforce",
    "Layout": "parkseq.core",
    "OptionSequence": "parkseq.divider",
    "Parked": "parkseq.core",
    "ParkResult": "parkseq.core",
    "PastEnd": "parkseq.core",
    "PrefSequence": "parkseq.core",
    "SizeVector": "parkseq.core",
    "compositions": "parkseq.bruteforce",
    "count_circular": "parkseq.counting",
    "count_classical": "parkseq.counting",
    "count_linear": "parkseq.counting",
    "decode": "parkseq.divider",
    "empty_spot": "parkseq.circular",
    "enumerate_option_sequences": "parkseq.divider",
    "enumerate_parking_sequences": "parkseq.bruteforce",
    "is_classical_parking_function": "parkseq.core",
    "is_parking_sequence": "parkseq.core",
    "option_count": "parkseq.counting",
    "options_for_car": "parkseq.divider",
    "restrict_to_linear": "parkseq.circular",
    "rotate": "parkseq.circular",
    "sample_circular": "parkseq.divider",
    "sample_linear": "parkseq.divider",
    "simulate_circular": "parkseq.circular",
    "simulate_linear": "parkseq.core",
    "verify": "parkseq.bruteforce",
    "verify_sweep": "parkseq.bruteforce",
    "wrap_spot": "parkseq.circular",
}

__all__ = list(_HOME)

# The layers, each readable as an attribute; `cli` is not one, so
# `parkseq.cli` needs `import parkseq.cli`.
_SUBMODULES = frozenset(home.rpartition(".")[2] for home in _HOME.values())

# The module of each public name read so far, stored once
# `importlib.import_module` has returned it: a read then costs about
# 0.5 us, against 1 us through `import_module`, which callers that build
# thousands of objects through `parkseq.SizeVector` pay per object.
_READ: dict[str, object] = {}


def __getattr__(name: str) -> object:
    """The public `name` from its module, imported on the first read, or
    the submodule `name`; reached only for names this module lacks.

    `importlib.import_module` waits on a module's lock while another thread
    is still running its body, so no read sees a half-built layer.
    """
    try:
        return getattr(_READ[name], name)
    except KeyError:
        pass
    if name in _HOME:
        module = _READ[name] = importlib.import_module(_HOME[name])
        return getattr(module, name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
