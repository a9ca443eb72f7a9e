"""CellBricks (SIGCOMM 2021) reproduction.

"Democratizing Cellular Access with CellBricks" proposes a cellular
architecture where users consume access on-demand from untrusted operators
of any scale, with authentication/billing refactored between the end host
and a broker (the SAP protocol), and mobility moved entirely into the host
(MPTCP subflow replacement).

Package map:

* :mod:`repro.core`      — the CellBricks contribution: SAP, brokerd, the
  bTelco AGW, verifiable billing, reputation, host-driven mobility.
* :mod:`repro.lte`       — the legacy LTE substrate: EPS-AKA, NAS, S6a,
  HSS, MME/AGW, eNodeB, UE (the baseline being compared against).
* :mod:`repro.net`       — discrete-event network simulator: links, token
  buckets, TCP (SACK), MPTCP, topologies.
* :mod:`repro.crypto`    — stdlib-only RSA/PKI/AEAD/KDF substrate.
* :mod:`repro.apps`      — ping / iperf / VoIP / HLS video / web workloads.
* :mod:`repro.testbed`   — §6.1 attachment-latency benchmark (Fig 7).
* :mod:`repro.emulation` — §6.2 drive emulation (Table 1, Fig 8-10).
* :mod:`repro.analysis`  — statistics and the E-model MOS.

Quickstart::

    from repro.net import Simulator
    from repro.core.mobility import build_cellbricks_network, MobilityManager

    sim = Simulator()
    network = build_cellbricks_network(sim)
    manager = MobilityManager(network)
    manager.start("btelco-a")
    sim.run(until=1.0)
    assert manager.ue.state == "ATTACHED"
"""

from importlib import import_module

__version__ = "1.0.0"

__all__ = ["__version__"]


def lazy_exports(namespace, modules, **aliases):
    """Install a package's exports as a lazy PEP 562 namespace.

    ``modules`` maps a module (relative to the package, or absolute) to
    the space-separated names it defines; ``aliases`` maps an exported
    name to ``(module, attribute)``, where ``attribute=None`` exports the
    module itself.  Together they form the package's one export table,
    ``namespace["_exports"]`` (name -> (module, attribute)), and
    ``__all__`` is its keys.  A name's defining module is imported on
    first access and the value is cached in the package, so a process
    loads only the modules whose names it uses.  An unknown name raises
    :class:`AttributeError` — which lets ``from pkg import submodule``
    fall through to the import system — and an :class:`ImportError` from
    the defining module propagates as itself.
    """
    package = namespace["__name__"]
    table = {name: (module, name)
             for module, names in modules.items() for name in names.split()}
    table.update(aliases)

    def __getattr__(name):
        try:
            module, attribute = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = import_module(module, package)
        if attribute is not None:
            value = getattr(value, attribute)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(namespace.keys() | table.keys())

    namespace.update(_exports=table, __all__=list(table),
                     __getattr__=__getattr__, __dir__=__dir__)
