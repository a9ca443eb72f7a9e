"""Every function in ``src/repro`` is named by something other than
itself, and by something other than the tests; every default-valued
parameter is set by something other than the tests.

A function or method that nothing names — no call, no attribute, no
handler string in a ``Leg`` table, no ``getattr`` key — cannot run, so
it is dead code that tests, reviews and refactors still pay for.  One
that only ``tests/`` names runs only for its tests, and an option only
``tests/`` sets is a constant everywhere else: both keep the harness
inside the system it measures.

The checks are by name.  A reference inside the function's own body
does not count, and neither does a re-export (an ``import`` line, an
``__all__`` string or a ``lazy_exports`` table); a name imported under
an alias counts wherever the alias is used.  A parameter counts as set
by a call (by keyword, by position, or through ``*args`` / ``**kwargs``)
to any function of its name — for ``__init__``, the class's name, a
subclass's, or any ``__init__`` call, since ``super()`` is not resolved —
by a call through a name assigned from it (``reject_sap = Amf.reject``),
and by a function handed on with trailing positional arguments, as
``sim.schedule(delay, fn, arg)`` does.  Dunder methods are called by the
language and are skipped, ``__init__`` aside.

What must stay although only tests reach it goes in an exemption table
with its class (``EXEMPTION_CLASSES``) and reason.
"""

import ast
import collections
import functools
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
#: the non-test callers: what the package, its benchmarks and its
#: examples run.
CALLERS = ("src", "benchmarks", "examples")
SEARCHED = CALLERS + ("tests",)

SAFETY = "safety"
REFERENCE = "reference"
ISOLATION = "test isolation"
LEAK_PROBE = "leak probe"
PAPER = "paper feature"
#: why something may stay although only tests reach it.
EXEMPTION_CLASSES = {
    SAFETY: "a bound or check that guards a run: no correct run sets or "
            "trips it, a test must",
    REFERENCE: "the slow, obvious form that a test compares the fast "
               "one against",
    ISOLATION: "resets or replaces process-global state so that tests "
               "do not see each other",
    LEAK_PROBE: "a count a tier-1 invariant reads to prove per-attach "
                "state is released",
    PAPER: "a paper feature that the named ROADMAP item gives a caller",
}

#: ``module::qualname`` -> (class, reason): named by nothing at all.
UNREFERENCED = {
    "core/broker.py::Brokerd.archive_settled": (
        PAPER, "the billing archive chain (Fig 5's settled ledgers); "
        "wiring it into a run moves the smoke JSON, so ROADMAP item 6 "
        "(the billing economy) gives it its caller"),
}

#: ``module::qualname`` -> (class, reason): named only by tests.
TEST_ONLY = {
    "core/billing.py::BillingVerifier.audit": (
        PAPER, "billing archive chain: reads back archive_settled's "
        "record (ROADMAP item 6)"),
    "core/billing.py::BillingVerifier.audit_subscriber": (
        PAPER, "billing archive chain: a subscriber's settled history "
        "(ROADMAP item 6)"),
    "core/broker.py::Brokerd.mandate_intercept": (
        PAPER, "lawful intercept (§5): a court order reaching the broker; "
        "ROADMAP item 6's adversary drills give it a caller"),
    "core/broker.py::Brokerd.lift_intercept": (
        PAPER, "lawful intercept (§5): the order's end (ROADMAP item 6)"),
    "core/intercept.py::LawfulInterceptFunction.active_count": (
        PAPER, "lawful intercept (§5): the bTelco's live taps "
        "(ROADMAP item 6)"),
    "core/intercept.py::LawfulInterceptFunction.deliver": (
        PAPER, "lawful intercept (§5): content delivery to the agency "
        "(ROADMAP item 6)"),
    "core/reputation.py::ReputationSystem.mismatch_count": (
        PAPER, "reputation queries (§4.3): ROADMAP item 6 measures the "
        "cut-off curve with them"),
    "core/reputation.py::ReputationSystem.ue_suspected": (
        PAPER, "reputation queries (§4.3): under-reporting UEs "
        "(ROADMAP item 6)"),
    "core/shardhost.py::ShardFrontend.remove_shard": (
        PAPER, "shard scale-in, the networked rebalance's other half: "
        "ROADMAP item 2(c) pins a rebalance in broker_failover and item "
        "5's state machine adds and removes shards"),
    "crypto/rsa.py::clear_verify_cache": (
        ISOLATION, "the verify cache is process-global; tests that count "
        "its hits start from empty"),
    "lte/bearer.py::SgwPgw.active_count": (
        LEAK_PROBE, "bearers still held after every UE detached"),
    "lte/enodeb.py::ENodeB.connected_ues": (
        LEAK_PROBE, "RAN contexts still held after every UE left"),
    "lte/security.py::SecurityContext.derive_kenb": (
        PAPER, "the AKA key hierarchy's K_eNB row (PAPERS.md cheatsheet); "
        "ROADMAP item 5 checks the hierarchy row by row"),
    "net/packet.py::AddressPool.allocated_count": (
        LEAK_PROBE, "UE addresses still leased after every release"),
    "ran/propagation.py::rsrp_dbm": (
        REFERENCE, "scalar path loss + shadowing that the RAN kernel's "
        "batched form must equal"),
    "testbed/traced_drive.py::run_traced_drive": (
        SAFETY, "the leg-decomposition check (DESIGN.md): its `pass` "
        "holds only if the legs sum to the root span and the root span "
        "equals the app-measured stall, on both RATs; test_fleet_obs "
        "asserts it and test_trace_pins pins its trace"),
}

#: ``module::qualname(param=)`` -> (class, reason): set only by tests.
TEST_SET = {
    "cli.py::main(argv=)": (
        ISOLATION, "sys.argv is process-global; tests pass their own"),
    "core/broker.py::Brokerd.enroll_subscriber(qos_plan=)": (
        PAPER, "a subscriber's QoS plan (§4.4); ROADMAP item 6's "
        "strategies enrol plans other than the default"),
    "core/btelco_core.py::SapServingCore.trust_broker(endpoint_ip=)": (
        PAPER, "one site serving several brokers (§3.1); ROADMAP item 4's "
        "federation gives it a second broker"),
    "core/intercept.py::LawfulInterceptFunction.deliver(session_id=)": (
        PAPER, "lawful intercept (§5; ROADMAP item 6)"),
    "crypto/ca.py::CertificateAuthority.issue(not_before=)": (
        SAFETY, "the validity window validate_certificate enforces; "
        "every deployment issues open-ended certificates"),
    "crypto/ca.py::CertificateAuthority.issue(not_after=)": (
        SAFETY, "the validity window validate_certificate enforces"),
    "crypto/kdf.py::hkdf(salt=)": (
        REFERENCE, "RFC 5869's test vectors set it; the tests compare "
        "hkdf against them"),
    "emulation/chaos.py::loss_burst(target=)": (
        PAPER, "fault schedules: ROADMAP item 5's generated schedules "
        "aim link loss at any link"),
    "emulation/chaos.py::partition(direction=)": (
        PAPER, "fault schedules: ROADMAP item 5 partitions any host in "
        "either direction"),
    "ran/propagation.py::rsrp_dbm(exponent=)": (
        REFERENCE, "the reference's model knobs, compared at non-default "
        "values"),
    "ran/propagation.py::rsrp_dbm(shadowing_db=)": (
        REFERENCE, "the reference's model knobs, compared at non-default "
        "values"),
    "testbed/megaload.py::_rss_bytes(platform=)": (
        ISOLATION, "sys.platform is process-global; tests read both "
        "branches"),
}


@functools.cache
def _trees(directories) -> list:
    trees = []
    for directory in directories:
        for path in sorted((ROOT / directory).rglob("*.py")):
            trees.append((path, ast.parse(path.read_text())))
    return trees


def _definitions():
    """``(module::qualname, name, node, class node)`` for every
    module-level function and every method of a module-level (or
    nested) class."""
    def visit(body, rel, prefix, cls):
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from visit(node.body, rel, f"{prefix}{node.name}.",
                                 node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f"{rel}::{prefix}{node.name}", node.name, node, cls

    for path, tree in _trees(SEARCHED):
        if SRC in path.parents:
            yield from visit(tree.body, path.relative_to(SRC).as_posix(),
                             "", None)


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


@functools.cache
def _names(tree) -> collections.Counter:
    """Every identifier ``tree`` names: variables, attributes, and
    identifier-shaped strings, minus re-export tables; a use of an
    import alias names the imported name too."""
    exported, aliases = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            exported.update(id(element) for element in ast.walk(node.value))
        elif isinstance(node, ast.Call) \
                and getattr(node.func, "id", None) == "lazy_exports":
            exported.update(id(element) for element in ast.walk(node))
        elif isinstance(node, ast.alias) and node.asname:
            aliases[node.asname] = node.name.rpartition(".")[2]
    names = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier() and id(node) not in exported:
            names[node.value] += 1
    for alias, name in aliases.items():
        names[name] += names[alias]
    return names


@functools.cache
def _unnamed(directories) -> dict:
    """Functions nothing in ``directories`` names outside their own
    body."""
    everywhere = collections.Counter()
    for _, tree in _trees(directories):
        everywhere.update(_names(tree))
    found = {}
    for key, name, node, _ in _definitions():
        if not _dunder(name) and everywhere[name] - _names(node)[name] <= 0:
            found[key] = node.lineno
    return found


def _callee(node):
    return node.id if isinstance(node, ast.Name) \
        else node.attr if isinstance(node, ast.Attribute) else None


@functools.cache
def _calls(directories) -> dict:
    """Callee name -> ``(positional args, keywords, spreads)`` of every
    call in ``directories``, plus one for each function handed on with
    trailing positional arguments; a call through a name bound by plain
    assignment (``reject_sap = Amf.reject``) calls what it names."""
    calls, aliases = collections.defaultdict(list), []
    for _, tree in _trees(directories):
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name) \
                    and _callee(node.value) is not None:
                aliases.append((node.targets[0].id, _callee(node.value)))
            if not isinstance(node, ast.Call):
                continue
            spread = any(isinstance(arg, ast.Starred) for arg in node.args) \
                or any(keyword.arg is None for keyword in node.keywords)
            calls[_callee(node.func)].append(
                (len(node.args), {keyword.arg for keyword in node.keywords},
                 spread))
            for index, arg in enumerate(node.args[:-1]):
                if _callee(arg) is not None:
                    calls[_callee(arg)].append(
                        (len(node.args) - index - 1, set(), spread))
    for alias, name in aliases:
        calls[name] += calls.get(alias, [])
    return calls


@functools.cache
def _constructors(name: str) -> tuple:
    """What calls ``name.__init__``: ``name``, every class in ``src``
    that derives from it, and any ``__init__`` call (``super()`` is not
    resolved, so every class's ``__init__`` shares those)."""
    bases = collections.defaultdict(set)
    for path, tree in _trees(SEARCHED):
        if SRC in path.parents:
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef):
                    bases[node.name].update(map(_callee, node.bases))
    found, grew = {name}, True
    while grew:
        grew = False
        for cls, parents in bases.items():
            if cls not in found and parents & found:
                found.add(cls)
                grew = True
    return tuple(sorted(found)) + ("__init__",)


@functools.cache
def _unset(directories) -> dict:
    """Default-valued parameters no call in ``directories`` sets."""
    calls = _calls(directories)
    found = {}
    for key, name, node, cls in _definitions():
        if _dunder(name) and name != "__init__":
            continue
        args = node.args
        bound = cls is not None and not any(
            getattr(decorator, "id", None) == "staticmethod"
            for decorator in node.decorator_list)
        positional = args.posonlyargs + args.args
        first_default = len(positional) - len(args.defaults)
        params = [(arg.arg, index - bound)
                  for index, arg in enumerate(positional)
                  if index >= first_default]
        params += [(arg.arg, None)
                   for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                   if default is not None]
        callees = _constructors(cls.name) \
            if name == "__init__" and cls is not None else (name,)
        sites = [site for callee in callees for site in calls.get(callee, ())]
        for param, index in params:
            if not any(param in keywords or spread
                       or (index is not None and count > index)
                       for count, keywords, spread in sites):
                found[f"{key}({param}=)"] = node.lineno
    return found


def test_every_function_is_named_by_something_else():
    stray = sorted(set(_unnamed(SEARCHED)) - set(UNREFERENCED))
    assert stray == [], (
        "defined but never named outside their own body: delete them, "
        "give them the caller the paper or a gate needs, or list them in "
        f"UNREFERENCED with the class and reason: {stray}")


def test_every_function_is_named_outside_tests():
    stray = sorted(set(_unnamed(CALLERS)) - set(UNREFERENCED)
                   - set(TEST_ONLY))
    assert stray == [], (
        "named only by tests: delete them with the tests that only test "
        "them, or list them in TEST_ONLY with the class and reason: "
        f"{stray}")


def test_every_default_is_set_outside_tests():
    stray = sorted(set(_unset(CALLERS)) - set(TEST_SET))
    assert stray == [], (
        "default-valued parameters no non-test caller sets: make them "
        "constants, delete them, or list them in TEST_SET with the class "
        f"and reason: {stray}")


def test_every_exemption_is_still_needed():
    assert sorted(set(UNREFERENCED) - set(_unnamed(SEARCHED))) == []
    assert sorted(set(TEST_ONLY) - set(_unnamed(CALLERS))) == []
    assert sorted(set(TEST_ONLY) & set(_unnamed(SEARCHED))) == []
    assert sorted(set(TEST_SET) - set(_unset(CALLERS))) == []


def test_every_exemption_states_its_class_and_reason():
    for table in (UNREFERENCED, TEST_ONLY, TEST_SET):
        for key, (cls, reason) in table.items():
            assert cls in EXEMPTION_CLASSES and reason.strip(), key
