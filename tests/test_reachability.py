"""Every function in ``src/repro`` is named by something other than
itself, and by something other than the tests; every default-valued
parameter is set by something other than the tests.

A function or method that nothing names — no call, no attribute, no
handler string in a ``Leg`` table, no ``getattr`` key — cannot run, so
it is dead code that tests, reviews and refactors still pay for.  One
that only ``tests/`` names runs only for its tests, and an option only
``tests/`` sets is a constant everywhere else: both keep the harness
inside the system it measures.

The checks are by name, so two methods of one name hide each other.  A
reference inside the function's own body does not count, and neither
does a re-export (an ``import`` line, an ``__all__`` string or a
``lazy_exports`` table); a name imported under an alias counts wherever
the alias is used.  A parameter counts as set by a call (by keyword, by
position, or through ``*args`` / ``**kwargs`` — but a function passing
on its own ``**`` parameter sets only what its callers gave it) to any
function of its name, by a call through a name bound to it (``reject_sap = Amf.reject``,
``on_accept=self._accept``, a record field), and by a function handed
on with trailing positional arguments, as ``sim.schedule(delay, fn,
arg)`` does.  Constructor calls are resolved (``_calls``):
``super().__init__`` follows the method resolution order, a subclass
call counts only for an ``__init__`` it inherits, and a call through a
table of classes counts for each.  Dunder methods are called by the
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
    "core/mobility.py::MobilityManager.__init__(enforce_qos=)": (
        PAPER, "the serving PGW policing to the broker's qosInfo AMBR "
        "(§4.1); it meets the plans enroll_subscriber(qos_plan=) enrols "
        "in ROADMAP item 6's strategies"),
    "core/reputation.py::ReputationSystem.__init__(acceptance_threshold=)": (
        PAPER, "the reputation cut-off the paper leaves to policy (§4.3); "
        "ROADMAP item 6 measures revenue against it"),
    "core/reputation.py::ReputationSystem.__init__(suspect_after=)": (
        PAPER, "the under-reporting-UE cut-off (§4.3); ROADMAP item 6's "
        "under-reporting strategy meets it"),
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
    "net/packet.py::AddressPool.__init__(first_host=)": (
        SAFETY, "the pool's bounds: no run exhausts a /24, a test of "
        "exhaustion must"),
    "net/packet.py::AddressPool.__init__(last_host=)": (
        SAFETY, "the pool's bounds: no run exhausts a /24, a test of "
        "exhaustion must"),
    "obs/trace.py::Tracer.__init__(capacity=)": (
        SAFETY, "the span ring's bound: no run fills it, a test of "
        "eviction must"),
    "ran/propagation.py::ShadowingField.__init__(seed=)": (
        REFERENCE, "the scalar shadowing the RAN kernel's normals must "
        "equal, seeded per (cell, UE) pair as the kernel is"),
    "ran/propagation.py::ShadowingField.__init__(sigma_db=)": (
        REFERENCE, "the scalar shadowing the RAN kernel's normals must "
        "equal, at each cell's sigma"),
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
def _trees(directories) -> tuple:
    """``(path relative to its directory, tree)`` for every file."""
    trees = []
    for directory in directories:
        for path in sorted((ROOT / directory).rglob("*.py")):
            rel = path.relative_to(SRC if directory == "src" else ROOT)
            trees.append((rel.as_posix(), ast.parse(path.read_text())))
    return tuple(trees)


def _definitions(trees=None):
    """``(module::qualname, name, node, class node)`` for every
    module-level function and every method of a module-level (or
    nested) class in ``trees`` (default: ``src/repro``)."""
    def visit(body, rel, prefix, cls):
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from visit(node.body, rel, f"{prefix}{node.name}.",
                                 node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f"{rel}::{prefix}{node.name}", node.name, node, cls

    for rel, tree in _trees(("src",)) if trees is None else trees:
        yield from visit(tree.body, rel, "", None)


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


def _defines_init(node) -> bool:
    return any(isinstance(item, ast.FunctionDef) and item.name == "__init__"
               for item in node.body)


@functools.cache
def _classes(trees) -> dict:
    """Class name -> its method resolution order, truncated to the
    classes ``trees`` define, each with whether it defines
    ``__init__``."""
    bases, own = {}, {}
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = [_callee(base) for base in node.bases]
                own[node.name] = _defines_init(node)

    @functools.cache
    def mro(name):
        # C3 linearisation over the known bases.
        heads = [list(mro(base)) for base in bases[name] if base in bases]
        heads.append([base for base in bases[name] if base in bases])
        order = [name]
        while any(heads):
            head = next(seq[0] for seq in heads if seq and not any(
                seq[0] in other[1:] for other in heads))
            order.append(head)
            heads = [[cls for cls in seq if cls != head] for seq in heads]
        return tuple(order)

    return {name: tuple((cls, own[cls]) for cls in mro(name))
            for name in bases}


def _provider(mro, after=None):
    """The class whose ``__init__`` runs for ``mro``'s instances, or —
    for ``super().__init__`` in class ``after`` — next after it."""
    names = [cls for cls, _ in mro]
    start = names.index(after) + 1 if after is not None else 0
    return next((cls for cls, own in mro[start:] if own), None)


@functools.cache
def _calls(trees) -> dict:
    """Callee name -> ``(positional args, keywords, spread)`` of every
    call in ``trees``, plus one for each function handed on with
    trailing positional arguments.  A class's name is the callee of its
    constructor calls: ``super().__init__(…)`` in class ``C`` calls the
    next ``__init__`` after ``C`` in the order of every class derived
    from ``C``, ``Base.__init__(self, …)`` calls ``Base`` without
    ``self``, and ``TABLE[key](…)`` calls every class in ``TABLE``.  A
    call through a name bound by plain assignment (``reject_sap =
    Amf.reject``), by a keyword argument (``on_accept=self._accept``) or
    by a record's positional field (``Rat(CellBricksUe, …)`` binds
    ``Rat.ue_class``) calls what it names.  ``spread`` is true for a
    ``*args`` or ``**kwargs`` argument, except a spread of the calling
    function's own ``**`` parameter, which is ``(name, class, own
    parameters)`` of that function: it sets what that function's
    callers pass it beyond its own parameters."""
    classes = _classes(trees)
    calls, aliases, tables = collections.defaultdict(list), [], {}
    fields, records = {}, []

    def visit(node, cls, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                fields[child.name] = [
                    item.target.id for item in child.body
                    if isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)]
                visit(child, child.name, None)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, cls, child)
                continue
            if isinstance(child, ast.Assign) and len(child.targets) == 1 \
                    and isinstance(child.targets[0], ast.Name):
                target, value = child.targets[0].id, child.value
                if _callee(value) is not None:
                    aliases.append((target, _callee(value)))
                elements = value.values if isinstance(value, ast.Dict) \
                    else value.elts if isinstance(
                        value, (ast.Tuple, ast.List, ast.Set)) else ()
                if elements and all(_callee(element) is not None
                                    for element in elements):
                    tables[target] = [_callee(e) for e in elements]
            if isinstance(child, ast.Call):
                call(child, cls, function)
            visit(child, cls, function)

    def call(node, cls, function):
        records.append((_callee(node.func), [
            _callee(arg) for arg in node.args]))
        aliases.extend((keyword.arg, _callee(keyword.value))
                       for keyword in node.keywords
                       if keyword.arg and _callee(keyword.value) is not None)
        spread = any(isinstance(arg, ast.Starred) for arg in node.args)
        for keyword in node.keywords:
            if keyword.arg is not None or spread:
                continue
            forwarded = function is not None and function.args.kwarg \
                and getattr(keyword.value, "id", None) \
                == function.args.kwarg.arg
            if not forwarded:
                spread = True
                break
            args = function.args
            spread = (function.name, cls, frozenset(
                arg.arg for arg in args.posonlyargs + args.args
                + args.kwonlyargs))
        site = (len(node.args), {keyword.arg for keyword in node.keywords},
                spread)
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "__init__":
            owner = func.value
            if isinstance(owner, ast.Call) and _callee(owner.func) == "super":
                for mro in classes.values():
                    if cls in (name for name, _ in mro):
                        provider = _provider(mro, after=cls)
                        if provider is not None:
                            calls[provider].append(site)
            elif _callee(owner) in classes:
                calls[_callee(owner)].append(
                    (site[0] - 1,) + site[1:])
        elif isinstance(func, ast.Subscript):
            calls[("table", _callee(func.value))].append(site)
        else:
            calls[_callee(func)].append(site)
        for index, arg in enumerate(node.args[:-1]):
            if _callee(arg) is not None:
                calls[_callee(arg)].append(
                    (len(node.args) - index - 1, set(), spread))

    for _, tree in trees:
        visit(tree, None, None)
    for record, args in records:
        aliases.extend((field, arg)
                       for field, arg in zip(fields.get(record, ()), args)
                       if arg is not None)
    direct = {callee: tuple(sites) for callee, sites in calls.items()}
    for alias, name in set(aliases):
        if alias != name:
            calls[name] += direct.get(alias, ())
    for table, names in tables.items():
        for name in names:
            calls[name] += calls.get(("table", table), [])
    return calls


def _sites(trees, name, cls) -> list:
    """The call sites in ``trees`` that reach function ``name`` of class
    ``cls`` (``None`` for a module-level function): for ``__init__``,
    the calls to every class whose instances run it."""
    calls = _calls(trees)
    if name != "__init__" or cls is None:
        return calls.get(name, [])
    return [site for derived, mro in _classes(trees).items()
            if _provider(mro) == cls for site in calls.get(derived, ())]


def _sets(trees, site, param, index, seen=frozenset()) -> bool:
    count, keywords, spread = site
    if param in keywords or spread is True \
            or (index is not None and count > index):
        return True
    if not spread or spread in seen or param in spread[2]:
        return False
    return any(_sets(trees, outer, param, None, seen | {spread})
               for outer in _sites(trees, *spread[:2]))


@functools.cache
def _unset(directories, definitions=None) -> dict:
    """Default-valued parameters no call in ``directories`` (or in the
    trees ``definitions`` when given) sets."""
    trees = _trees(directories) if definitions is None else definitions
    found = {}
    for key, name, node, cls in _definitions(definitions):
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
        sites = _sites(trees, name, cls.name if cls is not None else None)
        for param, index in params:
            if not any(_sets(trees, site, param, index) for site in sites):
                found[f"{key}({param}=)"] = node.lineno
    return found


#: one call shape per resolution rule of ``_calls`` / ``_sites``; each
#: default that only a rule sets is named after it.
RULES = """
class SuperBase:
    def __init__(self, via_super=0, unset=0): ...

class SuperChild(SuperBase):
    def __init__(self):
        super().__init__(via_super=1)

class Mixin:
    def __init__(self, *, own, **rest):
        super().__init__(**rest)

class Substrate:
    def __init__(self, forwarded=0, withheld=0): ...

class Combined(Mixin, Substrate):
    def __init__(self):
        super().__init__(own=1, forwarded=1)

class ExplicitBase:
    def __init__(self, first=0, second=0): ...

class ExplicitChild(ExplicitBase):
    def __init__(self):
        ExplicitBase.__init__(self, 1)

class Inherited:
    def __init__(self, through_subclass=0, shadowed=0): ...

class Inheriting(Inherited):
    pass

class Overriding(Inherited):
    def __init__(self, shadowed=0):
        super().__init__()

class TableA:
    def __init__(self, name, size=0): ...

class TableB:
    def __init__(self, name, size=0): ...

KINDS = {"a": TableA, "b": TableB}

class Record:
    factory: type

class ViaField:
    def __init__(self, via_field=0): ...

class ViaKeyword:
    def __init__(self, via_keyword=0): ...

def hand_on(maker):
    maker(via_keyword=1)

def run(kind):
    SuperChild()
    Combined()
    ExplicitChild()
    Inheriting(through_subclass=1)
    Overriding(shadowed=1)
    KINDS[kind]("x", size=1)
    Record(ViaField).factory(via_field=1)
    hand_on(maker=ViaKeyword)
"""


def test_constructor_calls_resolve_by_each_rule():
    """``super().__init__`` reaches the next ``__init__`` in the order of
    every class derived from the caller's, and forwards only what its
    own callers pass through ``**rest``; ``Base.__init__(self, 1)`` sets
    ``first`` alone; a subclass call counts for an ``__init__`` it
    inherits, never for one it overrides; a table call counts for every
    class in the table; a class bound to a record field or a keyword is
    called through that name."""
    trees = (("rules.py", ast.parse(RULES)),)
    assert sorted(_unset(None, trees)) == [
        "rules.py::ExplicitBase.__init__(second=)",
        "rules.py::Inherited.__init__(shadowed=)",
        "rules.py::Substrate.__init__(withheld=)",
        "rules.py::SuperBase.__init__(unset=)",
    ]


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
