"""Layering rules checked on the source.

The CLI reaches the library only through its public names: ``cli.py``
parses flags and formats results, and whatever it needs from another
mimocast module must be public there.  This parses the module and fails on
any ``_``-prefixed name (dunders aside) imported from, or read as an
attribute of, another mimocast module.

How to draw circularly-symmetric complex Gaussian samples is
``montecarlo._cn``'s rule: no other code in ``montecarlo.py`` names a
normal draw.  Likewise, which pilots a score estimates is
``allocation._score_stats``'s rule: no other code in ``allocation.py``
names ``_estimation_variances``.

A trial draws the observations' factor and factors nothing: nothing in
``montecarlo.py`` names an inverse, a Cholesky factor or a QR.  ZF reads
the rows of each factor's inverse from a blocked triangular inversion of
the block's factors: back substitution within diagonal leaves, then
products that combine them.

Which precoders exist is ``closed_form``'s rule: any other module checks a
precoder through ``closed_form._precoder_factors`` and never tests
membership in ``PRECODERS`` itself; looping over them is fine.

A Monte Carlo run checks its inputs once, before its first trial: no code
a trial runs names a check.  The walk starts at the block step,
``_Kernel.__call__``, and takes every ``montecarlo`` function or
``_Kernel`` method it names, directly or through another; it must reach
each step of a trial, from the draw to both precoders' terms.  None of
those steps raises or catches: a lost-rank ZF draw is dropped by a mask,
not by an exception.

The per-UT pilot order is the model's: ``SystemConfig.pilot_offsets``
holds the pilot boundaries, and no other module derives them.  Outside
``model.py`` nothing names a ``_pilot_offsets`` or ``_own_streams``
helper, and ``pilot_offsets`` is only ever read as ``cfg.pilot_offsets``;
``montecarlo.py`` does read it so, and names no ``group_offsets``.

The trials read nothing of the closed form: in ``montecarlo.py`` only
``_run_trials`` names ``_estimation_variances`` or ``_sinr_terms``, and
nothing in ``_Kernel`` names the estimate variances (``stats``,
``EstimationStats``) or ``_se_report``, as a name, attribute, parameter,
keyword or string.

Only ``allocation._FillOrder`` orders users: nothing else in
``allocation.py`` names an ``argsort``, ``sorted``, ``sort``, ``bisect``
or any other sort or binary search, so water-filling and its inverse read
one order of the users.

The estimation rule is the model's (``model._mmse_variances``):
``allocation.py`` reaches it only through ``model``, naming
``_estimation_variances`` in ``_score_stats`` and ``_mmse_variances`` in
``_sse_problem`` and nowhere else, and names no piece of it
(``_group_others``, ``ut_error``, ``ut_var``).  Nothing in ``_Kernel``
names the rule or the stats' fields; it derives its own error terms from
the pilot weights, with ``_group_others``.
"""

import ast
from pathlib import Path

import mimocast

PACKAGE = Path(mimocast.__file__).parent
CLI = PACKAGE / "cli.py"
MONTECARLO = PACKAGE / "montecarlo.py"
ALLOCATION = PACKAGE / "allocation.py"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _root(node: ast.expr) -> str | None:
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def private_uses(source: str) -> list[str]:
    """``module.name`` of every private mimocast name the source imports or reads."""
    tree = ast.parse(source)
    modules, found = {}, []   # local name -> the mimocast module it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or
                                                 (node.module or "").startswith("mimocast")):
            base = node.module or "mimocast"
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"{base}.{alias.name}")
                elif not node.module:   # `from . import allocation` binds a module
                    modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "mimocast":
                    modules[alias.asname or alias.name.split(".")[0]] = alias.name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and _root(node.value) in modules):
            found.append(f"{ast.unparse(node.value)}.{node.attr}")
    return found


def test_cli_reads_no_private_library_name():
    assert private_uses(CLI.read_text(encoding="utf-8")) == []


def test_check_sees_private_imports_and_attributes():
    source = """
from . import __version__, allocation
from .model import _count, require_valid
import mimocast.pareto as p
import mimocast
allocation._mmf_problem(cfg, drops, "mrt").under("zf")
p._point(mmf, sse, 0.0)
mimocast.figures._drop_states(1, 2, 3)
allocation.solve_mmf.__name__
_local()
"""
    assert sorted(private_uses(source)) == sorted([
        "model._count", "allocation._mmf_problem", "p._point",
        "mimocast.figures._drop_states"])


def precoder_membership_tests(source: str) -> list[int]:
    """Lines of every ``in``/``not in`` test against ``PRECODERS`` (a bare
    name or an attribute of that name)."""
    def names_precoders(node: ast.expr) -> bool:
        return (isinstance(node, ast.Name) and node.id == "PRECODERS"
                or isinstance(node, ast.Attribute) and node.attr == "PRECODERS")

    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Compare)
            and any(isinstance(op, (ast.In, ast.NotIn)) and names_precoders(right)
                    for op, right in zip(node.ops, node.comparators))]


def test_only_closed_form_tests_precoder_membership():
    found = {path.name: lines for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "closed_form.py"
             and (lines := precoder_membership_tests(path.read_text(encoding="utf-8")))}
    assert found == {}


def test_check_sees_precoder_membership_tests():
    source = """
if precoder not in PRECODERS:
    pass
ok = p in closed_form.PRECODERS
ok = 0 < n and p in PRECODERS
for p in PRECODERS:
    pass
names = [p for p in PRECODERS]
ok = p == PRECODERS
ok = PRECODERS in table
"""
    assert precoder_membership_tests(source) == [2, 4, 5]


NORMAL_DRAWS = {"standard_normal", "normal"}


def owners(source: str, names: set[str]) -> list[str]:
    """The innermost enclosing function (or ``<module>``) of every name,
    attribute or string that is one of ``names``, in source order."""
    found = []

    def visit(node: ast.AST, owner: str):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if (isinstance(node, ast.Attribute) and node.attr in names
                or isinstance(node, ast.Name) and node.id in names
                or isinstance(node, ast.Constant) and node.value in names):
            found.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def test_only_one_helper_draws_normals_in_montecarlo():
    assert owners(MONTECARLO.read_text(encoding="utf-8"), NORMAL_DRAWS) == ["_cn"]


def test_check_sees_every_normal_draw():
    source = """
z = rng.standard_normal(3)
class Kernel:
    def __call__(self, rng):
        def inner():
            return rng.normal(size=2)
        return getattr(rng, "standard_normal")(4), inner()
def helper(rng):
    return rng.integers(2), NormalDist().inv_cdf(0.5)
"""
    assert owners(source, NORMAL_DRAWS) == ["<module>", "inner", "__call__"]


FACTORIZATIONS = {"cholesky", "qr"}


def test_nothing_factors_in_montecarlo():
    assert owners(MONTECARLO.read_text(encoding="utf-8"), FACTORIZATIONS | {"inv"}) == []


def test_check_sees_every_factorization():
    source = """
from numpy.linalg import qr
R = np.linalg.cholesky(G)
class Kernel:
    def __call__(self, O):
        factor = getattr(np.linalg, "qr")
        return factor(O), la.inv(O), self.inv_cdf(O), cholesky_like(O)
def _zf_factor(R):
    return np.linalg.inv(R), np.linalg.pinv(R), qr(R)
"""
    assert owners(source, FACTORIZATIONS) == ["<module>", "__call__", "_zf_factor"]
    assert owners(source, {"inv"}) == ["__call__", "_zf_factor"]


def test_only_one_helper_estimates_in_allocation():
    assert owners(ALLOCATION.read_text(encoding="utf-8"),
                  {"_estimation_variances"}) == ["_score_stats"]


def test_check_sees_every_estimation_call():
    source = """
from .model import _estimation_variances
stats = _estimation_variances(cfg, fading, p, q)
class Problem:
    @cached_property
    def scoring(self):
        return model._estimation_variances(self.cfg, self.fading, p, q)
def score(cfg, fading, sol):
    estimate = _estimation_variances
    return estimate(cfg, fading, p, q), estimation_variances(cfg, fading, p, q)
"""
    assert owners(source, {"_estimation_variances"}) == ["<module>", "scoring", "score"]


RUN_CHECKS = {"_check_powers", "_require_estimates", "_pilot_arrays", "require_valid",
              "require_zf_feasible", "_estimation_variances", "_precoder_factors"}


def trial_walk(source: str) -> tuple[list[str], set[str]]:
    """``function: check`` for every name in RUN_CHECKS that ``_Kernel.__call__``
    names, or that a module-level function or ``_Kernel`` method names which
    it reaches by naming one, in any order of calls; and the names of every
    function and method the walk reached."""
    tree = ast.parse(source)
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    kernel = next(node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "_Kernel")
    methods = {node.name: node for node in kernel.body if isinstance(node, ast.FunctionDef)}
    found, todo, seen = [], [methods["__call__"]], {"__call__"}
    while todo:
        function = todo.pop()
        for node in ast.walk(function):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute) else None)
            if name in RUN_CHECKS:
                found.append(f"{function.name}: {name}")
            elif name not in seen and (name in functions or name in methods):
                seen.add(name)
                todo.append(functions.get(name) or methods[name])
    return sorted(found), seen


# Every step of a trial: the block step, which also holds ZF's rank rule and
# MRT's reductions, the block's draws and their completion, ZF's row norms,
# and both precoders' terms.
TRIAL_STEPS = {"__call__", "_draw", "_factor", "_cn", "_complete", "_zf_row_norms",
               "_diagonal_blocks", "_terms"}


def test_trials_run_no_check():
    found, seen = trial_walk(MONTECARLO.read_text(encoding="utf-8"))
    assert found == []
    assert TRIAL_STEPS <= seen, TRIAL_STEPS - seen


def test_check_sees_checks_a_trial_reaches():
    source = """
def _draw(rng):
    return _scaled(rng)
def _scaled(rng):
    model.require_valid(cfg, fading)
    return _draw(rng)
def _unused(powers):
    _check_powers(cfg, powers)
class _Kernel:
    def __init__(self, cfg, powers):
        _check_powers(cfg, powers)
    def _precode(self, C):
        check = _require_estimates
        return check(self.powers, self.stats, "zf")
    def __call__(self, t):
        C = _draw(t)
        return self._precode(C)
"""
    assert trial_walk(source)[0] == ["_precode: _require_estimates",
                                       "_scaled: require_valid"]


def trial_control(source: str) -> list[str]:
    """``function: raise`` or ``function: try`` for every raise statement or
    try block in a function or method that ``trial_walk`` reaches from
    ``_Kernel.__call__``, sorted."""
    tree = ast.parse(source)
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    kernel = next(node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "_Kernel")
    methods = {node.name: node for node in kernel.body if isinstance(node, ast.FunctionDef)}
    kinds = {ast.Raise: "raise", ast.Try: "try", ast.TryStar: "try"}
    return sorted(f"{name}: {kinds[type(node)]}" for name in trial_walk(source)[1]
                  for node in ast.walk(functions.get(name) or methods[name])
                  if type(node) in kinds)


def test_no_trial_step_raises_or_catches():
    assert trial_control(MONTECARLO.read_text(encoding="utf-8")) == []


def test_check_sees_every_raise_and_try_a_trial_reaches():
    source = """
def _rank(bound):
    if not bound <= 1e12:
        raise RankDeficientDraw(bound)
def _unused(powers):
    raise ValueError(powers)
class _Kernel:
    def __init__(self, cfg):
        raise TypeError(cfg)
    def _step(self, bound):
        try:
            _rank(bound)
        except RankDeficientDraw:
            return None
    def __call__(self, start, stop):
        with np.errstate(all="ignore"):
            assert start < stop
            return [self._step(b) for b in range(start, stop)]
"""
    assert trial_control(source) == ["_rank: raise", "_step: try"]


CLOSED_FORM_SIDE = {"_estimation_variances", "_sinr_terms"}
KERNEL_UNREAD = {"stats", "EstimationStats", "_se_report"}


def test_only_the_run_reads_the_closed_form_in_montecarlo():
    assert owners(MONTECARLO.read_text(encoding="utf-8"), CLOSED_FORM_SIDE) == \
        ["_run_trials"] * 2


def test_check_sees_every_closed_form_read():
    source = """
from .closed_form import _sinr_terms
terms = closed_form._sinr_terms(cfg, stats, fading, powers, 1, 0.0)
class _Kernel:
    def __init__(self, cfg):
        self.stats = model._estimation_variances(cfg, fading, p, q)
def _run_trials(cfg):
    estimate = getattr(model, "_estimation_variances")
    return estimate(cfg), _sinr_terms(cfg)
"""
    assert owners(source, CLOSED_FORM_SIDE) == ["<module>", "__init__", "_run_trials",
                                                "_run_trials"]


def kernel_mentions(source: str, names: set[str]) -> list[str]:
    """``method: name`` (``<class>`` outside the methods) for every name,
    attribute, parameter, keyword or string in ``names`` within the
    ``_Kernel`` class, sorted."""
    tree = ast.parse(source)
    kernel = next(node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "_Kernel")
    found = []
    for item in kernel.body:
        where = item.name if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) \
            else "<class>"
        for node in ast.walk(item):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.arg if isinstance(node, (ast.arg, ast.keyword))
                    else node.value if isinstance(node, ast.Constant) else None)
            if isinstance(name, str) and name in names:
                found.append(f"{where}: {name}")
    return sorted(found)


def test_kernel_reads_no_estimate_variances():
    assert kernel_mentions(MONTECARLO.read_text(encoding="utf-8"), KERNEL_UNREAD) == []


def test_check_sees_every_kernel_mention():
    source = """
def _scales(cfg, stats):
    return stats.group_var
class _Kernel:
    variances: EstimationStats
    def __init__(self, cfg, powers, *, stats=None):
        self.diag = _scales(cfg, stats=self.variances)
    def __call__(self, t):
        return getattr(closed_form, "_se_report")(t), self.n_stats
"""
    assert kernel_mentions(source, KERNEL_UNREAD) == [
        "<class>: EstimationStats", "__call__: _se_report", "__init__: stats",
        "__init__: stats"]


PILOT_HELPERS = {"_pilot_offsets", "_own_streams"}


def pilot_order_mentions(source: str, names: set[str]) -> list[str]:
    """``owner: name`` for every definition, name, attribute, parameter,
    keyword, import or string that is one of ``names``, or that is
    ``pilot_offsets`` other than as ``cfg.pilot_offsets``, in source order;
    the owner is the innermost enclosing function, or ``<module>``."""
    found = []

    def visit(node: ast.AST, owner: str):
        idents = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            idents.append(node.name)
        elif isinstance(node, ast.Name):
            idents.append(node.id)
        elif isinstance(node, ast.Attribute):
            if not (node.attr == "pilot_offsets" and isinstance(node.value, ast.Name)
                    and node.value.id == "cfg"):
                idents.append(node.attr)
        elif isinstance(node, (ast.arg, ast.keyword)):
            idents.append(node.arg)
        elif isinstance(node, ast.alias):
            idents.extend((node.name, node.asname))
        elif isinstance(node, ast.Constant):
            idents.append(node.value)
        found.extend(f"{owner}: {name}" for name in idents
                     if isinstance(name, str) and (name in names or name == "pilot_offsets"))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def test_only_the_model_derives_pilot_boundaries():
    found = {path.name: names for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "model.py"
             and (names := pilot_order_mentions(path.read_text(encoding="utf-8"),
                                                PILOT_HELPERS))}
    assert found == {}
    source = MONTECARLO.read_text(encoding="utf-8")
    assert pilot_order_mentions(source, PILOT_HELPERS | {"group_offsets"}) == []
    assert "cfg.pilot_offsets" in source


def test_check_sees_every_pilot_order_derivation():
    source = """
from .model import _own_streams as own
def _pilot_offsets(cfg):
    return np.concatenate([np.arange(cfg.n_unicast), cfg.n_unicast + cfg.group_offsets])
class _Kernel:
    def __init__(self, cfg, stats, pilot_offsets=None):
        pilots = cfg.pilot_offsets
        self.pilot_offsets = stats.pilot_offsets
        self.own = getattr(model, "_own_streams")(cfg, offsets=cfg.group_offsets)
"""
    assert pilot_order_mentions(source, PILOT_HELPERS | {"group_offsets"}) == [
        "<module>: _own_streams", "<module>: _pilot_offsets", "_pilot_offsets: group_offsets",
        "__init__: pilot_offsets", "__init__: pilot_offsets", "__init__: pilot_offsets",
        "__init__: _own_streams", "__init__: group_offsets"]


ESTIMATION_RULE = {"_mmse_variances", "_estimation_variances", "estimation_variances"}
ESTIMATION_PIECES = {"_group_others", "ut_error", "ut_var"}


def test_allocation_reaches_the_estimation_rule_only_through_the_model():
    source = ALLOCATION.read_text(encoding="utf-8")
    assert owners(source, ESTIMATION_RULE) == ["_score_stats", "_sse_problem"]
    assert owners(source, ESTIMATION_PIECES) == []
    assert kernel_mentions(MONTECARLO.read_text(encoding="utf-8"),
                           ESTIMATION_RULE | ESTIMATION_PIECES - {"_group_others"}) == []


ORDERING = {"argsort", "sorted", "sort", "lexsort", "bisect", "bisect_left", "bisect_right",
            "insort", "searchsorted"}


def top_level_mentions(source: str, names: set[str]) -> list[str]:
    """``owner: name`` for every name, attribute, import or string in
    ``names``, in source order; the owner is the top-level function or
    class that holds it, or ``<module>``."""
    found = []
    for statement in ast.parse(source).body:
        owner = (statement.name if isinstance(statement, (ast.FunctionDef, ast.ClassDef))
                 else "<module>")
        for node in ast.walk(statement):
            idents = (node.id if isinstance(node, ast.Name)
                      else node.attr if isinstance(node, ast.Attribute)
                      else node.name if isinstance(node, ast.alias)
                      else node.value if isinstance(node, ast.Constant) else None)
            if isinstance(idents, str) and idents in names:
                found.append(f"{owner}: {idents}")
    return found


def test_only_the_fill_order_orders_users_in_allocation():
    found = top_level_mentions(ALLOCATION.read_text(encoding="utf-8"), ORDERING)
    assert [mention for mention in found if not mention.startswith("_FillOrder: ")] == []
    assert {"_FillOrder: argsort", "_FillOrder: searchsorted"} <= set(found)


def test_check_sees_every_ordering():
    source = """
import bisect
from heapq import nsmallest
class _FillOrder:
    def __init__(self, w, o):
        self.order = np.argsort(-(w / o), kind="stable")
class _Breakpoints:
    def __init__(self, users):
        self.users = sorted(users, key=lambda u: u[0] / u[1])
        users.sort(reverse=True)
def budget(level_sums, f):
    return bisect.bisect_right(level_sums, f), getattr(np, "searchsorted")(level_sums, f)
"""
    assert top_level_mentions(source, ORDERING) == [
        "<module>: bisect", "_FillOrder: argsort", "_Breakpoints: sorted",
        "_Breakpoints: sort", "budget: bisect_right", "budget: bisect", "budget: searchsorted"]
