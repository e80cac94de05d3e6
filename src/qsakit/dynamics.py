"""Gain schedules, coupled system definitions, and the RK4 integrator.

The integrator advances the slow/fast pair

    d/dt Theta = a_t * g(Theta, Lambda, xi_t)
    d/dt Lambda = b_t * h(Theta, Lambda, xi_t)

One RK4 kernel, _rk4, is the package's only RK4 loop.  It advances one
stacked state: [Theta; Lambda] in coupled runs, Lambda alone in
frozen-fast runs, and [Lambda; vec S] (S row-major) in the
sensitivity runs of qsakit.lyapunov, or vec S alone in a sensitivity
run on text whose S reads no Lambda and whose Lambda could raise
nothing (_s_alone): there the run's lambda0 decides nothing.  A
second-order filter attached to a coupled run observes Lambda: Lambda^F
and dLambda^F extend the stack and ride along in the same step, but no
field reads them, so Theta and Lambda are the same with or without it.  Probing phases are recomputed
from t at every stage, never integrated, so runs are reproducible bit
for bit, and a sample's probe row rebuilt from its time is the row the
run's stages read there: qsakit.meanflow averages the slow field on a
frozen-fast run's samples after the run (text_arrays).

Every system states its field once, as expression text (StageText) over
the stage's theta, Lambda and probe row (locals th0.., la0.., xi0..),
its constants, which runs receive as values, not literals, the locals of
a statement run at every stage, and the stage's slow gain a: the slow
part is a*g, where g may hold probing feedback weighted by a once more,
and the fast part is b*h.  Runs write the text into the loop, with no
call; a Python function enters a text as a constant that it calls.  The
stage field stage(theta, lam, xi, a, b) -> (slow, fast), on lists of
floats, with a gain of None skipping its part, is compiled from the text
(text_field) for the code that evaluates the field at given points.  A
system's field is fixed at construction.  The extremum seeker of
qsakit.esc states its measurement y = f(theta + eps xi)/eps as that
statement, eps(theta) included, so its coupled runs measure at every
stage inside the loop.  Its frozen text, system.frozen(theta), is the
same text at a pinned theta, for its frozen-fast and sensitivity runs,
where y depends on the probe row alone: it is measured once per new
probe row, in step order (k2's row, then k4's row, whose value the next
k1 reuses), and carried as the stack's last entry, so the run samples it
with the state.

A text's arithmetic that its run's inputs fix before the loop is not
computed in it (_lift): a maximal sub-expression built by +, -, *,
unary - and / by a run constant from float literals, the text's
constants, the pinned theta of a frozen-fast or sensitivity run and the
probe row entries xi{i}.  One that reads no xi{i} is computed once per
run on Python floats; any other once per block of steps, on the block's
probe table with numpy's elementwise operations (text_arrays, warnings
off), as a column of the table that the loop reads as it reads xi{i}.
A per-stage assignment of such arithmetic becomes a run value or a
column too: at a pinned theta the built-in quadratic's measurement is
lifted whole, and so is g1*y, so its frozen loops measure nothing.
Calls, **, comparisons and / by anything else stay in the loop, so
every objective call happens at the same stage as before.  numpy's
elementwise +, -, * and / on float64 round as Python's float operations
do, so the lifted values are the loop's own.

The steps of a block run in a loop generated as straight-line source once
per run shape (dim_slow, dim_fast, kind, text key) and compiled on first
use, as dataclasses and namedtuple generate code.  The kinds are coupled,
filtered (the coupled pair with the filter states), frozen-fast and
sensitivity (Lambda with vec S, or vec S alone).  The loop holds the
state in locals x0 .. x{D-1}, reads from the block's probe table, one
list of floats per component, only the entries its stage reads, and
writes out the text's parts, the filter's derivative, each entry of the
sensitivity derivative b*(J S) as a sum in index order, and the update,
so a stage calls only what the text calls and builds no stacked list
and no comprehension frame.  The fast gain b is a local, a sample
appends its floats to the block's list, and one test per step, (x0 -
x0) + (x1 - x1) + ... != 0.0, finds a non-finite x (x - x is +0.0 at
every finite x, nan at inf and nan).  Binary64 +, - and * on Python floats round exactly as numpy's
elementwise float64 operations, performed here in the order of the array
expressions, so trajectories are bit for bit those of the step written
on arrays.  This pays off for small stacks only (the source grows with
D); every built-in system has D <= 5 in coupled and frozen runs.  The
points of one grid call share their probe tables (_grid_store).
"""

import ast
import contextlib
import contextvars
import functools
import math
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, NonFinite
from .probing import clock_phases, identity_map, probe_signal

#: steps per precomputed probe/gain block inside the integrator; a block
#: holds a Python float per stage time and probe component, so it is kept
#: short to bound memory
_CHUNK = 1 << 10

#: rows per block of write_csv: a block's rows are stacked and formatted
#: together, so a block bounds the stacked copy of the caller's columns
#: and the formatter's scratch arrays (about 170 bytes per value)
_CSV_BLOCK = 1 << 10


def _digit_tables():
    """The ASCII digits of 0000..9999, four bytes per number read as one
    uint32, and each number's trailing zero digits (4 for 0000)."""
    ascii_digits, zeros = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8), np.zeros((), np.uint8)
    digits = np.empty((10, 10, 10, 10, 4), np.uint8)
    for place, shape in enumerate([(10, 1, 1, 1), (10, 1, 1), (10, 1), (10,)]):
        digits[..., place] = ascii_digits.reshape(shape)
        zeros = (zeros + 1) * (ascii_digits == ord("0")).reshape(shape)
    return digits.view(np.uint32).ravel(), zeros.ravel()


_DIGITS4, _ZEROS4 = _digit_tables()

#: Veltkamp's splitter: x * s - (x * s - x) is x rounded to 26 bits
_SPLITTER = 2.0**27 + 1.0

#: 10**k for k = 0..20, each an exact double (k <= 22), split in two halves
_POW10 = np.array([float(10**k) for k in range(21)])
_POW10_HI = _POW10 * _SPLITTER - (_POW10 * _SPLITTER - _POW10)
_POW10_LO = _POW10 - _POW10_HI

#: bytes kept of a formatted value's 25-byte row, indexed by
#: (first * 25 + end) * 2 + negative: the sign byte if negative, bytes
#: first .. end - 1, and the separator, byte 24 (_csv_rows)
_CSV_KEEP = (
    (np.arange(25) >= np.arange(6)[:, None, None, None])
    & (np.arange(25) < np.arange(25)[:, None, None])
    | (np.arange(25) == 0) & (np.arange(2)[:, None] == 1)
    | (np.arange(25) == 24)
).reshape(-1, 25)

#: _rk4's block loop per run shape, generated on first use (_step_loop)
_STEP_LOOPS = {}

#: the store of the grid call in progress (_grid_store), None outside one
_STORE = contextvars.ContextVar("qsakit grid store", default=None)


@contextlib.contextmanager
def _grid_store():
    """Open a store for the work that the points of one grid call share
    (_shared), dropped when the call returns or raises.  The grid calls
    (meanflow.stationary_grid, meanflow's Newton root,
    lyapunov.exponent_grid) open it and call their per-point function once
    per point, in grid order, so nothing is shared across grid calls, CLI
    runs or threads (a thread starts outside it)."""
    token = _STORE.set({})
    try:
        yield
    finally:
        _STORE.reset(token)


def _shared(key, build, *args):
    """build(*args), computed once per key in the open store and kept
    there until it closes (_grid_store); without a store, or for a key
    that does not hash, computed at every call.  A build that raises
    stores nothing."""
    store = _STORE.get()
    if store is None:
        return build(*args)
    try:
        return store[key]
    except KeyError:
        value = store[key] = build(*args)
        return value
    except TypeError:  # an unhashable key, such as an array constant of a text
        return build(*args)


@dataclass(frozen=True)
class GainSchedule:
    """The mixed gain schedule of two-timescale QSA.

    The slow gain vanishes, a_t = (1+t)^-rho with rho in (1/2, 1), and the
    fast gain is the constant b_t = beta > 0.  The companion rate
    r_t = rho/(1+t) satisfies da/dt = -r_t a_t exactly.
    """

    rho: float
    beta: float

    def __post_init__(self):
        if not 0.5 < self.rho < 1.0:
            raise ConfigError(f"rho must lie in (1/2, 1), got {self.rho}")
        if self.beta <= 0:
            raise ConfigError(f"beta must be positive, got {self.beta}")

    def gains_at(self, t):
        """(a_t, r_t) with da/dt = -r_t a_t."""
        return self.slow_gain_array(t), self.rho / (1.0 + t)

    def slow_gain_array(self, ts):
        return (1.0 + ts) ** -self.rho

    def fast_gain_array(self, ts):
        return np.full(len(ts), self.beta)


class StageText(NamedTuple):
    """A stage field as expression text: the field is a*(slow[i]) and
    b*(fast[i]), and jac holds the fast Jacobian, d fast[i] / d la{k} at
    index i*dim_fast + k (row-major, dim_fast**2 entries, as vec S), from
    which a sensitivity run writes each entry of b*(J S) out as b * (0.0 +
    (J_i0) * (S_0j) + (J_i1) * (S_1j) + ...), in index order.  The text
    reads th0.., la0.., the row entries xi0.. of a probe row, the
    constants names, bound to values per run, and the locals that the
    statement per_stage ('' for none) binds; slow may also read the
    stage's slow gain a.  A Python function is a constant that the text
    calls: per_stage = "g0, h0 = gh(th0, la0, xi0)", slow = ("g0",),
    fast = ("h0",).  No name, and no local that per_stage binds, may be
    one the generated loop binds or reads for itself (_LOOP_NAMES: its
    state, stage and probe locals x0.., k1_0.., p0.. among them);
    TwoTimescaleSystem rejects such a text.  The loop binds a only for a
    text that reads it (_reads_gain), and xi{i}, read from the probe
    component list p{i}, only for the entries its run reads once its
    row-only arithmetic is lifted out (_lift), whose values take the
    names xi{i} and p{i} from i = row on: the text reads no such name.
    per_stage runs at every stage once the stage's state locals are
    bound, less the statements lifted out; jac reads none of its locals.
    With carry, a local of per_stage, per_stage reads no state but the
    pinned theta of a frozen run: it then runs once per new probe row, and
    carry rides as the stack's last entry, None until bound; slow, fast
    and jac then read no other local of per_stage, which no stage state
    carries from one block of steps to the next (_lift rejects such a
    text).  qsakit.meanflow evaluates slow on arrays (text_arrays) where
    each slow part is lifted arithmetic (_row_kind) over th0.., la0..,
    xi0.., the constants, the carried local and a, and calls the compiled
    field per sample elsewhere (_array_exact).  Constants that lifted
    arithmetic reads are real numbers.  Without its values (None) the
    text keys the generated loop.
    """

    slow: tuple
    fast: tuple
    jac: tuple
    row: int
    per_stage: str
    carry: str | None
    names: tuple
    values: tuple


def _on_text(text, shape, args, x):
    """A run's (shape, args, x) on text: the key ends the shape, the values
    end args (after the filter's constants or the pinned theta), and a
    carried local, None, ends x."""
    key = text._replace(values=None)
    return shape + (key,), args + text.values, x + [None] * (text.carry is not None)


def _names(*parts):
    """The names that the source parts (expressions or statements) read or
    bind (co_names)."""
    return {name for part in parts for name in compile(part, "<text>", "exec").co_names}


def _reads_gain(text):
    """Whether text's slow part reads the stage's slow gain a."""
    return "a" in _names(*text.slow)


def _row_locals(text):
    """The target list that binds a probe row to text's locals xi0..."""
    return ", ".join(f"xi{i}" for i in range(text.row)) + "," * (text.row == 1)


def _row_error(count, size):
    """ConfigError for a probe row of count values where size are expected."""
    return ConfigError(f"stage got a probe row of {count} value(s), expected {size}")


#: what a generated loop on text binds or reads for itself
#: (_step_loop_source): its parameters, the step index j, the slow gains
#: am and a, the filter's gamma2 and two_zg, the pinned theta th, the
#: locals x.., k1_.. to k4_.., th.., la.., fl.., xi.. and p.., and the
#: globals range and NonFinite
_LOOP_NAMES = re.compile(
    r"(x|k[1-4]_|th|la|fl|xi|p)\d+|field|args|x|ps|a_all|b|gi|j_lo|j_hi|stride|rows|h|half"
    r"|sixth|j|am|a|gamma2|two_zg|th|range|NonFinite"
)


def _stored(statement):
    """The names that statement binds, in order, once per binding."""
    return [
        node.id for node in ast.walk(ast.parse(statement))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
    ]


def _check_carried(text):
    """ConfigError naming the locals of a carried text's per_stage, other
    than carry, that its slow, fast or jac part reads."""
    if text.carry is None:
        return
    read = sorted((set(_stored(text.per_stage)) - {text.carry})
                  & _names(*text.slow, *text.fast, *text.jac))
    if read:
        raise ConfigError(
            f"stage text with carry {text.carry} reads the per-stage local(s) "
            f"{', '.join(read)}: a carried text's parts read no local but carry"
        )


def _check_loop_names(text):
    """ConfigError naming text's names, and the locals that its per_stage
    binds, which the generated loop binds or reads for itself (_LOOP_NAMES),
    and the entries xi{i} (i >= text.row) and lists p{i} it reads, which
    name the loop's lifted values (_lift)."""
    bound = set(_stored(text.per_stage))
    row = {f"xi{i}" for i in range(text.row)}
    lifted = {n for n in _names(*text.slow, *text.fast, *text.jac, text.per_stage)
              if re.fullmatch(r"(xi|p)\d+", n) and n not in row}
    clashes = sorted({n for n in {*text.names, *bound} if _LOOP_NAMES.fullmatch(n)} | lifted)
    if clashes:
        raise ConfigError(f"stage text name(s) {', '.join(clashes)} are locals of the generated RK4 loop")


#: source of text_field's compiled pair, for str.format with the text's parts
_FIELD_SOURCE = """def bind({names}):
    def stage(theta, lam, xi, a, b):
        {th}= theta; {la}= lam
        try:
            {row} = xi
        except ValueError:
            raise row_error(len(xi), {size}) from None
        {per_stage}
        return None if a is None else [{slow}], None if b is None else [{fast}]
    def dh_dlambda(theta, lam, xi):
        {th}= theta; {la}= lam
        try:
            {row} = xi
        except ValueError:
            raise row_error(len(xi), {size}) from None
        return [{jac}]
    return stage, dh_dlambda
"""


def text_field(text):
    """The stage field and dh_dlambda(theta, lam, xi) -> the list of
    text's Jacobian entries, row-major, written by text, compiled with its
    values bound; a probe row of another length than text.row is a
    ConfigError."""
    source = _FIELD_SOURCE.format(
        names=", ".join(text.names), row=_row_locals(text), size=text.row,
        per_stage=text.per_stage, jac="".join(f"{e}, " for e in text.jac),
        th="".join(f"th{d}, " for d in range(len(text.slow))),
        la="".join(f"la{d}, " for d in range(len(text.fast))),
        slow="".join(f"a * ({e}), " for e in text.slow),
        fast="".join(f"b * ({e}), " for e in text.fast),
    )
    namespace = {"row_error": _row_error}
    exec(compile(source, "<qsakit.dynamics stage text>", "exec"), namespace)
    return namespace["bind"](*text.values)


@functools.cache
def _compiled(expression):
    """expression compiled for eval, and the divisor of each of its / compiled apart."""
    tree = ast.parse(expression, mode="eval")
    divisors = tuple(
        compile(ast.Expression(node.right), "<text>", "eval") for node in ast.walk(tree)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
    )
    return compile(tree, "<text>", "eval"), divisors


def text_arrays(text, parts, theta, xi, lam=(), local=()):
    """The values of parts, (name, expression) pairs of text's arithmetic,
    on n samples at once: each expression evaluated once, in order, with
    numpy's elementwise float64 operations and its warnings off, and its
    value bound to name (None: not bound) for the parts after it.  The
    scope holds text's constants, the entries th0.. of theta, la0.. of lam
    and xi0.. of xi (floats, or (n,) arrays: a pinned theta's floats, the
    columns of sampled states, the rows of probe rows), the slow gain a =
    1.0 and the pairs local.  A part that reads no array is a float.
    numpy's elementwise +, -, * and / round as Python's float operations
    do, and a / whose divisor has a zero raises ZeroDivisionError as the
    float division does, so each value is the compiled field's at each
    sample."""
    scope = dict(zip(text.names, text.values), a=1.0)
    for prefix, entries in (("th", theta), ("la", lam), ("xi", xi)):
        scope.update((f"{prefix}{i}", v) for i, v in enumerate(entries))
    scope.update(local)
    values = []
    with np.errstate(all="ignore"):
        for name, expression in parts:
            code, divisors = _compiled(expression)
            if any(np.any(np.equal(eval(d, {}, scope), 0.0)) for d in divisors):
                raise ZeroDivisionError("float division by zero")
            values.append(eval(code, {}, scope))
            if name is not None:
                scope[name] = values[-1]
    return values


#: the operations of lifted arithmetic (_row_kind), / by a run constant only
_LIFTED_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div)


def _row_kind(node, run, row):
    """The kind of an expression node built by +, -, *, unary - and / by a
    run constant from float literals and the names in run (constants of
    the run) and in row (values of the probe row): "row" if it reads a
    name in row, else "run".  None for any other node."""
    if isinstance(node, ast.Constant):
        return "run" if type(node.value) is float else None
    if isinstance(node, ast.Name):
        return "run" if node.id in run else "row" if node.id in row else None
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return _row_kind(node.operand, run, row)
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, _LIFTED_OPS)):
        return None
    left, right = _row_kind(node.left, run, row), _row_kind(node.right, run, row)
    if left is None or right is None or isinstance(node.op, ast.Div) and right != "run":
        return None
    return "row" if "row" in (left, right) else "run"


#: the nodes of an expression whose evaluation raises nothing (_s_alone):
#: +, -, * and unary - over float literals and names the loop binds
_PLAIN_NODES = (ast.Expression, ast.BinOp, ast.UnaryOp, ast.Add, ast.Sub, ast.Mult, ast.USub, ast.Load)


@functools.cache
def _s_alone(text):
    """Whether a sensitivity run on text (its key: values None) advances S
    alone: jac reads no la{i}, so no bit of S depends on Lambda; there is
    no per-stage statement; and each fast part is built by +, -, * and
    unary - from float literals and the names the loop binds (text's
    constants, th0.., la0.., xi0..), so evaluating it could raise nothing
    (no call, no **, no /)."""
    bound = {*text.names, *(f"th{d}" for d in range(len(text.slow))),
             *(f"la{i}" for i in range(len(text.fast))), *(f"xi{i}" for i in range(text.row))}
    return (
        not text.per_stage
        and not any(re.fullmatch(r"la\d+", n) for n in _names(*text.jac))
        and all(
            isinstance(node, _PLAIN_NODES)
            or isinstance(node, ast.Constant) and type(node.value) is float
            or isinstance(node, ast.Name) and node.id in bound
            for e in text.fast for node in ast.walk(ast.parse(e, mode="eval"))
        )
    )


def _array_exact(text, parts, slow=False):
    """Whether text_arrays evaluates text's expressions parts at sampled
    theta, Lambda and probe rows as the compiled field does at each
    sample: text has no per-stage statement, and each part is lifted
    arithmetic (_row_kind) over text's constants, th0.., la0.. and xi0...
    Slow parts at a = 1.0 (slow) may also read a and, where per_stage is
    carried, the carried local, which the run samples."""
    row = {f"{v}{i}" for v, n in (("th", len(text.slow)), ("la", len(text.fast)), ("xi", text.row))
           for i in range(n)}
    run = set(text.names) - set(_stored(text.per_stage))
    carried = slow and text.carry is not None
    if slow:
        run.add("a")
        row |= {text.carry} if carried else set()
    return (carried or not text.per_stage) and all(
        _row_kind(ast.parse(e, mode="eval").body, run, row) for e in parts
    )


class _Lift(NamedTuple):
    """A text's parts as a run of one kind writes them into its loop, with
    their row-only arithmetic lifted out (_lift).  slow, fast, jac and
    per_stage (the statements left) read the lifted values as locals.
    runs and columns are (name, expression) pairs of text_arrays, computed
    once per run on floats and once per block on the probe table; the loop
    reads the run values args at the end of its args, holds the table
    entries (n, name) of table as lists p{n} and binds (n, local) from
    p{n} at each new probe row.  carried is the table entry of the carried
    local if it is a column, which the loop samples, else None."""

    slow: tuple
    fast: tuple
    jac: tuple
    per_stage: str
    runs: tuple
    columns: tuple
    args: tuple
    table: tuple
    binds: tuple
    carried: int | None


@functools.cache
def _lift(text, kind):
    """The _Lift of text (its key: values None) in runs of kind.

    A maximal sub-expression of lifted arithmetic (_row_kind) over float
    literals, text's constants, the pinned theta th0.. of a frozen-fast
    or sensitivity run and the row entries xi0.. is computed before the
    loop: once per run if it reads no row entry, else once per block as a
    column named xi{n} (table entry p{n}, n >= text.row).  Sub-expressions
    are sought through arithmetic, call arguments and tuple or list
    displays, not inside conditional or comparison nodes, so each one is
    one the loop evaluates at every stage.  Where per_stage holds only
    assignments and expression statements, one that assigns lifted
    arithmetic to a local, which per_stage binds nowhere else nor reads
    before, is dropped from the loop and its local becomes a run value or
    a column under its own name, which later text reads as such; the
    loop binds a column only where what stays in it reads the column, and
    samples a carried one from its list.  Only the parts that the kind
    evaluates are rewritten: fast (none in a sensitivity run that
    advances S alone, _s_alone), per_stage, slow in coupled and filtered
    runs, jac in sensitivity runs.  A carried text whose parts read
    another local of per_stage is a ConfigError (_check_carried)."""
    _check_carried(text)
    frozen = kind in ("frozen-fast", "sensitivity")
    module = ast.parse(text.per_stage)
    stored = _stored(text.per_stage)
    run = set(text.names) - set(stored) | {f"th{d}" for d in range(len(text.slow)) if frozen}
    row = {f"xi{i}" for i in range(text.row)}
    index, runs, columns = {}, [], []

    def bind(name, node, level):
        index[name] = text.row + len(index)
        (run if level == "run" else row).add(name)
        (runs if level == "run" else columns).append((name, ast.unparse(node)))

    def rewrite(node):
        level = _row_kind(node, run, row)
        if level is not None:
            if isinstance(node, ast.UnaryOp) and isinstance(node.operand, ast.Constant):
                return node  # a signed literal, folded when compiled
            if isinstance(node, (ast.Name, ast.Constant)):
                return node
            name = f"xi{text.row + len(index)}"
            bind(name, node, level)
            return ast.Name(name, ast.Load())
        if isinstance(node, ast.BinOp):
            node.left, node.right = rewrite(node.left), rewrite(node.right)
        elif isinstance(node, ast.UnaryOp):
            node.operand = rewrite(node.operand)
        elif isinstance(node, ast.Call):
            node.args = [rewrite(v) for v in node.args]
            for keyword in node.keywords:
                keyword.value = rewrite(keyword.value)
        elif isinstance(node, (ast.Tuple, ast.List)):
            node.elts = [rewrite(v) for v in node.elts]
        return node

    per_stage, read = text.per_stage, set()
    if all(isinstance(s, (ast.Assign, ast.Expr)) for s in module.body):
        kept = []
        for stmt in module.body:
            target = stmt.targets[0].id if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name) else None
            level = None
            if target is not None and stored.count(target) == 1 and target not in read:
                level = _row_kind(stmt.value, run, row)
            read |= {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            if level is None:
                stmt.value = rewrite(stmt.value)
                kept.append(ast.unparse(stmt))
            else:
                bind(target, stmt.value, level)
        per_stage = "; ".join(kept)

    def parts(expressions):
        return tuple(ast.unparse(rewrite(ast.parse(e, mode="eval").body)) for e in expressions)

    slow = parts(text.slow) if not frozen else text.slow
    fast = () if kind == "sensitivity" and _s_alone(text) else parts(text.fast)
    jac = parts(text.jac) if kind == "sensitivity" else text.jac
    used = _names(*(() if frozen else slow), *fast, *(jac if kind == "sensitivity" else ()), per_stage)
    binds = [(i, f"xi{i}") for i in range(text.row) if f"xi{i}" in used]
    binds += [(index[name], name) for name, _ in columns if name in used]
    carried = index[text.carry] if text.carry in dict(columns) else None
    table = dict(binds)
    if carried is not None:
        table[carried] = text.carry
    return _Lift(
        slow, fast, jac, per_stage, tuple(runs), tuple(columns),
        tuple(name for name, _ in runs if name in used or name == text.carry),
        tuple(sorted(table.items())), tuple(binds), carried,
    )


def _lifted_table(lift, text, theta, table, scope):
    """The probe table ps of a block for a loop on lift: the lists p{n} of
    lift.table, the rows of the probe table table for n < text.row, the
    columns (text_arrays, with the run values scope) above; None elsewhere."""
    values = dict(zip((name for name, _ in lift.columns),
                      text_arrays(text, lift.columns, theta, table, local=scope)))
    ps = [None] * (lift.table[-1][0] + 1 if lift.table else 0)
    for n, name in lift.table:
        ps[n] = (table[n] if n < text.row else values[name]).tolist()
    return ps


@functools.cache
def _theta_free(text):
    """Whether a sensitivity run on text (its key: values None) reads
    neither Lambda nor theta: it advances S alone (_s_alone), and its loop
    reads no th{i}, in jac or through a lifted run value or column that
    jac reads.  Such a run's result depends on text's values, the probe
    table, the fast gain and the step grid alone."""
    if not _s_alone(text):
        return False
    lift = _lift(text, "sensitivity")
    lifted = dict(lift.runs + lift.columns)
    read, new = set(), _names(*lift.jac)
    while new:
        read |= new
        new = set().union(*(_names(lifted[n]) for n in new & lifted.keys())) - read
    return not any(re.fullmatch(r"th\d+", n) for n in read)


def _lattice(count, dim, lo=-1.0, hi=1.0):
    """Deterministic quasi-uniform points in [lo, hi]^dim (no RNG)."""
    i = np.arange(1, count + 1)[:, None]
    j = np.arange(1, dim + 1)[None, :]
    u = 0.5 + 0.5 * np.sin(2.39996322972865332 * i * j + 0.7 * j)
    return lo + (hi - lo) * u


class TwoTimescaleSystem:
    """Coupled slow/fast vector fields with their probing clock.

    The field is text, a StageText whose slow, fast and jac are tuples of
    dim_slow, dim_fast and dim_fast**2 expression strings (else
    ConfigError naming the part), which runs write into their loop
    (module docstring).  frozen, a map from a pinned theta list to the
    StageText of the same field there, stands in for text in frozen-fast
    and sensitivity runs.  The
    stage field compiled from text (text_field), self.stage, keeps no
    memo: a list handed to it may change once the call returns.  An exact
    Fourier form of the stacked slow and fast parts at unit gains is
    checked against the stage field at construction.  lambda_star /
    theta_star record known equilibria.
    """

    # read by the benchmark tracer (bench/spans.py) alone; ROADMAP item 1 removes them
    g = h = g_probe = None

    def __init__(
        self,
        dim_slow,
        dim_fast,
        basis,
        probing=None,
        *,
        text,
        fourier=None,
        frozen=None,
        lambda_star=None,
        theta_star=None,
        name=None,
    ):
        if dim_slow < 1 or dim_fast < 1:
            raise ConfigError("state dimensions must be positive")
        self.dim_slow = int(dim_slow)
        self.dim_fast = int(dim_fast)
        for part, size in (("slow", self.dim_slow), ("fast", self.dim_fast), ("jac", self.dim_fast**2)):
            exprs = getattr(text, part)
            if type(exprs) is not tuple:
                kind = type(exprs).__name__
                raise ConfigError(f"stage text {part} is a {kind}, not a tuple of expressions")
            odd = next((type(e).__name__ for e in exprs if type(e) is not str), None)
            if odd is not None:
                raise ConfigError(f"stage text {part} holds a {odd}, not an expression")
            if len(exprs) != size:
                raise ConfigError(f"stage text has {len(exprs)} {part} part(s), expected {size}")
        _check_loop_names(text)
        self.basis = basis
        self.probing = probing if probing is not None else identity_map(basis.size)
        self.fourier = fourier
        self.stage = text_field(text)[0]
        self.text = text
        self.frozen = frozen
        self.lambda_star = lambda_star
        self.theta_star = theta_star
        self.name = name
        if fourier is not None:
            if fourier.dim_out != self.dim_slow + self.dim_fast:
                raise ConfigError(
                    "fourier form must stack the slow and fast parts: expected dim_out "
                    f"{self.dim_slow + self.dim_fast}, got {fourier.dim_out}"
                )
            self._check_fourier_agreement()

    def analysis_floats(self, theta, lam, xi):
        """The averaged slow field at array-likes theta, lam, xi as a list
        of floats: the stage field's slow part at a = 1.0, which is exact."""
        return self.stage(*_float_lists(theta, lam, xi), 1.0, None)[0]

    def _check_fourier_agreement(self, count=24, tol=1e-10):
        pts = _lattice(count, self.dim_slow + self.dim_fast)
        ts = 0.37 * np.arange(count) + 0.11
        clocks = np.exp(2j * math.pi * clock_phases(self.basis, ts)).T
        ds = self.dim_slow
        direct = [
            np.concatenate(self.stage(*_float_lists(x[:ds], x[ds:], xi), 1.0, 1.0))
            for x, xi in zip(pts, probe_signal(self.probing, self.basis, ts).T)
        ]
        worst = float(np.max(np.abs(self.fourier.eval(pts, clocks) - direct)))
        if worst > tol:
            raise ConfigError(
                f"fourier form disagrees with the stage field (max defect {worst:.3e})"
            )


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled integration output.

    phases holds the fractional clock phases (K, N), recomputed analytically
    from the sample times.  a and beta are the gain values at each sample.
    lam_filtered / dlam_filtered are present only for filtered runs.  A
    frozen-fast run holds in text the StageText it ran on, and in measured
    its carried local at each sample (the seeker's measurement y).
    """

    t: np.ndarray
    theta: np.ndarray
    lam: np.ndarray
    a: np.ndarray
    beta: np.ndarray
    phases: np.ndarray
    lam_filtered: np.ndarray = None
    dlam_filtered: np.ndarray = None
    measured: np.ndarray = None
    text: StageText = None

    @property
    def n_samples(self):
        return self.t.shape[0]

    def to_csv(self, path):
        """Write samples as CSV (write_csv) to a file name or text stream."""
        blocks = {"theta": self.theta, "lambda": self.lam, "lambdaF": self.lam_filtered}
        blocks = [(k, v) for k, v in blocks.items() if v is not None]
        blocks.append(("phase", self.phases.T))
        names = ["t", "a_t", "beta"]
        names += [f"{k}_{i + 1}" for k, v in blocks for i in range(v.shape[1])]
        write_csv(path, names, [self.t, self.a, self.beta] + [v for _, v in blocks])


def write_csv(path, names, data):
    """Write the header names and the rows of data as CSV with 17
    significant digits per value to a file name or text stream:
    np.savetxt's bytes (fmt "%.17g", header without comment prefix).
    data is a 2-D float array or a sequence of arrays with one row per
    CSV row (1-D columns or 2-D blocks of columns), stacked side by side
    one block of _CSV_BLOCK rows at a time (_csv_rows formats a block)."""
    columns = [data] if isinstance(data, np.ndarray) else list(data)
    with contextlib.ExitStack() as stack:
        fh = path if hasattr(path, "write") else stack.enter_context(open(path, "w"))
        fh.write(",".join(names) + "\n")
        for lo in range(0, columns[0].shape[0], _CSV_BLOCK):
            block = np.column_stack([c[lo : lo + _CSV_BLOCK] for c in columns])
            fh.write(_csv_rows(block).decode("ascii"))


def _scaled17(a, e10):
    """round(a * 10**(16 - e10)) as int64, half to even, exactly, for
    positive a and 0 <= 16 - e10 <= 20.  p + e is the product exactly
    (Dekker's two-product); where the result has 17 digits p is an even
    integer above 2**53, so rounding e alone rounds p + e."""
    k = 16 - e10
    p = a * np.take(_POW10, k)
    t = a * _SPLITTER
    a_hi = t - (t - a)
    a_lo = a - a_hi
    c_hi, c_lo = np.take(_POW10_HI, k), np.take(_POW10_LO, k)
    e = ((a_hi * c_hi - p) + a_hi * c_lo + a_lo * c_hi) + a_lo * c_lo
    return p.astype(np.int64) + np.rint(e).astype(np.int64)


def _digit_planes(a):
    """The decimal exponent E of each positive a (1e-4 <= a < 1e17) after
    rounding to 17 significant digits, its digit string "00000" + the 17
    digits (the first of weight 10**E at index 5) as 23 uint8 planes of
    one byte per value (index 22 unused), and the count of trailing zero
    digits.  E is estimated by log10 and corrected until the 17 digits,
    N = round(a * 10**(16 - E)) (_scaled17), are 10**16 <= N < 10**17."""
    e10 = np.clip(np.floor(np.log10(a)), -4, 16).astype(np.int64)
    n17 = _scaled17(a, e10)
    off = np.flatnonzero((n17 < 10**16) | (n17 >= 10**17))
    while off.size:
        e10[off] += np.where(n17[off] < 10**16, -1, 1)
        n17[off] = _scaled17(a[off], e10[off])
        off = off[(n17[off] < 10**16) | (n17[off] >= 10**17)]
    lead, tail = np.divmod(n17, 10**16)
    quads = np.empty((4, a.size), np.int64)
    hi8, lo8 = np.divmod(tail, 10**8)
    np.divmod(hi8, 10**4, out=(quads[0], quads[1]))
    np.divmod(lo8, 10**4, out=(quads[2], quads[3]))
    d = np.full((23, a.size), ord("0"), np.uint8)
    d[5] += lead.astype(np.uint8)
    d[6:22].reshape(4, 4, -1)[...] = (
        np.take(_DIGITS4, quads).view(np.uint8).reshape(4, -1, 4).transpose(0, 2, 1)
    )
    zeros = np.take(_ZEROS4, quads[3])
    for k in (2, 1, 0):
        zeros = np.where(zeros == 12 - 4 * k, zeros + np.take(_ZEROS4, quads[k]), zeros)
    return e10, d, zeros


def _csv_rows(block):
    """The rows of the 2-D array block as ASCII CSV lines, each value
    formatted exactly as '%.17g' formats it.

    '%.17g' writes x in fixed notation when its decimal exponent E (of x
    rounded to 17 digits) is in [-4, 16], which holds for 1e-4 <= |x| <
    1e17.  Those values are formatted here on arrays (_digit_planes).
    Each value gets a row of 25 bytes, [sign, 22 digit/point slots,
    spare, separator], built one byte position at a time across the
    block (planes), and a mask (_CSV_KEEP) keeps the sign if negative,
    the slots from the first digit printed to the last nonzero one (the
    point too if a fraction digit is kept) and the separator; one
    compaction joins the block.  Every other value (0, -0.0, nan, +-inf,
    |x| < 1e-4, |x| >= 1e17) is formatted by '%.17g' itself, one string
    for all of them, and its bytes are placed in its row."""
    rows, cols = block.shape
    x = np.ascontiguousarray(block, dtype=np.float64).ravel()
    n = x.size
    a = np.abs(x)
    fixed = (a >= 1e-4) & (a < 1e17)
    e10, d, zeros = _digit_planes(np.where(fixed, a, 1.0))

    # slots: d[1:22] with the point after the digit of weight 10**0 (d
    # index 5 + E, slot 4 + E) and the digits after it one slot on; a
    # blend, not a masked copy, because the mask changes from value to value
    planes = np.empty((25, n), np.uint8)
    point = (5 + e10).astype(np.uint8)
    before = np.arange(22, dtype=np.uint8)[:, None] < point
    np.multiply(d[1:] - d[:22], before.view(np.uint8), out=planes[1:23])
    planes[1:23] += d[:22]
    planes.reshape(-1)[(1 + point.astype(np.intp)) * n + np.arange(n)] = ord(".")
    planes[0] = ord("-")
    sep = np.full((rows, cols), ord(","), np.uint8)
    sep[:, -1] = ord("\n")
    planes[24] = sep.ravel()
    # kept slots: from the first digit printed ("0" of 0.xxx if E < 0) to
    # the last nonzero digit; without the point if no fraction digit is left
    first = 5 + np.minimum(e10, 0)
    end = np.where(zeros <= 15 - e10, 23 - zeros, 6 + e10)
    negative = x < 0

    other = np.flatnonzero(~fixed)
    if other.size:
        text = ("%-24.17g" * other.size % tuple(x[other].tolist())).encode("ascii")
        chars = np.frombuffer(text, np.uint8).reshape(-1, 24)
        planes[:24, other] = chars.T
        first[other] = 0
        end[other] = np.count_nonzero(chars != ord(" "), axis=1)
        negative[other] = False
    keep = np.take(_CSV_KEEP, (first * 25 + end) * 2 + negative, axis=0)
    return planes.T[keep].tobytes()


def step_bound(basis, beta):
    """Largest admissible RK4 step: resolves the fastest probe and the
    fast time constant (at least 40 steps per probe period, 20 per 1/beta)."""
    return min(1.0 / (40.0 * basis.max_omega), 0.05 / beta, 0.05)


def _resolve_step(basis, beta, horizon, step):
    if horizon <= 0:
        raise ConfigError(f"horizon must be positive, got {horizon}")
    bound = step_bound(basis, beta)
    if step is None:
        h = bound
    else:
        if step <= 0:
            raise ConfigError(f"step must be positive, got {step}")
        if step > bound * (1.0 + 1e-12):
            raise ConfigError(
                f"step {step:.6g} exceeds the policy bound {bound:.6g}"
            )
        h = float(step)
    n_steps = max(1, math.ceil(horizon / h - 1e-12))
    return horizon / n_steps, n_steps


def _float_lists(*arrays):
    """Each array-like as a flat list of Python floats, via float64."""
    return [np.asarray(v, dtype=float).ravel().tolist() for v in arrays]


def _step_loop_source(shape):
    """Python source of the RK4 loop over one block of steps for one run
    shape (dim_slow, dim_fast, kind, key) on the StageText key, written
    out per component (see _rk4).  A sensitivity loop on a key for which
    _s_alone holds holds, updates and tests vec S alone, and writes out
    jac and the S derivative only.  The loop's first parameter, field, is
    read by no loop; it stays so that the sources keep their pinned sha256
    (tests/test_stage_text.py)."""
    ds, df, kind, text = shape
    frozen = kind in ("frozen-fast", "sensitivity")
    # Lambda's place in the stack (none where S rides alone), then filter or vec S
    lo = 0 if frozen else ds
    lam = range(lo, lo if kind == "sensitivity" and _s_alone(text) else lo + df)
    size = {"coupled": ds + df, "filtered": ds + 3 * df, "frozen-fast": df,
            "sensitivity": len(lam) + df * df}[kind]
    comps, rest = range(size), range(lam.stop, size)
    carry = text.carry is not None
    lift = _lift(text, kind)
    # the stack's carried entry unpacks to the carried local, or, where
    # that is lifted out, to a marker; None until bound.  A carried column
    # is sampled from its list
    lifted = carry and (lift.carried is not None or text.carry in lift.args)
    marker = f"x{size}, " if lifted else f"{text.carry}, " if carry else ""
    sample = f"p{lift.carried}[{{}}], " if lifted and lift.carried is not None else (
        f"{text.carry}, " if carry else "")

    def seq(fmt, idx):
        return "".join(fmt.format(d) + ", " for d in idx)  # a 1-tuple too

    def stage(k, state, j, a, b):
        """Lines setting k{k}_d from the stage state's component expressions;
        the stage reads the probe table at index j."""
        out = []
        if k in (2, 4):  # a new probe row, the entries read once each
            out += [f"{local} = p{n}[{j}]" for n, local in lift.binds]
            if carry and lift.per_stage:
                out.append(lift.per_stage)
        local = {d: f"la{i}" for i, d in enumerate(lam)}
        if not frozen:
            local.update({d: f"th{d}" for d in range(ds)})
        if kind == "filtered" and k > 1:
            local.update({d: f"fl{d}" for d in rest})
        out += [f"{v} = {state[d]}" for d, v in sorted(local.items())]
        state = [local.get(d, state[d]) for d in comps]
        if lift.per_stage and not carry:
            out.append(lift.per_stage)
        if not frozen:
            if _reads_gain(text):  # bound only where read: other loops keep their source
                out.append(f"a = {a}")
                a = "a"
            out += [f"k{k}_{d} = {a} * ({e})" for d, e in enumerate(lift.slow)]
        out += [f"k{k}_{d} = {b} * ({e})" for d, e in zip(lam, lift.fast)]
        if kind == "filtered":
            for d in lam:
                f, v = d + df, d + 2 * df
                out.append(f"k{k}_{f} = {state[v]}")
                out.append(f"k{k}_{v} = gamma2 * ({state[d]} - {state[f]}) - two_zg * {state[v]}")
        elif kind == "sensitivity":  # S_ij' = b * (0.0 + J_i0 * S_0j + J_i1 * S_1j + ...)
            for i in range(df):
                for c in range(df):
                    terms = "".join(
                        f" + ({lift.jac[i * df + m]}) * ({state[rest[m * df + c]]})" for m in range(df)
                    )
                    out.append(f"k{k}_{rest[i * df + c]} = {b} * (0.0{terms})")
        return ["        " + line for line in out]

    def state(c, k):
        return [f"x{d} + {c} * k{k}_{d}" for d in comps]

    unpack = {"filtered": "gamma2, two_zg, ", "frozen-fast": "th, ", "sensitivity": "th, "}
    lines = [
        "def rk4_block(field, args, x, ps, a_all, b, gi, j_lo, j_hi, stride, rows,",
        "              h, half, sixth):",
        f"    {unpack.get(kind, '') + seq('{}', (*text.names, *lift.args)) or '() '}= args",
        *([f"    {seq('th{}', range(ds))}= th"] if frozen else []),
        f"    {seq('x{}', comps)}{marker}= x",
        *(f"    p{n} = ps[{n}]" for n, _ in lift.table),
        *(f"    {local} = p{n}[j_lo]" for n, local in lift.binds),
        *([f"    if {marker[:-2]} is None:", f"        {lift.per_stage}"] if carry and lift.per_stage else []),
        "    for j in range(j_lo, j_hi, 2):",
        "        if gi % stride == 0:",
        f"            rows += ({seq('x{}', comps)}{sample.format('j')})",
        *([] if frozen else ["        am = a_all[j + 1]"]),
        *stage(1, [f"x{d}" for d in comps], "j", "a_all[j]", "b"),
        *stage(2, state("half", 1), "j + 1", "am", "b"),
        *stage(3, state("half", 2), "j + 1", "am", "b"),
        *stage(4, state("h", 3), "j + 2", "a_all[j + 2]", "b"),
        *(f"        x{d} = x{d} + sixth * (k1_{d} + 2.0 * (k2_{d} + k3_{d}) + k4_{d})" for d in comps),
        "        gi += 1",
        "        if " + " + ".join(f"(x{d} - x{d})" for d in comps) + " != 0.0:  # inf or nan",
        "            raise NonFinite(gi * h)",
        f"    return [{seq('x{}', comps)}{sample.format('j_hi')}]",
    ]
    return "\n".join(lines) + "\n"


def _step_loop(shape):
    """The compiled block loop of _step_loop_source(shape), built on first
    use and kept in _STEP_LOOPS."""
    loop = _STEP_LOOPS.get(shape)
    if loop is None:
        namespace = {"NonFinite": NonFinite}
        name = "<qsakit.dynamics rk4 {} {}+{}>".format(shape[2], *shape[:2])
        exec(compile(_step_loop_source(shape), name, "exec"), namespace)
        loop = _STEP_LOOPS[shape] = namespace["rk4_block"]
    return loop


def _rk4(shape, args, x, h, n_steps, sample_stride, system, gains, b, stops=(), at_stop=None):
    """Advance the stacked state x by n_steps RK4 steps of size h.

    shape is the run's (dim_slow, dim_fast, kind, text key) and x its
    stacked state (module docstring) at step 0, vec S alone in a
    sensitivity run on a key for which _s_alone holds: stage times are
    (i + 0.5*k)*h for step i and k in {0, 1, 2}.  After each step s of the
    ascending stops, x is replaced by at_stop(s, x).

    Each block's probe table (_probe_table) is built once per (probing
    map, basis, h, block bounds) in an open grid store and kept there,
    read-only, until the grid call ends (_grid_store): the points of a
    grid, which share step and horizon, share it, and the store holds
    one table per block of the horizon (0.69 MB for a 5-point lambda
    grid of linear-3.1 at beta = 0.1, 0.75 MB for the benchmark seeker's
    Newton root).  Outside a store it is built for the run alone.

    x and every stage state are lists of Python floats.  Each stage reads
    the slow gain a, listed by gains(ts) for the block's stage times ts
    (gains is None in runs that read no a), and the constant fast gain b.
    args are the run's constants by kind: (gamma2, two_zg) of the filter,
    the pinned theta list of a frozen-fast or sensitivity run, () when
    coupled; the text's values end them (_on_text).  Its row-only
    arithmetic is lifted out of the loop (_lift): the run values, computed
    once on floats, end the args the loop gets, and each block's table
    holds, as float lists, the probe components and the columns
    (text_arrays on the block's probe array) that the loop reads, None for
    the others.  A probe table of another length than the text's row is a
    ConfigError (_row_error), as in the text's compiled field.  The steps
    of each block of _CHUNK run in the loop generated for shape
    (_step_loop), which writes every component's arithmetic out in
    numpy's elementwise order (x + half*k, x + h*k, then x + sixth*(k1 +
    2*(k2 + k3) + k4)), so it rounds as float64 arrays would; the block's
    samples are stored at once.  Returns the sample times (every
    sample_stride steps, plus the final time) and the (n, D) buffer of
    states there.  Raises NonFinite at the end of the first step that
    leaves x non-finite, and ConfigError where a block's samples or the
    final x are complex (_real): x - x is 0j at a finite complex x, so the
    loop runs on.
    """
    steps = np.append(np.arange(0, n_steps, sample_stride), n_steps)
    size = len(x)
    samples = np.empty((steps.shape[0], size))
    loop = _step_loop(shape)
    pmap, basis, (kind, key) = system.probing, system.basis, shape[2:]
    lift, scope = _lift(key, kind), None
    text = key._replace(values=args[len(args) - len(key.names):])
    theta = args[0] if kind in ("frozen-fast", "sensitivity") else ()
    cursor = 0
    h, b = float(h), float(b)  # a numpy scalar would make every stage product a numpy op
    sixth = h / 6.0
    half = h * 0.5
    stops = iter(stops)
    stop = next(stops, None)
    a_all = None
    for chunk in range(0, n_steps, _CHUNK):
        end = min(chunk + _CHUNK, n_steps)
        # stage times for steps chunk..end-1: half-grid from chunk*h
        ts = (chunk + 0.5 * np.arange(2 * (end - chunk) + 1)) * h
        table = _shared(("probe", pmap, basis, h, chunk, end), _probe_table, pmap, basis, ts)
        if table.shape[0] != text.row:  # the loop reads only some of them
            raise _row_error(table.shape[0], text.row)
        if scope is None:  # the run values, once the table is known good
            scope = dict(zip((name for name, _ in lift.runs), text_arrays(text, lift.runs, theta, ())))
            args += tuple(scope[name] for name in lift.args)
        ps = _lifted_table(lift, text, theta, table, scope)
        if gains is not None:
            a_all = gains(ts)
        rows, gi = [], chunk
        while gi < end:
            hi = end if stop is None else min(end, stop)
            x = loop(None, args, x, ps, a_all, b, gi, 2 * (gi - chunk), 2 * (hi - chunk),
                     sample_stride, rows, h, half, sixth)
            if hi == stop:
                x = at_stop(stop, x)
                stop = next(stops, None)
            gi = hi
        if rows:
            n = len(rows) // size
            samples[cursor : cursor + n] = _real(rows, chunk, end, h).reshape(n, size)
            cursor += n
    samples[cursor] = _real(x, chunk, end, h)
    return steps * h, samples


def _probe_table(pmap, basis, ts):
    """The probe values at the times ts (probe_signal) as a read-only
    float64 array of its own, which a store may hold without the complex
    clock array a map's view would keep alive."""
    table = np.array(probe_signal(pmap, basis, ts), dtype=float)
    table.flags.writeable = False
    return table


def _real(values, lo, hi, h):
    """values, states of the steps lo..hi of step h, as a float array; a
    complex one (a stage value off the reals, such as a negative number's
    fractional power) is a ConfigError naming their time span."""
    block = np.array(values)
    if block.dtype.kind == "c":
        raise ConfigError(
            f"stage values are not real: the state is complex in the steps "
            f"from t = {lo * h:.6g} to t = {hi * h:.6g}"
        )
    return block


def integrate(
    system,
    schedule,
    x0,
    horizon,
    *,
    step=None,
    filt=None,
    sample_stride=1,
    filter_init=None,
):
    """Integrate the coupled pair with RK4 on a uniform grid.

    x0 is the pair (theta0, lambda0); the RK4 kernel advances the stacked
    state [theta; lambda].  With filt (a SecondOrderFilter) the stack is
    extended by (Lambda^F, dLambda^F), initialized to (lambda0, 0) unless
    filter_init overrides them; the filter only observes Lambda, so theta
    and lam are those of an unfiltered run.  Samples are stored every
    sample_stride steps plus the final time, as column views of one
    buffer.  Raises NonFinite with the offending time on blow-up.
    """
    if sample_stride < 1:
        raise ConfigError(f"sample_stride must be >= 1, got {sample_stride}")
    theta = np.atleast_1d(np.asarray(x0[0], dtype=float))
    lam = np.atleast_1d(np.asarray(x0[1], dtype=float))
    if theta.shape != (system.dim_slow,) or lam.shape != (system.dim_fast,):
        raise ConfigError(
            f"x0 shapes {theta.shape}/{lam.shape} do not match system "
            f"dimensions {system.dim_slow}/{system.dim_fast}"
        )
    h, n_steps = _resolve_step(system.basis, schedule.beta, horizon, step)

    ds, df = system.dim_slow, system.dim_fast
    blocks, shape, args = [theta, lam], (ds, df, "coupled"), ()
    if filt is not None:
        if filter_init is None:
            blocks += [lam, np.zeros_like(lam)]
        else:
            lam_f = np.atleast_1d(np.asarray(filter_init[0], dtype=float))
            vel_f = np.atleast_1d(np.asarray(filter_init[1], dtype=float))
            if lam_f.shape != lam.shape or vel_f.shape != lam.shape:
                raise ConfigError("filter_init shapes must match lambda0")
            blocks += [lam_f, vel_f]
        shape, args = (ds, df, "filtered"), (filt.gamma**2, 2.0 * filt.zeta * filt.gamma)
    shape, args, x = _on_text(system.text, shape, args, np.concatenate(blocks).tolist())
    dx = ds + df

    def gains(ts):
        return schedule.slow_gain_array(ts).tolist()

    t, samples = _rk4(shape, args, x, h, n_steps, sample_stride, system, gains, schedule.beta)
    return Trajectory(
        t=t,
        theta=samples[:, :ds],
        lam=samples[:, ds:dx],
        a=schedule.slow_gain_array(t),
        beta=schedule.fast_gain_array(t),
        phases=clock_phases(system.basis, t),
        lam_filtered=samples[:, dx : dx + df] if filt is not None else None,
        dlam_filtered=samples[:, dx + df :] if filt is not None else None,
    )


def _pinned_text(system, th):
    """The StageText a run at the pinned theta list th writes into the
    loop: the system's frozen text at th, else its text."""
    return system.text if system.frozen is None else system.frozen(th)


def integrate_frozen_fast(system, theta, lambda0, beta, horizon, *, step=None, sample_stride=1):
    """Integrate the fast variable alone with the slow one pinned:

        d/dt Lambda = beta * h(theta, Lambda, xi_t).

    The RK4 kernel advances Lambda alone on the system's frozen text at
    theta, else on its text.  Returns a Trajectory whose theta block
    repeats the frozen value, whose slow-gain column is zero and which
    holds the text it ran on, with its carried local at each sample.
    """
    if sample_stride < 1:
        raise ConfigError(f"sample_stride must be >= 1, got {sample_stride}")
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    lam = np.atleast_1d(np.asarray(lambda0, dtype=float))
    if theta.shape != (system.dim_slow,) or lam.shape != (system.dim_fast,):
        raise ConfigError("frozen state shapes do not match system dimensions")
    if beta <= 0:
        raise ConfigError(f"beta must be positive, got {beta}")
    h, n_steps = _resolve_step(system.basis, beta, horizon, step)
    ds, df, th = system.dim_slow, system.dim_fast, theta.tolist()
    text = _pinned_text(system, th)
    shape, args, x = _on_text(text, (ds, df, "frozen-fast"), (th,), lam.tolist())
    t, samples = _rk4(shape, args, x, h, n_steps, sample_stride, system, None, beta)
    n = t.shape[0]
    return Trajectory(
        t=t,
        theta=np.tile(theta, (n, 1)),
        lam=samples[:, :df],
        a=np.zeros(n),
        beta=np.full(n, float(beta)),
        phases=clock_phases(system.basis, t),
        measured=None if text.carry is None else samples[:, df],
        text=text,
    )
