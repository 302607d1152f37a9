"""Shuffle maps: the chain level product and the operation riding on it.

The product of a level p form and a level q form is a sum over all
(p, q) shuffles, each factor receiving the degeneracies named by the
other half of the shuffle.  Over GF(2) the shuffle signs disappear, so
everything below is literal summation.  The halved diagonal variant,
restricted to shuffles whose first half starts at 0, is the one
operation that does not vanish identically mod 2.

The product never builds the degenerate factors as forms.  The
degeneracies s_nu, applied lowest index first, leave the (0-indexed)
slots nu empty and fill the slots mu in order, so in s_nu(u) s_mu(v)
the two factors never share a y or dy slot: each shuffle just
interleaves the slots of a monomial pair, and only a shared dx can
kill the term.

Alongside the product sit face-compatibility checks and two families
of membership arguments whose explicit certificates (a chain whose
faces are computed outright) are verified rather than trusted.
"""

from __future__ import annotations

import marshal
import os
import sys
from functools import cache
from itertools import combinations
from operator import itemgetter
from typing import Callable, Iterable, Iterator

from .algebra import Form, GradingSpec, Mono, new_mono
from .gf2 import low_bit
from .homology import is_cycle, is_normalized, normalized_basis
from .rng import SplitMix
from .simplicial import degeneracy, face

__all__ = [
    "shuffles",
    "degeneracy_chain",
    "shuffle_product",
    "delta_top",
    "m_form",
    "q_form",
    "ez_bottom_check",
    "ez_face_checks",
    "lemma_products_check",
    "lemma_squares_check",
    "run_trials",
    "trial_workers",
]


def shuffles(p: int, q: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All (p, q) shuffle pairs (mu, nu), in lex order on mu.

    mu takes p of the positions 0 .. p+q-1 and nu the rest, both
    strictly increasing.

    >>> list(shuffles(1, 1))
    [((0,), (1,)), ((1,), (0,))]
    >>> sum(1 for _ in shuffles(2, 2))
    6
    """
    positions = range(p + q)
    for mu in combinations(positions, p):
        chosen = set(mu)
        nu = tuple(k for k in positions if k not in chosen)
        yield mu, nu


def degeneracy_chain(indices: tuple[int, ...], form: Form) -> Form:
    """Compose degeneracies, lowest index applied first."""
    for i in indices:
        form = degeneracy(i, form)
    return form


@cache
def _slot_pickers(
    p: int, q: int, zero_in_mu: bool = False
) -> tuple[Callable[[tuple[int, ...]], tuple[int, ...]], ...]:
    """For each (p, q) shuffle, a map from u's slots + v's slots to the product's.

    Slot k of the product takes u's entry i when k = mu[i] and v's entry
    j when k = nu[j].  At most one slot means the identity, and tuple is
    the identity on tuples (itemgetter needs two indices to give one).
    With zero_in_mu, only the shuffles with mu[0] == 0 are kept.
    """
    pickers = []
    for mu, nu in shuffles(p, q):
        if zero_in_mu and mu[0] != 0:
            continue
        order = [0] * (p + q)
        for i, k in enumerate(mu):
            order[k] = i
        for j, k in enumerate(nu):
            order[k] = p + j
        pickers.append(itemgetter(*order) if p + q > 1 else tuple)
    return tuple(pickers)


def _interleave_sum(a: Form, b: Form, pickers: Iterable[Callable]) -> Form:
    """Sum over the given shuffles of s_nu(a) s_mu(b), mod 2."""
    if not a.terms or not b.terms:
        return Form.zero(a.level + b.level)
    acc: set[Mono] = set()
    for u in a.terms:
        for v in b.terms:
            if u.dx and v.dx:
                continue
            x, dx = u.x + v.x, u.dx | v.dx
            y, dy = u.y + v.y, u.dy + v.dy
            for pick in pickers:
                term = new_mono((x, dx, pick(y), pick(dy)))
                if term in acc:
                    acc.remove(term)
                else:
                    acc.add(term)
    return Form(a.level + b.level, frozenset(acc))


def shuffle_product(a: Form, b: Form) -> Form:
    """Shuffle product of a level p and a level q form, landing at p+q.

    The level p factor receives the q complementary indices and the
    level q factor the p chosen ones; mod 2 the shuffle sign is gone.
    s_nu(u) is u with its slots moved to mu and empty slots at nu, and
    s_mu(v) the other way round, so the term of a monomial pair u, v
    under (mu, nu) has x = u.x + v.x, dx = u.dx | v.dx (zero when both
    carry dx) and y, dy taken from u at mu and from v at nu.
    """
    return _interleave_sum(a, b, _slot_pickers(a.level, b.level))


def delta_top(spec: GradingSpec, z: Form) -> Form:
    """The halved diagonal of a normalized cycle at level q, at level 2q.

    Summing s_nu(z) s_mu(z) over all (q, q) shuffles counts unordered
    pairs twice and dies mod 2; the surviving operation keeps only the
    shuffles with 0 in mu, of which there are an odd binomial number
    exactly when q is a power of two.  Defined for q at least 2 and
    only on normalized cycles, both checked.
    """
    q = z.level
    if q < 2:
        raise ValueError("the diagonal operation needs level at least 2")
    if not is_cycle(spec, z):
        raise ValueError("the diagonal operation is only defined on cycles")
    return _interleave_sum(z, z, _slot_pickers(q, q, zero_in_mu=True))


def m_form(a: Form, b: Form) -> Form:
    """Symmetrized two-step degeneracy product, one level up."""
    if a.level != b.level or a.level < 1:
        raise ValueError("both factors must share a level of at least 1")
    return degeneracy(0, a) * degeneracy(1, b) + degeneracy(0, b) * degeneracy(1, a)


def q_form(a: Form) -> Form:
    """The quadratic companion of m_form; q(a+b) differs from q(a)+q(b) by m(a, b)."""
    if a.level < 1:
        raise ValueError("needs level at least 1")
    return degeneracy(0, a) * degeneracy(1, a)


def ez_bottom_check(spec: GradingSpec, a: Form, b: Form) -> bool:
    """Bottom face against the shuffle product of bottom faces.

    Factors at level 0 contribute no bottom term; over GF(2) the sign
    on the second summand is invisible.
    """
    p, q = a.level, b.level
    if p + q < 1:
        raise ValueError("needs a positive total level")
    lhs = face(spec.n, 0, shuffle_product(a, b))
    rhs = Form.zero(p + q - 1)
    if p:
        rhs = rhs + shuffle_product(face(spec.n, 0, a), b)
    if q:
        rhs = rhs + shuffle_product(a, face(spec.n, 0, b))
    return lhs == rhs


def _killed_by_faces(n: int, form: Form) -> int:
    """The largest k such that the faces 1 .. k all kill the form."""
    for t in range(1, form.level + 1):
        if face(n, t, form):
            return t - 1
    return form.level


def ez_face_checks(spec: GradingSpec, a: Form, b: Form) -> list[tuple[int, str]]:
    """Higher faces of a shuffle product of sufficiently normalized factors.

    When both factors are killed by their faces 1 .. i (cut off at
    their own levels), face i of the product must vanish.  Returns one
    (i, verdict) per face, verdict "vacuous" when the hypothesis fails,
    so a caller feeding random forms can see how many checks bit.
    """
    p, q = a.level, b.level
    rho = shuffle_product(a, b)
    killed_a, killed_b = _killed_by_faces(spec.n, a), _killed_by_faces(spec.n, b)
    out = []
    for i in range(1, p + q + 1):
        if min(i, p) > killed_a or min(i, q) > killed_b:
            out.append((i, "vacuous"))
        else:
            out.append((i, "pass" if not face(spec.n, i, rho) else "fail"))
    return out


def _verdict(hypothesis: bool, holds: bool) -> str:
    if not hypothesis:
        return "vacuous"
    return "pass" if holds else "fail"


def lemma_products_check(
    spec: GradingSpec,
    a: Form,
    b: Form,
    c: Form,
    x: Form,
) -> dict[str, str]:
    """Membership, cycle and boundary facts for s1 s0(c) m(a, b).

    a and b must be normalized at some level, c lives one level below,
    and x, normalized one level above, is a proposed chain with bottom
    face b.  The boundary branch verifies an explicit certificate: a
    level + 2 chain all of whose faces are computed and compared.
    """
    n_level = a.level
    if n_level < 1 or b.level != n_level or c.level != n_level - 1:
        raise ValueError("levels must be (k, k, k - 1) with k at least 1")
    if not is_normalized(spec.n, a) or not is_normalized(spec.n, b):
        raise ValueError("both main factors must be normalized")
    if x.level != n_level + 1 or not is_normalized(spec.n, x):
        raise ValueError("the chain certificate must be normalized one level up")

    s10c = degeneracy(1, degeneracy(0, c))
    elem = s10c * m_form(a, b)
    membership = _verdict(True, is_normalized(spec.n, elem))

    d0a_c = face(spec.n, 0, a) * c
    d0b_c = face(spec.n, 0, b) * c
    cycle = _verdict(not d0a_c and not d0b_c, not face(spec.n, 0, elem))

    boundary = "vacuous"
    if not d0a_c and b == face(spec.n, 0, x):
        s0a = degeneracy(0, a)
        chain = degeneracy(2, s10c) * (
            degeneracy(2, degeneracy(1, a)) * degeneracy(0, x)
            + degeneracy(2, s0a) * degeneracy(1, x)
            + degeneracy(1, s0a) * degeneracy(2, x)
        )
        holds = face(spec.n, 0, chain) == elem and is_normalized(spec.n, chain)
        boundary = _verdict(True, holds)

    return {"membership": membership, "cycle": cycle, "boundary": boundary}


def lemma_squares_check(spec: GradingSpec, a: Form, b: Form, c: Form) -> dict[str, str]:
    """Face values of s0(c) q(a) and a boundary certificate for q of a face.

    a normalized at level k, b normalized at level k + 1, c unrestricted
    at level k.  The identities verdict checks every face of s0(c) q(a)
    outright: face 1 is c a a, face 0 is c a s0(d0 a), and faces 2 .. k+1
    vanish.  So s0(c) q(a) is normalized when c a a = 0 and a cycle when
    both products vanish; those follow from the identities and are not
    counted as verdicts of their own.  The boundary verdict verifies the
    explicit level k + 2 chain for s0(c) q(bottom face of b).
    """
    k = a.level
    if k < 1 or b.level != k + 1 or c.level != k:
        raise ValueError("levels must be (k, k + 1, k) with k at least 1")
    if not is_normalized(spec.n, a):
        raise ValueError("the squared factor must be normalized")
    if not is_normalized(spec.n, b):
        raise ValueError("the bounding factor must be normalized")

    s0c = degeneracy(0, c)
    elem = s0c * q_form(a)
    faces = [face(spec.n, i, elem) for i in range(k + 2)]
    caa = c * a * a
    d0_value = c * a * degeneracy(0, face(spec.n, 0, a))
    identities = faces[1] == caa and faces[0] == d0_value and not any(faces[2:])

    s0c_bb = s0c * b * b
    boundary = "vacuous"
    if not s0c_bb:
        target = s0c * q_form(face(spec.n, 0, b))
        chain = degeneracy(1, s0c) * degeneracy(1, b) * degeneracy(2, b)
        holds = face(spec.n, 0, chain) == target and is_normalized(spec.n, chain)
        boundary = _verdict(True, holds)

    return {"identities": "pass" if identities else "fail", "boundary": boundary}


def _random_form(rng: SplitMix, level: int) -> Form:
    # Drawn in order: the term count below(3), then per term x below(4) and
    # one bit each for dx, the y slots and the dy slots.  below(2^k) never
    # rejects and returns the draw mod 2^k, its low k bits, as bits(k) does,
    # so each is next64 masked and the stream is the one below/bits drew.
    draw, slots = rng.next64, range(level)
    monos = []
    for _ in range(1 + rng.below(3)):
        x, dx, y = draw() & 3, draw() & 1, tuple([draw() & 1 for _ in slots])
        monos.append(new_mono((x, dx, y, tuple([draw() & 1 for _ in slots]))))
    return Form.from_monos(level, monos)


def _random_normalized(
    spec: GradingSpec, rng: SplitMix, level: int, t_hi: int, draws: dict
) -> Form:
    """A random sum of the normalized basis of a random slice.

    The mask picks basis elements, and the sum is the symmetric difference
    of their terms; the elements are independent, so only the zero mask
    gives zero (an empty slice's mask, bits(0), takes no draw).  Each draw
    counts in draws["normalized"], and each zero one in draws["zero"].
    """
    t = rng.below(t_hi + 1)
    basis = normalized_basis(spec, level, t)
    mask = rng.bits(len(basis))
    terms = frozenset()
    while mask:
        terms ^= basis[low_bit(mask)].terms
        mask &= mask - 1
    draws["normalized"] += 1
    if not terms:
        draws["zero"] += 1
        return Form.zero(level)
    return Form(level, terms)


def _tally(report: dict, verdict: str, zero: bool, trial: int, branch: str, *args) -> None:
    """Count a verdict, and in report["draws"] a pass of a check handed a
    zero form; only a failure formats its name, branch.format(*args)."""
    if verdict == "pass":
        report["passed"] += 1
        report["draws"]["passedOnZero"] += zero
    elif verdict == "vacuous":
        report["vacuous"] += 1
    else:
        report["failures"].append(f"trial {trial}: " + branch.format(*args))


def trial_workers(trials: int) -> int:
    """Processes a sweep of this many trials runs on: one per CPU this
    process may run on, at most one per trial.

    One where os.fork is missing, and one where threading shows a second
    thread, as a forked child gets only the forking thread and may find a
    lock another thread held at the fork.
    """
    if not hasattr(os, "fork"):
        return 1
    threading = sys.modules.get("threading")
    if threading is not None and threading.active_count() > 1:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, trials))


def _check_trials(spec: GradingSpec, max_level: int, seed: int, first: int, stop: int) -> dict:
    """The report of trials first .. stop - 1, in run_trials' shape.

    Trial t draws from SplitMix(seed).stream(t) alone.
    """
    root = SplitMix(seed)
    t_hi = 2 * (spec.n + 1) * spec.m
    draws = {"normalized": 0, "zero": 0, "passedOnZero": 0}
    report = {"trials": stop - first, "passed": 0, "vacuous": 0, "failures": [], "draws": draws}
    for trial in range(first, stop):
        rng = root.stream(trial)
        p = rng.below(max_level + 1)
        q = 1 + rng.below(max_level)
        a, b = _random_form(rng, p), _random_form(rng, q)
        verdict = "pass" if ez_bottom_check(spec, a, b) else "fail"
        _tally(report, verdict, not (a and b), trial, "bottom face")

        a = _random_normalized(spec, rng, 1 + rng.below(max_level), t_hi, draws)
        b = _random_normalized(spec, rng, 1 + rng.below(max_level), t_hi, draws)
        zero = not (a and b)
        for i, verdict in ez_face_checks(spec, a, b):
            _tally(report, verdict, zero, trial, "face {} of product", i)

        k = 1 + rng.below(max_level)
        a = _random_normalized(spec, rng, k, t_hi, draws)
        c = _random_form(rng, k - 1)
        x = _random_normalized(spec, rng, k + 1, t_hi, draws)
        b = face(spec.n, 0, x) if rng.bits(1) else _random_normalized(spec, rng, k, t_hi, draws)
        zero = not (a and b and c)
        for branch, verdict in lemma_products_check(spec, a, b, c, x).items():
            _tally(report, verdict, zero, trial, "products {}", branch)

        if max_level >= 2:
            k = 1 + rng.below(max_level - 1)
            a = _random_normalized(spec, rng, k, t_hi, draws)
            b = _random_normalized(spec, rng, k + 1, t_hi, draws)
            c = _random_form(rng, k)
            zero = not (a and b and c)
            for branch, verdict in lemma_squares_check(spec, a, b, c).items():
                _tally(report, verdict, zero, trial, "squares {}", branch)
    return report


def _fork_chunk(spec: GradingSpec, max_level: int, seed: int, first: int, stop: int) -> tuple:
    """Check trials first .. stop - 1 in a forked child; returns (pid, read end).

    The child writes one marshal record to the pipe, (True, result) or
    (False, (exception module, class name, message)), and leaves only
    through os._exit, so none of the parent's code runs on in it.
    """
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, read
    try:
        os.close(read)
        try:
            record = (True, _check_trials(spec, max_level, seed, first, stop))
        except BaseException as exc:
            kind = type(exc)
            record = (False, (kind.__module__, kind.__qualname__, str(exc)))
        with open(write, "wb") as pipe:
            marshal.dump(record, pipe)
    finally:
        os._exit(0)


def _reap(pid: int, read: int) -> tuple:
    """Read a child's pipe to EOF, then wait for it; (record bytes, wait status)."""
    with open(read, "rb") as pipe:
        data = pipe.read()
    return data, os.waitpid(pid, 0)[1]


def _child_result(data: bytes, status: int, first: int, stop: int) -> tuple:
    """A child's chunk result, or its exception raised again with its type
    and message (a class this process cannot find by module and name is
    named in a RuntimeError)."""
    try:
        ok, value = marshal.loads(data)
    except (EOFError, ValueError, TypeError):
        raise RuntimeError(
            f"the worker for trials {first} .. {stop - 1} ended without a result"
            f" (wait status {status})"
        ) from None
    if ok:
        return value
    module, name, message = value
    kind = getattr(sys.modules.get(module), name, None)
    if isinstance(kind, type) and issubclass(kind, BaseException):
        raise kind(message)
    raise RuntimeError(f"{module}.{name}: {message}")


def run_trials(spec: GradingSpec, max_level: int, trials: int, seed: int) -> dict:
    """Randomized sweep over the product identities and the face lemmas.

    Trial t draws only from SplitMix(seed).stream(t), so its forms depend
    on (spec, max_level, seed, t) alone and a failure entry, which names
    the trial and branch, replays as that one trial.  The trials are cut
    into trial_workers(trials) contiguous chunks: this process checks the
    first, forked children the others, and their reports are merged key
    by key in trial order, so the report is the same for every worker
    count.  A child's exception is raised here again with its type and
    message; a child that ends without a result raises RuntimeError.
    Conditional branches whose hypotheses never fired show up in the
    vacuous count.  A suite that is all vacuous checks nothing, so the CLI
    fails a sweep unless its passed checks outnumber its vacuous ones.
    The report's draws count the normalized factors, the zero ones among
    them, and the passed verdicts of checks handed a zero form.  The seed
    is one 64-bit word: one outside 0 .. 2^64 - 1 raises ValueError, as
    SplitMix would read it mod 2^64 and replay another seed's trials.
    """
    if max_level < 1:
        raise ValueError("needs at least level 1")
    if not 0 <= seed < 1 << 64:
        raise ValueError("the seed must lie in 0 .. 2^64 - 1")
    workers = trial_workers(trials)
    cuts = [trials * k // workers for k in range(workers + 1)]
    # A child leaves through os._exit, which flushes nothing; still, no
    # buffered output of this process should be copied into it.
    sys.stdout.flush()
    sys.stderr.flush()
    children = []
    try:
        for k in range(1, workers):
            children.append(_fork_chunk(spec, max_level, seed, cuts[k], cuts[k + 1]))
        chunks = [_check_trials(spec, max_level, seed, cuts[0], cuts[1])]
    except BaseException:
        from signal import SIGKILL

        for pid, _ in children:
            os.kill(pid, SIGKILL)
        raise
    finally:
        ends = [_reap(pid, read) for pid, read in children]
    for k, (data, status) in enumerate(ends, 1):
        chunks.append(_child_result(data, status, cuts[k], cuts[k + 1]))
    report = chunks[0]
    for chunk in chunks[1:]:
        for key, value in chunk.items():
            if key == "draws":
                for name, count in value.items():
                    report["draws"][name] += count
            else:
                report[key] += value
    return report
